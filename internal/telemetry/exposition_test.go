package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// hostileLabels are label values the exposition must carry verbatim:
// quotes, backslashes and newlines (the three escapes), control bytes,
// U+2028, invalid UTF-8, and text that looks like the format's own
// syntax. blastd takes pario_blastd_client_inflight's client label
// from a request header, so every one of these can arrive from outside.
var hostileLabels = []string{
	"plain", "", "with space, comma", `quote " and \ backslash`, "line1\nline2",
	"tab\there", "cr\rhere", "a\x01b", "nul\x00byte", "bad\xffutf", "sep\u2028para",
	`literal \n \t \x01 \u2028`, `trailing backslash \`, `} 1 # {x="y"} 2`, `le="0.5"`,
}

// TestExpositionRoundTrip pins encoder and decoder as exact inverses:
// for a registry holding every instrument kind and hostile label
// values, parsing the rendered page yields Snapshot sample for sample.
// This is what lets in-process consumers read Snapshot while remote
// ones parse a scrape and both see the same data.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pario_rt_total", "plain counter").Add(1 << 40)
	reg.Gauge("pario_rt_gauge", "plain gauge").Set(-2.5e-7)
	reg.Gauge("pario_rt_nan", "no observations yet").Set(math.NaN())
	reg.Gauge("pario_rt_inf", "").Set(math.Inf(-1))
	reg.CounterFunc("pario_rt_counter_func", "computed", func() float64 { return 1234567 })
	reg.GaugeFunc("pario_rt_gauge_func", "computed", func() float64 { return 1.7e9 + 0.125 })
	reg.Histogram("pario_rt_empty_seconds", "never observed")
	plain := reg.Histogram("pario_rt_seconds", "no exemplars")
	for _, v := range []float64{0, 3e-6, 0.004, 0.004, 17, 1e12} {
		plain.Observe(v)
	}
	cv := reg.CounterVec("pario_rt_vec_total", "two labels", "server", "op")
	gv := reg.GaugeVec("pario_rt_client_inflight", "outside input", "client")
	hv := reg.HistogramVec("pario_rt_vec_seconds", "labels and exemplars", "client")
	for i, l := range hostileLabels {
		cv.With(l, "read").Add(int64(i))
		gv.With(l).Set(float64(i) / 3)
		h := hv.With(l)
		h.Observe(1e-5)
		h.ObserveExemplar(float64(i+1)*0.01, uint64(0xabc000+i))
		h.ObserveExemplar(1e12, 0x77) // +Inf bucket
	}
	gv.With("departed").Set(9)
	gv.Delete("departed")

	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(bytes.NewReader(page.Bytes()))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, page.String())
	}
	want := reg.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, snapshot has %d\n%s", len(got), len(want), page.String())
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.IsNaN(w.Value) && math.IsNaN(g.Value) {
			g.Value, w.Value = 0, 0
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("sample %d:\n parsed   %+v (exemplar %+v)\n snapshot %+v (exemplar %+v)", i, g, g.Exemplar, w, w.Exemplar)
		}
	}
	for _, s := range want {
		if s.Label("client") == "departed" {
			t.Errorf("deleted child still sampled: %+v", s)
		}
	}
}

func TestParseEscapedLabels(t *testing.T) {
	page := `weird{msg="a \"quoted\" value, with comma"} 1
path{p="C:\\store\\piece"} 2
multiline{m="line1\nline2"} 3
tabbed{m="a\tb"} 4
spaced{m="value with spaces"} 5
`
	samples, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"weird":     `a "quoted" value, with comma`,
		"path":      `C:\store\piece`,
		"multiline": "line1\nline2",
		"tabbed":    "a\tb",
		"spaced":    "value with spaces",
	}
	if len(samples) != len(want) {
		t.Fatalf("samples: %d", len(samples))
	}
	for _, s := range samples {
		var got string
		for _, v := range s.Labels {
			got = v
		}
		if got != want[s.Name] {
			t.Errorf("%s: label %q, want %q", s.Name, got, want[s.Name])
		}
	}
}

func TestParseSpecialValues(t *testing.T) {
	page := `ratio_nan NaN
gauge_posinf +Inf
gauge_neginf -Inf
gauge_bareinf Inf
counter_exp 1.5e+09
`
	samples, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if !math.IsNaN(byName["ratio_nan"]) {
		t.Errorf("NaN parsed as %g", byName["ratio_nan"])
	}
	if !math.IsInf(byName["gauge_posinf"], 1) || !math.IsInf(byName["gauge_bareinf"], 1) {
		t.Errorf("+Inf parsed as %g / %g", byName["gauge_posinf"], byName["gauge_bareinf"])
	}
	if !math.IsInf(byName["gauge_neginf"], -1) {
		t.Errorf("-Inf parsed as %g", byName["gauge_neginf"])
	}
	if byName["counter_exp"] != 1.5e9 {
		t.Errorf("exponent: %g", byName["counter_exp"])
	}
}

func TestParseTimestamps(t *testing.T) {
	// Upstream exporters may append a millisecond timestamp; it must
	// not be mistaken for the value.
	s, err := parseLine(`requests_total{server="iod0"} 42 1712345678901`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Value != 42 {
		t.Errorf("value: %g", s.Value)
	}
	// A value-position word after the value that is not a timestamp is
	// a malformed line.
	if _, err := parseLine(`requests_total 42 notatime`); err == nil {
		t.Error("no error for trailing junk")
	}
}

func TestParseHistogramPage(t *testing.T) {
	page := `# HELP pario_iod_queue_wait_seconds wait
# TYPE pario_iod_queue_wait_seconds histogram
pario_iod_queue_wait_seconds_bucket{server="iod0",le="0.001"} 3
pario_iod_queue_wait_seconds_bucket{server="iod0",le="+Inf"} 5
pario_iod_queue_wait_seconds_sum{server="iod0"} 0.25
pario_iod_queue_wait_seconds_count{server="iod0"} 5
`
	samples, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("samples: %d", len(samples))
	}
	if samples[1].Label("le") != "+Inf" || samples[1].Value != 5 {
		t.Errorf("inf bucket: %+v", samples[1])
	}
}

func TestParseMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		`bad{unterminated="x 1` + "\n",
		`bad{key=unquoted} 1` + "\n",
		"name{} notanumber\n",
		`bad{="novalue"} 1` + "\n",
		"too many fields here 1 2 3\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestParseExemplars(t *testing.T) {
	page := `pario_req_seconds_bucket{le="0.005"} 3 # {trace_id="00000000deadbeef"} 0.003
pario_req_seconds_bucket{le="+Inf"} 4 # {trace_id="0000000000000077"} 12 1700000000.5
pario_req_seconds_sum 0.5
pario_req_seconds_count 4
plain_total 9
`
	samples, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples: %d, want 5", len(samples))
	}
	ex := samples[0].Exemplar
	if ex == nil || ex.Labels["trace_id"] != "00000000deadbeef" || ex.Value != 0.003 {
		t.Fatalf("bucket exemplar = %+v", ex)
	}
	if samples[0].Value != 3 {
		t.Fatalf("bucket value = %g", samples[0].Value)
	}
	ex = samples[1].Exemplar
	if ex == nil || ex.Labels["trace_id"] != "0000000000000077" || ex.Value != 12 {
		t.Fatalf("+Inf exemplar with timestamp = %+v", ex)
	}
	for _, s := range samples[2:] {
		if s.Exemplar != nil {
			t.Fatalf("%s grew an exemplar: %+v", s.Name, s.Exemplar)
		}
	}
}

func TestParseExemplarMalformed(t *testing.T) {
	for _, line := range []string{
		`m_bucket{le="1"} 2 # trace_id no braces`,
		`m_bucket{le="1"} 2 # {trace_id="x"}`,
		`m_bucket{le="1"} 2 # {trace_id="x"} notanumber`,
	} {
		if _, err := ParseText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseText(%q) accepted a malformed exemplar", line)
		}
	}
}

// FuzzParseText feeds ParseText arbitrary pages, which must never make
// it panic, and checks the round trip on pages WritePrometheus
// renders: a registry whose counter, gauge and histogram carry an
// arbitrary label value (and the gauge an arbitrary value) parses back
// to its Snapshot, sample for sample. The seeds are hostileLabels.
func FuzzParseText(f *testing.F) {
	for i, l := range hostileLabels {
		f.Add(l, float64(i)/3)
	}
	f.Fuzz(func(t *testing.T, label string, value float64) {
		ParseText(strings.NewReader(label))

		reg := NewRegistry()
		reg.CounterVec("pario_fz_total", "counter", "client").With(label).Add(3)
		reg.GaugeVec("pario_fz_gauge", "gauge", "client").With(label).Set(value)
		h := reg.HistogramVec("pario_fz_seconds", "histogram", "client").With(label)
		h.Observe(1e-5)
		h.ObserveExemplar(0.25, 0xabc)
		var page bytes.Buffer
		if err := reg.WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		got, err := ParseText(bytes.NewReader(page.Bytes()))
		if err != nil {
			t.Fatalf("ParseText of a rendered page: %v\n%s", err, page.String())
		}
		want := reg.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("parsed %d samples, snapshot has %d\n%s", len(got), len(want), page.String())
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.IsNaN(w.Value) && math.IsNaN(g.Value) {
				g.Value, w.Value = 0, 0
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("sample %d:\n parsed   %+v\n snapshot %+v\n%s", i, g, w, page.String())
			}
		}
	})
}
