package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pario/internal/util"
)

// The Prometheus text exposition format — the wire shape of every
// /metrics endpoint in the system — lives in this file and nowhere
// else: WritePrometheus encodes a registry's samples, ParseText decodes
// a scraped page back into the same Sample values, and the two are
// exact inverses (pinned by TestExpositionRoundTrip). In-process
// consumers never touch text; they read Registry.Snapshot.

// Sample is one metric sample: a family name, its label set, and the
// value at collect time. Histogram bucket samples may carry an
// OpenMetrics-style exemplar.
type Sample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *Exemplar
}

// Exemplar is the `# {labels} value` annotation of a bucket sample —
// in this system, a trace_id label linking the bucket to the query
// that last landed in it.
type Exemplar struct {
	Labels map[string]string
	Value  float64
}

// Label returns the value of label key, or "".
func (s Sample) Label(key string) string { return s.Labels[key] }

// LabelsMatch reports whether labels is a superset of match (a nil
// match matches everything).
func LabelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// WritePrometheus renders every family in Prometheus text exposition
// format, families and label sets in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.collect() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		// Schema labels in registration order, then the bucket bound.
		bucketKeys := append(f.labels[:len(f.labels):len(f.labels)], "le")
		for _, p := range f.points {
			bw.WriteString(p.Name)
			keys := f.labels
			if len(p.Labels) > len(keys) { // a bucket sample: schema + le
				keys = bucketKeys
			}
			writeLabels(bw, keys, p.Labels)
			bw.WriteByte(' ')
			if p.integer {
				bw.WriteString(strconv.FormatInt(int64(p.Value), 10))
			} else {
				bw.WriteString(formatFloat(p.Value))
			}
			if ex := p.Exemplar; ex != nil {
				bw.WriteString(" # ")
				writeLabels(bw, util.SortedKeys(ex.Labels), ex.Labels)
				bw.WriteByte(' ')
				bw.WriteString(formatFloat(ex.Value))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// formatFloat renders a float sample value, and a bucket's le bound,
// in the exposition's shortest round-tripping form.
func formatFloat(v float64) string { return fmt.Sprintf("%g", v) }

// labelEscaper escapes a label value per the exposition spec:
// backslash, double quote and newline; every other byte is written
// raw, so any value — control bytes, invalid UTF-8 — survives a scrape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// writeLabels renders {k="v",...} for keys in order, or nothing for no
// keys.
func writeLabels(w *bufio.Writer, keys []string, labels map[string]string) {
	if len(keys) == 0 {
		return
	}
	w.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(k)
		w.WriteString(`="`)
		labelEscaper.WriteString(w, labels[k])
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// ParseText parses text-exposition metric lines (`name{k="v",...} value
// [timestamp]`) into samples. Beyond what WritePrometheus emits it
// accepts the parts of the upstream format a foreign exporter might
// use: label values containing spaces or commas, NaN and ±Inf values,
// an optional trailing millisecond timestamp. Comment and blank lines
// are skipped; a malformed line is an error — the endpoints under
// collection are our own, so damage means a real bug, and silently
// dropping a line would hide it.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: metrics line %d: %w", lineNo, err)
		}
		out = append(out, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading metrics: %w", err)
	}
	return out, nil
}

// parseLine parses one sample line. The name and label block are
// scanned left to right with quote awareness, so label values holding
// spaces, commas or escapes never confuse the value split, and an
// optional trailing timestamp is recognized and discarded.
func parseLine(line string) (Sample, error) {
	s := Sample{}
	rest := line

	// Metric name: up to '{' or whitespace.
	nameEnd := strings.IndexAny(rest, "{ \t")
	if nameEnd < 0 {
		return Sample{}, fmt.Errorf("no value in %q", line)
	}
	s.Name = rest[:nameEnd]
	if s.Name == "" {
		return Sample{}, fmt.Errorf("empty metric name in %q", line)
	}
	rest = rest[nameEnd:]

	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabelBlock(rest[1:])
		if err != nil {
			return Sample{}, fmt.Errorf("bad labels in %q: %w", line, err)
		}
		if len(labels) > 0 {
			s.Labels = labels
		}
		rest = tail
	}

	// An OpenMetrics exemplar may follow the value: `# {k="v"} val
	// [ts]`. The label block was already consumed quote-aware above,
	// so a '#' here starts the exemplar, not a label value byte.
	if hash := strings.IndexByte(rest, '#'); hash >= 0 {
		ex, err := parseExemplar(rest[hash+1:])
		if err != nil {
			return Sample{}, fmt.Errorf("bad exemplar in %q: %w", line, err)
		}
		s.Exemplar = ex
		rest = rest[:hash]
	}

	// What remains is "value" or "value timestamp".
	fields := strings.Fields(rest)
	switch len(fields) {
	case 1:
	case 2:
		// The second field must be a timestamp (integer milliseconds);
		// anything else is a malformed line, not a value to guess at.
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return Sample{}, fmt.Errorf("bad timestamp in %q: %w", line, err)
		}
	default:
		return Sample{}, fmt.Errorf("no value in %q", line)
	}
	// ParseFloat accepts NaN, Inf, +Inf and -Inf, so quantile gauges
	// and ratio metrics with no observations parse instead of erroring.
	val, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = val
	return s, nil
}

// parseExemplar parses `{k="v",...} value [timestamp]` (the '#'
// already eaten). The label block is mandatory per the OpenMetrics
// grammar; the timestamp is recognized and discarded like a sample's.
func parseExemplar(rest string) (*Exemplar, error) {
	rest = strings.TrimLeft(rest, " \t")
	if !strings.HasPrefix(rest, "{") {
		return nil, fmt.Errorf("missing label block")
	}
	labels, tail, err := parseLabelBlock(rest[1:])
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(tail)
	switch len(fields) {
	case 1:
	case 2:
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("bad timestamp: %w", err)
		}
	default:
		return nil, fmt.Errorf("no value")
	}
	val, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad value: %w", err)
	}
	ex := &Exemplar{Value: val}
	if len(labels) > 0 {
		ex.Labels = labels
	}
	return ex, nil
}

// parseLabelBlock consumes `k="v",...}` (the opening brace already
// eaten) and returns the labels plus the unconsumed tail of the line.
func parseLabelBlock(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("missing '=' near %q", rest)
		}
		key := strings.TrimSpace(rest[:eq])
		if key == "" {
			return nil, "", fmt.Errorf("empty label name near %q", rest)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("unquoted value for %q", key)
		}
		val, tail, err := parseQuoted(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", key, err)
		}
		labels[key] = val
		rest = strings.TrimLeft(tail, " \t")
		rest = strings.TrimPrefix(rest, ",")
	}
}

// parseQuoted consumes an exposition-escaped string up to its closing
// quote (the opening quote already eaten): the inverse of labelEscaper
// — \\ is a backslash, \" a quote, \n a newline, every other byte
// itself. \t and \r are also decoded because daemons built before the
// encoder followed the spec wrote them (Go's %q); the encoder never
// emits an unescaped backslash, so this costs the inverse nothing. An
// unknown escape keeps its backslash.
func parseQuoted(rest string) (val, tail string, err error) {
	var sb strings.Builder
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c == '\\' && i+1 < len(rest) {
			i++
			switch rest[i] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\', '"':
				sb.WriteByte(rest[i])
			default:
				sb.WriteByte('\\')
				sb.WriteByte(rest[i])
			}
			continue
		}
		if c == '"' {
			return sb.String(), rest[i+1:], nil
		}
		sb.WriteByte(c)
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}
