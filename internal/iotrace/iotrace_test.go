package iotrace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"pario/internal/chio"
)

func TestTraceRecordsOps(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w0")
	f, err := fs.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := fs.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 40)
	if _, err := g.ReadAt(buf, 10); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(g); err != nil {
		t.Fatal(err)
	}
	g.Close()

	evs := trace.Events()
	var reads, writes, opens, creates int
	for _, ev := range evs {
		switch ev.Op {
		case OpRead:
			reads++
			if ev.Worker != "w0" {
				t.Errorf("worker label missing: %+v", ev)
			}
		case OpWrite:
			writes++
			if ev.Offset != 0 {
				t.Errorf("sequential write recorded offset %d, want 0", ev.Offset)
			}
		case OpOpen:
			opens++
		case OpCreate:
			creates++
		}
	}
	if writes != 1 || opens != 1 || creates != 1 {
		t.Errorf("writes=%d opens=%d creates=%d", writes, opens, creates)
	}
	if reads < 2 {
		t.Errorf("reads=%d, want >=2", reads)
	}
}

// TestSequentialOffsets verifies sequential Read/Write events record
// the real file position (not a placeholder) and that Seek rebases it.
func TestSequentialOffsets(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w")
	f, err := fs.Create("seq")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 10)) // offset 0
	f.Write(make([]byte, 20)) // offset 10
	f.Close()

	g, err := fs.Open("seq")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	g.Read(buf) // offset 0
	g.Read(buf) // offset 5
	if _, err := g.Seek(20, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	g.Read(buf) // offset 20
	g.Close()

	var got []int64
	for _, ev := range trace.Events() {
		if ev.Op == OpRead || ev.Op == OpWrite {
			got = append(got, ev.Offset)
		}
	}
	want := []int64{0, 10, 0, 5, 20}
	if len(got) != len(want) {
		t.Fatalf("events offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d offset = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRemoveListTraced verifies namespace ops are traced.
func TestRemoveListTraced(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w")
	if err := chio.WriteFull(fs, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.List(""); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	var lists, removes int
	for _, ev := range trace.Events() {
		switch ev.Op {
		case OpList:
			lists++
			if ev.Size != 1 {
				t.Errorf("list size = %d, want 1 entry", ev.Size)
			}
		case OpRemove:
			removes++
		}
	}
	if lists != 1 || removes != 1 {
		t.Errorf("lists=%d removes=%d, want 1 each", lists, removes)
	}
}

func TestSummarizeMatchesEvents(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w")
	payload := make([]byte, 1000)
	if err := chio.WriteFull(fs, "f", payload); err != nil {
		t.Fatal(err)
	}
	data, err := chio.ReadFull(fs, "f")
	if err != nil || len(data) != 1000 {
		t.Fatalf("read back: %v %d", err, len(data))
	}
	s := trace.Summarize()
	if s.TotalOps != s.Reads+s.Writes {
		t.Errorf("op counts inconsistent: %+v", s)
	}
	if s.Writes != 1 || s.WriteBytes.Sum != 1000 {
		t.Errorf("write accounting: %+v", s)
	}
	if s.ReadBytes.Sum != 1000 {
		t.Errorf("read bytes = %v, want 1000", s.ReadBytes.Sum)
	}
	if s.ReadFraction <= 0 || s.ReadFraction >= 1 {
		t.Errorf("read fraction = %v", s.ReadFraction)
	}
}

func TestFormatStats(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w")
	if err := chio.WriteFull(fs, "f", make([]byte, 690)); err != nil {
		t.Fatal(err)
	}
	if _, err := chio.ReadFull(fs, "f"); err != nil {
		t.Fatal(err)
	}
	out := trace.Summarize().Format()
	if !strings.Contains(out, "I/O operations") || !strings.Contains(out, "reads") {
		t.Errorf("format output: %s", out)
	}
}

func TestWriteScatter(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w3")
	if err := chio.WriteFull(fs, "f", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := chio.ReadFull(fs, "f"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteScatter(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 { // header + >= 2 data rows
		t.Errorf("scatter output too short:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[0], "# time_s") {
		t.Errorf("missing header: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "w3") {
			t.Errorf("row missing worker: %s", l)
		}
	}
}

func TestStatTraced(t *testing.T) {
	trace := NewTrace()
	fs := Wrap(chio.NewMemFS(), trace, "w")
	if err := chio.WriteFull(fs, "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("f"); err != nil {
		t.Fatal(err)
	}
	var stats int
	for _, ev := range trace.Events() {
		if ev.Op == OpStat {
			stats++
		}
	}
	if stats != 1 {
		t.Errorf("stat events = %d, want 1", stats)
	}
}
