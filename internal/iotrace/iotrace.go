// Package iotrace wraps a chio.FileSystem and records every
// application-level I/O operation (op, wall-clock time, offset,
// size). It reproduces the instrumentation the paper added to the
// NCBI BLAST library to collect Figure 4's access-pattern trace.
package iotrace

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"pario/internal/chio"
	"pario/internal/util"
)

// Op identifies a traced operation type.
type Op string

// Trace operation kinds.
const (
	OpRead   Op = "read"
	OpWrite  Op = "write"
	OpOpen   Op = "open"
	OpCreate Op = "create"
	OpStat   Op = "stat"
	OpRemove Op = "remove"
	OpList   Op = "list"
)

// Event is one recorded I/O operation.
type Event struct {
	When   time.Duration // since trace start
	Op     Op
	File   string
	Offset int64
	Size   int64
	Worker string // label of the issuing worker, if set on the FS wrapper
}

// Trace accumulates events from any number of goroutines.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// NewTrace returns a trace anchored at time.Now. It records every
// event; an untraced run leaves its file system unwrapped.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

func (t *Trace) add(ev Event) {
	t.mu.Lock()
	ev.When = time.Since(t.start)
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events in arrival order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Stats summarizes a trace the way the paper reports Figure 4.
type Stats struct {
	TotalOps     int
	Reads        int
	Writes       int
	ReadFraction float64
	ReadBytes    util.Summary
	WriteBytes   util.Summary
}

// Summarize computes the Figure 4 statistics over the data-carrying
// events (reads and writes).
func (t *Trace) Summarize() Stats {
	evs := t.Events()
	var s Stats
	var readSizes, writeSizes []float64
	for _, ev := range evs {
		switch ev.Op {
		case OpRead:
			s.Reads++
			readSizes = append(readSizes, float64(ev.Size))
		case OpWrite:
			s.Writes++
			writeSizes = append(writeSizes, float64(ev.Size))
		}
	}
	s.TotalOps = s.Reads + s.Writes
	if s.TotalOps > 0 {
		s.ReadFraction = float64(s.Reads) / float64(s.TotalOps)
	}
	s.ReadBytes = util.Summarize(readSizes)
	s.WriteBytes = util.Summarize(writeSizes)
	return s
}

// Format renders the stats in the style of the paper's Figure 4
// caption ("Among 144 I/O operations, 89% were reads ranging in data
// size from 13 bytes to 220 MB...").
func (s Stats) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Among %d I/O operations, %.0f%% were reads", s.TotalOps, 100*s.ReadFraction)
	if s.Reads > 0 {
		fmt.Fprintf(&sb, " ranging in data size from %s to %s, with a mean of %s",
			util.FormatBytes(int64(s.ReadBytes.Min)),
			util.FormatBytes(int64(s.ReadBytes.Max)),
			util.FormatBytes(int64(s.ReadBytes.Mean)))
	}
	fmt.Fprintf(&sb, ". The remaining %d were write operations", s.Writes)
	if s.Writes > 0 {
		fmt.Fprintf(&sb, " with a minimum of %s, a maximum of %s and a mean of %s",
			util.FormatBytes(int64(s.WriteBytes.Min)),
			util.FormatBytes(int64(s.WriteBytes.Max)),
			util.FormatBytes(int64(s.WriteBytes.Mean)))
	}
	sb.WriteString(".")
	return sb.String()
}

// WriteScatter dumps (time_seconds, bytes, op) rows: the data behind
// the Figure 4 scatter plot.
func (t *Trace) WriteScatter(w io.Writer) error {
	evs := t.Events()
	sort.Slice(evs, func(i, j int) bool { return evs[i].When < evs[j].When })
	if _, err := fmt.Fprintln(w, "# time_s\tbytes\top\tworker\tfile"); err != nil {
		return err
	}
	for _, ev := range evs {
		if ev.Op != OpRead && ev.Op != OpWrite {
			continue
		}
		if _, err := fmt.Fprintf(w, "%.6f\t%d\t%s\t%s\t%s\n",
			ev.When.Seconds(), ev.Size, ev.Op, ev.Worker, ev.File); err != nil {
			return err
		}
	}
	return nil
}

// FS wraps a FileSystem so that all file data operations are recorded
// into a shared Trace. Worker labels the event source.
type FS struct {
	Inner  chio.FileSystem
	Trace  *Trace
	Worker string
}

// Wrap returns the tracing wrapper.
func Wrap(inner chio.FileSystem, trace *Trace, worker string) *FS {
	return &FS{Inner: inner, Trace: trace, Worker: worker}
}

// BackendName reports the inner backend's name with a trace marker.
func (f *FS) BackendName() string { return f.Inner.BackendName() + "+trace" }

// Create implements chio.FileSystem. Creation is traced as its own op
// (distinct from open): the two have very different costs on a striped
// backend, where create clears stale pieces on every data server.
func (f *FS) Create(name string) (chio.File, error) {
	inner, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	f.Trace.add(Event{Op: OpCreate, File: name, Worker: f.Worker})
	return f.file(inner), nil
}

// Open implements chio.FileSystem.
func (f *FS) Open(name string) (chio.File, error) {
	inner, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	f.Trace.add(Event{Op: OpOpen, File: name, Worker: f.Worker})
	return f.file(inner), nil
}

// Stat implements chio.FileSystem.
func (f *FS) Stat(name string) (chio.FileInfo, error) {
	fi, err := f.Inner.Stat(name)
	if err == nil {
		f.Trace.add(Event{Op: OpStat, File: name, Worker: f.Worker})
	}
	return fi, err
}

// Remove implements chio.FileSystem.
func (f *FS) Remove(name string) error {
	err := f.Inner.Remove(name)
	if err == nil {
		f.Trace.add(Event{Op: OpRemove, File: name, Worker: f.Worker})
	}
	return err
}

// List implements chio.FileSystem. Size records the number of entries
// returned.
func (f *FS) List(prefix string) ([]chio.FileInfo, error) {
	fis, err := f.Inner.List(prefix)
	if err == nil {
		f.Trace.add(Event{Op: OpList, File: prefix, Size: int64(len(fis)), Worker: f.Worker})
	}
	return fis, err
}

// WithContext implements chio.ContextBinder by forwarding to the
// wrapped backend, so tracing composes with context-aware backends.
func (f *FS) WithContext(ctx context.Context) chio.FileSystem {
	return &FS{Inner: chio.BindContext(f.Inner, ctx), Trace: f.Trace, Worker: f.Worker}
}

// file records every data call on the inner file. Its streaming calls
// are cursor calls over its own traced ReadAt and WriteAt, so a
// sequential Read or Write records the offset it touched.
type file struct {
	chio.Cursor
	inner chio.File
	fs    *FS
}

// file opens a traced handle on inner.
func (f *FS) file(inner chio.File) *file {
	fl := &file{inner: inner, fs: f}
	fl.Init(fl)
	return fl
}

func (fl *file) Name() string { return fl.inner.Name() }

func (fl *file) Close() error { return fl.inner.Close() }

func (fl *file) Size() (int64, error) { return fl.inner.Seek(0, io.SeekEnd) }

func (fl *file) ReadAt(p []byte, off int64) (int, error) {
	n, err := fl.inner.ReadAt(p, off)
	if n > 0 {
		fl.fs.Trace.add(Event{Op: OpRead, File: fl.inner.Name(), Size: int64(n), Offset: off, Worker: fl.fs.Worker})
	}
	return n, err
}

func (fl *file) WriteAt(p []byte, off int64) (int, error) {
	n, err := fl.inner.WriteAt(p, off)
	if n > 0 {
		fl.fs.Trace.add(Event{Op: OpWrite, File: fl.inner.Name(), Size: int64(n), Offset: off, Worker: fl.fs.Worker})
	}
	return n, err
}
