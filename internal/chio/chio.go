// Package chio defines the I/O seam of the system: the FileSystem and
// File interfaces through which the BLAST database code reads its
// data. The paper's three configurations correspond to the three
// implementations: conventional local-disk I/O (this package's
// LocalFS), PVFS (package pvfs), and CEFT-PVFS (package ceft). The
// parallel BLAST implementation is written purely against these
// interfaces, mirroring how the paper intrusively replaced the NCBI
// library's I/O calls with parallel-FS client calls.
//
// # Error contract
//
// Backends report failures by wrapping the package's sentinel errors,
// so callers branch with errors.Is regardless of backend:
//
//   - ErrNotExist: the named file is absent.
//   - ErrTimeout: an operation exceeded its configured deadline (a
//     per-request transport timeout or the caller's context deadline).
//     The server may still be alive; retrying later can succeed.
//   - ErrServerDown: a storage server is unreachable — connection
//     refused, reset, or closed mid-exchange. CEFT-PVFS reacts to this
//     (and to ErrTimeout) by falling back to the mirror partner;
//     plain PVFS surfaces it after its retry budget is exhausted.
//
// Context cancellation is reported as the context's own error
// (context.Canceled), never wrapped in a transport sentinel, so
// deliberate aborts are distinguishable from faults.
package chio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotExist is returned when a named file is absent.
var ErrNotExist = errors.New("chio: file does not exist")

// ErrTimeout is wrapped by backends when an operation exceeds its
// configured deadline. See the package doc's error contract.
var ErrTimeout = errors.New("chio: i/o timeout")

// ErrServerDown is wrapped by backends when a storage server is
// unreachable (refused, reset, or disconnected mid-exchange). See the
// package doc's error contract.
var ErrServerDown = errors.New("chio: server down")

// ContextBinder is implemented by FileSystems whose operations can be
// governed by a context (cancellation and deadlines). WithContext
// returns a view of the same backend — sharing connections and state —
// whose operations abort when ctx is done.
type ContextBinder interface {
	WithContext(ctx context.Context) FileSystem
}

// BindContext returns fs bound to ctx when fs supports it (directly or
// through a wrapper that forwards ContextBinder), and fs unchanged
// otherwise. Passing a nil or background context returns fs unchanged.
func BindContext(fs FileSystem, ctx context.Context) FileSystem {
	if ctx == nil || ctx == context.Background() {
		return fs
	}
	if b, ok := fs.(ContextBinder); ok {
		return b.WithContext(ctx)
	}
	return fs
}

// Seg is one byte range of a vectored positional read: Len bytes
// starting at Off.
type Seg struct {
	Off int64
	Len int64
}

// CheckSegs validates segs against the one shape a segment list takes
// at every layer, ascending and disjoint: no offset or length is
// negative, and each segment starts at or after the end of the one
// before it (a zero-length segment counts at its offset). It returns
// the segments' summed length.
func CheckSegs(segs []Seg) (int64, error) {
	var total, end int64
	for i, s := range segs {
		if s.Off < 0 || s.Len < 0 || s.Off > math.MaxInt64-s.Len {
			return 0, fmt.Errorf("chio: bad segment [%d,+%d)", s.Off, s.Len)
		}
		if s.Off < end {
			return 0, fmt.Errorf("chio: segment %d [%d,+%d) starts before the previous one ends at %d", i, s.Off, s.Len, end)
		}
		end = s.Off + s.Len
		total += s.Len
	}
	return total, nil
}

// VectorReaderAt is implemented by Files that can serve many
// discontiguous ranges in one backend round (the parallel-FS clients
// turn the whole list into one list-I/O RPC per data server). No
// search path asserts it: only ReadvAt below, for collio's round
// fetch, and the benchmark's tracing shim do, which is why it stays.
type VectorReaderAt interface {
	// ReadvAt fills dst — the segments' bytes concatenated in request
	// order, so len(dst) must be at least the sum of the segment
	// lengths — and returns the byte count served for each segment.
	// segs must be ascending and disjoint (see CheckSegs); any other
	// list is an error. Holes read as zeros; a segment extending past
	// EOF comes back short (its unserved tail in dst is zeroed); EOF is
	// reported by the short count, not by an error.
	ReadvAt(segs []Seg, dst []byte) ([]int64, error)
}

// RangeHinter is implemented by Files that take advance notice of
// ranges a reader expects to request soon. No file in this module
// implements it and nothing calls it; it stays only because the
// benchmark's tracing shim asserts and forwards it.
type RangeHinter interface {
	HintRanges(segs []Seg)
}

// View is a window onto file bytes returned by a ViewReaderAt. When
// Borrowed, Data aliases the reader's internal cache and must be
// treated as immutable; the bytes stay valid for the holder's lifetime
// (cache eviction only drops references, it never rewrites published
// blocks), but a concurrent write to the underlying range may make
// them STALE — superseded, not mutated. Stale lets a holder that
// cares about freshness detect this and re-read. A borrowed view's
// spare capacity, Data[len:cap], is the rest of the reader's block, as
// immutable and as fresh as Data. A non-borrowed view owns Data.
type View struct {
	Data     []byte
	Borrowed bool
	stale    func() bool
}

// NewBorrowedView builds a borrowed view whose staleness is decided by
// stale (nil means never stale).
func NewBorrowedView(data []byte, stale func() bool) View {
	return View{Data: data, Borrowed: true, stale: stale}
}

// OwnedView wraps a caller-owned buffer in a never-stale view.
func OwnedView(data []byte) View {
	return View{Data: data}
}

// Stale reports whether the viewed range has been superseded by a
// write since the view was taken. The view's bytes are still the ones
// read — staleness is about freshness, not validity.
func (v View) Stale() bool {
	return v.stale != nil && v.stale()
}

// ViewReaderAt is implemented by Files that can hand out zero-copy
// windows onto cached data. The readahead layer serves single-block
// cache hits this way, so the database decoder takes one view per
// block (its capacity, see View) and cuts packed payloads out of it.
type ViewReaderAt interface {
	// ReadView returns a view of n bytes at off. Like ReadAt, a range
	// extending past EOF comes back short with io.EOF. The view may be
	// borrowed or owned at the implementation's discretion.
	ReadView(off, n int64) (View, error)
}

// ReadvAt serves segs through f's native vectored path when it has
// one, and otherwise falls back to one ReadAt per segment with the
// same semantics (the same CheckSegs rule, zero-filled tails, EOF as a
// short count).
func ReadvAt(f File, segs []Seg, dst []byte) ([]int64, error) {
	if v, ok := f.(VectorReaderAt); ok {
		return v.ReadvAt(segs, dst)
	}
	total, err := CheckSegs(segs)
	if err != nil {
		return nil, err
	}
	if total > int64(len(dst)) {
		return nil, fmt.Errorf("chio: readv needs %d bytes, dst holds %d", total, len(dst))
	}
	lens := make([]int64, len(segs))
	var base int64
	for i, s := range segs {
		region := dst[base : base+s.Len]
		n, err := f.ReadAt(region, s.Off)
		if err != nil && err != io.EOF {
			return nil, err
		}
		lens[i] = int64(n)
		clear(region[n:])
		base += s.Len
	}
	return lens, nil
}

// FileInfo describes a stored file.
type FileInfo struct {
	Name string
	Size int64
}

// File is an open file handle. Implementations must support
// positional reads (ReadAt) because database fragments are accessed
// by offset, as well as streaming reads and appending writes.
//
// The streaming half (Read, Write, Seek) is derived, not written per
// backend: every File in this module that keeps a position embeds a
// Cursor over its own ReadAt, WriteAt and Size. Positional calls may run
// concurrently with each other and with streaming calls. Streaming
// calls on one handle are serialized by its cursor, so concurrent
// Reads consume disjoint ranges and concurrent Writes land one after
// another, as read(2) and write(2) do on a shared descriptor.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Name() string
}

// Cursor is a File's streaming half — Read, Write and Seek — derived
// from the file's positional ReadAt and WriteAt and its Size. A file
// type embeds it and calls Init once, before the file is used. It is
// safe for concurrent use: each call holds the cursor's lock for its
// whole transfer, and Read and Write move the position by the bytes
// they transferred.
type Cursor struct {
	f   Positional
	mu  sync.Mutex
	off int64
}

// Positional is what a Cursor derives the streaming calls from: the
// file's positional transfers, and its current length for io.SeekEnd.
type Positional interface {
	io.ReaderAt
	io.WriterAt
	Size() (int64, error)
}

// Init binds the cursor to f.
func (c *Cursor) Init(f Positional) { c.f = f }

// Read implements io.Reader as a ReadAt at the position.
func (c *Cursor) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.f.ReadAt(p, c.off)
	c.off += int64(n)
	return n, err
}

// Write implements io.Writer as a WriteAt at the position.
func (c *Cursor) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.f.WriteAt(p, c.off)
	c.off += int64(n)
	return n, err
}

// Seek implements io.Seeker. A target before the start of the file, a
// bad whence or a failed size lookup is an error and leaves the
// position where it was.
func (c *Cursor) Seek(offset int64, whence int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = c.off
	case io.SeekEnd:
		size, err := c.f.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, fmt.Errorf("chio: bad whence %d", whence)
	}
	next := base + offset
	if next < 0 || (offset > 0 && next < base) {
		return 0, fmt.Errorf("chio: seek to %d%+d is out of range", base, offset)
	}
	c.off = next
	return next, nil
}

// FileSystem is the storage backend abstraction.
type FileSystem interface {
	// Create truncates or creates a file for writing.
	Create(name string) (File, error)
	// Open opens an existing file for reading (and positional writes
	// where the backend allows it).
	Open(name string) (File, error)
	// Stat reports a file's size.
	Stat(name string) (FileInfo, error)
	// Remove deletes a file.
	Remove(name string) error
	// List enumerates files whose names start with prefix, sorted.
	List(prefix string) ([]FileInfo, error)
	// BackendName identifies the backend ("local", "pvfs", "ceft-pvfs").
	BackendName() string
}

// ReadFull reads the whole named file.
func ReadFull(fs FileSystem, name string) ([]byte, error) {
	fi, err := fs.Stat(name)
	if err != nil {
		return nil, err
	}
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, fi.Size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFull creates the named file with the given contents.
func WriteFull(fs FileSystem, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Copy streams a file between (possibly different) file systems using
// bufSize-byte transfers. It returns the number of bytes copied.
func Copy(dst FileSystem, dstName string, src FileSystem, srcName string, bufSize int) (int64, error) {
	if bufSize <= 0 {
		bufSize = 1 << 20
	}
	in, err := src.Open(srcName)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := dst.Create(dstName)
	if err != nil {
		return 0, err
	}
	n, err := io.CopyBuffer(out, in, make([]byte, bufSize))
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// ---------------------------------------------------------------------
// Local backend

// LocalFS implements FileSystem over a root directory of the host
// file system. It is the "conventional I/O" configuration of the
// paper (each worker reading its own local disk).
type LocalFS struct {
	root string
}

// NewLocalFS returns a backend rooted at dir, creating it if needed.
func NewLocalFS(dir string) (*LocalFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &LocalFS{root: dir}, nil
}

// BackendName returns "local".
func (l *LocalFS) BackendName() string { return "local" }

func (l *LocalFS) path(name string) (string, error) {
	clean := filepath.Clean("/" + name)
	return filepath.Join(l.root, clean), nil
}

// Create implements FileSystem.
func (l *LocalFS) Create(name string) (File, error) {
	p, err := l.path(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(p)
	if err != nil {
		return nil, err
	}
	return &localFile{File: f, name: name}, nil
}

// Open implements FileSystem.
func (l *LocalFS) Open(name string) (File, error) {
	p, err := l.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return nil, err
	}
	return &localFile{File: f, name: name}, nil
}

// Stat implements FileSystem.
func (l *LocalFS) Stat(name string) (FileInfo, error) {
	p, err := l.path(name)
	if err != nil {
		return FileInfo{}, err
	}
	st, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: name, Size: st.Size()}, nil
}

// Remove implements FileSystem.
func (l *LocalFS) Remove(name string) error {
	p, err := l.path(name)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return err
}

// List implements FileSystem.
func (l *LocalFS) List(prefix string) ([]FileInfo, error) {
	var out []FileInfo
	err := filepath.Walk(l.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, prefix) {
			out = append(out, FileInfo{Name: rel, Size: info.Size()})
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, err
}

type localFile struct {
	*os.File
	name string
}

func (f *localFile) Name() string { return f.name }

// ---------------------------------------------------------------------
// In-memory backend (for tests and the simulator's functional side)

// MemFS is a thread-safe in-memory FileSystem.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memData
}

type memData struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemFS returns an empty in-memory backend.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memData)}
}

// BackendName returns "mem".
func (m *MemFS) BackendName() string { return "mem" }

// Create implements FileSystem.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := &memData{}
	m.files[name] = d
	return newMemFile(d, name), nil
}

// Open implements FileSystem.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return newMemFile(d, name), nil
}

// Stat implements FileSystem.
func (m *MemFS) Stat(name string) (FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return FileInfo{Name: name, Size: int64(len(d.data))}, nil
}

// Remove implements FileSystem.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(m.files, name)
	return nil
}

// List implements FileSystem.
func (m *MemFS) List(prefix string) ([]FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []FileInfo
	for name, d := range m.files {
		if strings.HasPrefix(name, prefix) {
			d.mu.RLock()
			out = append(out, FileInfo{Name: name, Size: int64(len(d.data))})
			d.mu.RUnlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

type memFile struct {
	Cursor
	d    *memData
	name string
}

func newMemFile(d *memData, name string) *memFile {
	f := &memFile{d: d, name: name}
	f.Init(f)
	return f
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Size() (int64, error) {
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	return int64(len(f.d.data)), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("chio: readat %s: negative offset %d", f.name, off)
	}
	f.d.mu.RLock()
	defer f.d.mu.RUnlock()
	if off >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("chio: writeat %s: negative offset %d", f.name, off)
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(f.d.data)) {
		if end > int64(cap(f.d.data)) {
			// Grow geometrically so a run of appends copies O(n) bytes in
			// total rather than the whole file on every write.
			grown := make([]byte, end, max(end, 2*int64(cap(f.d.data))))
			copy(grown, f.d.data)
			f.d.data = grown
		} else {
			// A file's data never shrinks (Create starts a new one), so
			// the spare capacity still holds the zeros it was made with
			// and a gap before off reads back as zeros.
			f.d.data = f.d.data[:end]
		}
	}
	copy(f.d.data[off:end], p)
	return len(p), nil
}

func (f *memFile) Close() error { return nil }

// ---------------------------------------------------------------------
// Fault-injection wrapper (testing aid)

// FaultFS wraps a FileSystem and fails read operations once Arm has
// been called — an error-injection aid for exercising failure paths in
// the layers above (worker task failures, degraded reads).
type FaultFS struct {
	Inner FileSystem
	fault *faultState // shared with every WithContext view
}

type faultState struct {
	mu  sync.Mutex
	err error // nil while disarmed
}

// NewFaultFS wraps inner; the wrapper is transparent until Arm.
func NewFaultFS(inner FileSystem) *FaultFS {
	return &FaultFS{Inner: inner, fault: &faultState{}}
}

// Arm makes all subsequent reads fail with err.
func (f *FaultFS) Arm(err error) {
	f.fault.mu.Lock()
	f.fault.err = err
	f.fault.mu.Unlock()
}

// Disarm restores transparent operation.
func (f *FaultFS) Disarm() { f.Arm(nil) }

func (f *FaultFS) faultErr() error {
	f.fault.mu.Lock()
	defer f.fault.mu.Unlock()
	return f.fault.err
}

// BackendName implements FileSystem.
func (f *FaultFS) BackendName() string { return f.Inner.BackendName() + "+fault" }

// Create implements FileSystem.
func (f *FaultFS) Create(name string) (File, error) { return f.Inner.Create(name) }

// Open implements FileSystem.
func (f *FaultFS) Open(name string) (File, error) {
	if err := f.faultErr(); err != nil {
		return nil, err
	}
	inner, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

// Stat implements FileSystem.
func (f *FaultFS) Stat(name string) (FileInfo, error) {
	if err := f.faultErr(); err != nil {
		return FileInfo{}, err
	}
	return f.Inner.Stat(name)
}

// Remove implements FileSystem.
func (f *FaultFS) Remove(name string) error { return f.Inner.Remove(name) }

// List implements FileSystem.
func (f *FaultFS) List(prefix string) ([]FileInfo, error) { return f.Inner.List(prefix) }

// WithContext implements ContextBinder by forwarding to the wrapped
// backend. The returned view shares this wrapper's armed state, so
// Arm/Disarm on either govern both.
func (f *FaultFS) WithContext(ctx context.Context) FileSystem {
	inner := BindContext(f.Inner, ctx)
	if inner == f.Inner {
		return f
	}
	return &FaultFS{Inner: inner, fault: f.fault}
}

type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.fs.faultErr(); err != nil {
		return 0, err
	}
	return ff.File.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fs.faultErr(); err != nil {
		return 0, err
	}
	return ff.File.ReadAt(p, off)
}
