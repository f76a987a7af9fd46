package main

import (
	"context"
	"sync"
	"time"

	"pario/internal/chio"
)

// shimFS times every data call that crosses one layer boundary and
// records it as a span. The same type serves above readahead
// ("fs"), below it ("client") and around a data server's store
// ("store"); only the span names differ.
//
// It must be invisible to the layers on either side: readahead's file
// offers zero-copy views and range hints, the parallel-FS clients
// offer vectored reads, and their callers choose a code path by
// asking for those. So a wrapped value offers exactly the optional
// interfaces the value inside it has (see wrapFS and wrapFile).
type shimFS struct {
	inner chio.FileSystem
	buf   *spanBuf
	layer int
	open  string
	read  string
	write string
}

func newShim(inner chio.FileSystem, buf *spanBuf, layer int, prefix string) *shimFS {
	return &shimFS{
		inner: inner, buf: buf, layer: layer,
		open: prefix + ".open", read: prefix + ".read", write: prefix + ".write",
	}
}

// wrapFS puts a timing shim around inner.
func wrapFS(inner chio.FileSystem, buf *spanBuf, layer int, prefix string) chio.FileSystem {
	s := newShim(inner, buf, layer, prefix)
	if _, ok := inner.(chio.ContextBinder); ok {
		return &shimCtxFS{s}
	}
	return s
}

func (s *shimFS) BackendName() string { return s.inner.BackendName() }

func (s *shimFS) Create(name string) (chio.File, error) {
	t := time.Now()
	f, err := s.inner.Create(name)
	s.buf.add(s.layer, s.open, t, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return wrapFile(&shimFile{File: f, fs: s}), nil
}

func (s *shimFS) Open(name string) (chio.File, error) {
	t := time.Now()
	f, err := s.inner.Open(name)
	s.buf.add(s.layer, s.open, t, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return wrapFile(&shimFile{File: f, fs: s}), nil
}

func (s *shimFS) Stat(name string) (chio.FileInfo, error)     { return s.inner.Stat(name) }
func (s *shimFS) Remove(name string) error                    { return s.inner.Remove(name) }
func (s *shimFS) List(prefix string) ([]chio.FileInfo, error) { return s.inner.List(prefix) }

// shimCtxFS is a shimFS over a backend that can be bound to a context.
type shimCtxFS struct{ *shimFS }

func (s *shimCtxFS) WithContext(ctx context.Context) chio.FileSystem {
	bound := *s.shimFS
	bound.inner = chio.BindContext(s.inner, ctx)
	return &shimCtxFS{&bound}
}

// shimFile times the calls every chio.File has.
type shimFile struct {
	chio.File
	fs *shimFS
}

func (f *shimFile) span(name string, t time.Time, n int) {
	f.fs.buf.add(f.fs.layer, name, t, time.Now(), int64(n))
}

func (f *shimFile) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Read(p)
	f.span(f.fs.read, t, n)
	return n, err
}

func (f *shimFile) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.span(f.fs.read, t, n)
	return n, err
}

func (f *shimFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.span(f.fs.write, t, n)
	return n, err
}

func (f *shimFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.span(f.fs.write, t, n)
	return n, err
}

// The three optional file interfaces, one forwarding type each.

type shimVec struct{ f *shimFile }

func (v shimVec) ReadvAt(segs []chio.Seg, dst []byte) ([]int64, error) {
	t := time.Now()
	lens, err := v.f.File.(chio.VectorReaderAt).ReadvAt(segs, dst)
	var n int64
	for _, l := range lens {
		n += l
	}
	v.f.span(v.f.fs.read, t, int(n))
	return lens, err
}

type shimHint struct{ f *shimFile }

func (h shimHint) HintRanges(segs []chio.Seg) { h.f.File.(chio.RangeHinter).HintRanges(segs) }

type shimView struct{ f *shimFile }

func (v shimView) ReadView(off, n int64) (chio.View, error) {
	t := time.Now()
	view, err := v.f.File.(chio.ViewReaderAt).ReadView(off, n)
	v.f.span(v.f.fs.read, t, len(view.Data))
	return view, err
}

// wrapFile returns f with exactly the optional interfaces its inner
// file has.
func wrapFile(f *shimFile) chio.File {
	_, vec := f.File.(chio.VectorReaderAt)
	_, hint := f.File.(chio.RangeHinter)
	_, view := f.File.(chio.ViewReaderAt)
	switch {
	case vec && hint && view:
		return struct {
			*shimFile
			shimVec
			shimHint
			shimView
		}{f, shimVec{f}, shimHint{f}, shimView{f}}
	case vec && hint:
		return struct {
			*shimFile
			shimVec
			shimHint
		}{f, shimVec{f}, shimHint{f}}
	case vec && view:
		return struct {
			*shimFile
			shimVec
			shimView
		}{f, shimVec{f}, shimView{f}}
	case hint && view:
		return struct {
			*shimFile
			shimHint
			shimView
		}{f, shimHint{f}, shimView{f}}
	case vec:
		return struct {
			*shimFile
			shimVec
		}{f, shimVec{f}}
	case hint:
		return struct {
			*shimFile
			shimHint
		}{f, shimHint{f}}
	case view:
		return struct {
			*shimFile
			shimView
		}{f, shimView{f}}
	}
	return f
}

// rpcObserver is the rpcpool observer of one client: a span per RPC
// (the observer learns of a call when it ends, so start = end -
// latency) and the transport counters.
type rpcObserver struct {
	buf *spanBuf
	mgr string // metadata server: its RPCs are named apart

	mu        sync.Mutex
	retries   int64
	errors    int64
	batchRuns int64
	batchRPCs int64
}

func newRPCObserver(buf *spanBuf, mgr string) *rpcObserver {
	return &rpcObserver{buf: buf, mgr: mgr}
}

func (o *rpcObserver) ObserveCall(server string, latency time.Duration, retries int, err error) {
	if !o.buf.recording() {
		return
	}
	end := time.Now()
	name := "rpc"
	if server == o.mgr {
		name = "rpc.mgr"
	}
	o.buf.addOp(layerRPC, name, -1, server, end.Add(-latency), end, 0)
	o.mu.Lock()
	o.retries += int64(retries)
	if err != nil {
		o.errors++
	}
	o.mu.Unlock()
}

func (o *rpcObserver) ObserveBatch(server string, runs, rpcs int) {
	if !o.buf.recording() {
		return
	}
	o.mu.Lock()
	o.batchRuns += int64(runs)
	o.batchRPCs += int64(rpcs)
	o.mu.Unlock()
}
