package pvfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/chio"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// DataServer is a PVFS I/O daemon (iod): it stores the stripe pieces
// of files on a local chio backend and serves positional reads and
// writes. It also tracks a load metric and, when configured with a
// manager address, heartbeats it to the metadata server — the
// mechanism CEFT-PVFS uses for hot-spot detection.
type DataServer struct {
	ID      int
	store   chio.FileSystem
	ln      net.Listener
	wg      sync.WaitGroup
	tracker *connTracker
	closed  chan struct{}
	tel     *serverMetrics

	// Throttle emulates a slow or overloaded disk: each served byte
	// costs this much time. Zero means full speed. Guarded by
	// atomics; expressed in nanoseconds per KiB to stay integral.
	throttleNsPerKiB int64

	// load accounting: inflight is the instantaneous request count;
	// a sampler goroutine, loadEWMA's only writer, folds it into
	// loadEWMA (the exported load metric, a smoothed queue-depth
	// estimate).
	inflight int64
	loadEWMA uint64 // math.Float64bits of the smoothed load

	// files guards piece creation so concurrent writers to the same
	// piece do not race Create/Open.
	filesMu sync.Mutex

	// heartbeat: stopHeartbeat cancels the loop and its in-flight
	// report; nil when the server has no manager.
	hbPeriod      time.Duration
	stopHeartbeat context.CancelFunc
}

// DataServerConfig configures StartDataServer.
type DataServerConfig struct {
	// ID is the server's index within the file system's server list.
	ID int
	// Addr is the TCP listen address ("127.0.0.1:0" for tests).
	Addr string
	// Store is the backing storage for stripe pieces (a local
	// directory in production, MemFS in tests).
	Store chio.FileSystem
	// MgrAddr, if non-empty, enables load heartbeats to the metadata
	// server at this address.
	MgrAddr string
	// HeartbeatPeriod defaults to 250ms.
	HeartbeatPeriod time.Duration
	// Telemetry, if non-nil, receives this server's request counters,
	// latency histograms, and load gauges.
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records a server-side span for every request
	// that arrives stamped with a trace identity.
	Tracer *telemetry.Tracer
}

// StartDataServer launches an iod and returns once it is listening.
func StartDataServer(cfg DataServerConfig) (*DataServer, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("pvfs: data server needs a store")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 250 * time.Millisecond
	}
	ds := &DataServer{
		ID:       cfg.ID,
		store:    cfg.Store,
		ln:       ln,
		closed:   make(chan struct{}),
		hbPeriod: cfg.HeartbeatPeriod,
		tracker:  newConnTracker(),
	}
	ds.tel = newServerMetrics(cfg.Telemetry, cfg.Tracer, fmt.Sprintf("iod%d", cfg.ID))
	ds.tel.enableIODGauges(cfg.Telemetry)
	ds.wg.Add(1)
	go acceptLoop(ln, ds.handle, &ds.wg, ds.tracker)
	go ds.sampleLoop()
	if cfg.MgrAddr != "" {
		ctx, cancel := context.WithCancel(context.Background())
		ds.stopHeartbeat = cancel
		// No retries: a report that misses its period is stale, and
		// the next tick sends a fresh one.
		mgr := newMetaConn(cfg.MgrAddr, rpcpool.Apply(rpcpool.WithPoolSize(1), rpcpool.WithRetries(0)))
		ds.wg.Add(1)
		go ds.heartbeatLoop(ctx, mgr)
	}
	return ds, nil
}

// sampleLoop periodically samples the in-flight request count into
// the smoothed load metric. Sampling (rather than recording at
// request arrival) makes a continuously-busy server report load ~= 1
// and a server with a backlog report its queue depth, while idle
// servers decay toward 0.
func (ds *DataServer) sampleLoop() {
	period := ds.hbPeriod / 4
	if period <= 0 {
		period = 20 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	const alpha = 0.3
	lastBytes := ds.tel.servedBytes()
	lastTime := time.Now()
	for {
		select {
		case <-ds.closed:
			return
		case <-t.C:
			depth := float64(atomic.LoadInt64(&ds.inflight))
			// The only writer: a plain store after the load suffices.
			atomic.StoreUint64(&ds.loadEWMA, math.Float64bits((1-alpha)*ds.Load()+alpha*depth))
			if ds.tel != nil {
				now := time.Now()
				bytes := ds.tel.servedBytes()
				rate := 0.0
				if dt := now.Sub(lastTime).Seconds(); dt > 0 {
					rate = float64(bytes-lastBytes) / dt
				}
				lastBytes, lastTime = bytes, now
				ds.tel.sample(atomic.LoadInt64(&ds.inflight), ds.Load(), rate)
			}
		}
	}
}

// Addr returns the server's listen address.
func (ds *DataServer) Addr() string { return ds.ln.Addr().String() }

// SetThrottle sets an artificial per-byte service delay emulating a
// loaded disk (d per KiB served). Used by the hot-spot experiments.
func (ds *DataServer) SetThrottle(dPerKiB time.Duration) {
	atomic.StoreInt64(&ds.throttleNsPerKiB, int64(dPerKiB))
}

// Load returns the current smoothed load metric: an exponentially
// weighted average of the sampled in-flight request count, a cheap
// proxy for disk queue depth.
func (ds *DataServer) Load() float64 {
	return math.Float64frombits(atomic.LoadUint64(&ds.loadEWMA))
}

func (ds *DataServer) recordArrival() { atomic.AddInt64(&ds.inflight, 1) }

func (ds *DataServer) recordDone() { atomic.AddInt64(&ds.inflight, -1) }

func pieceName(handle uint64) string { return fmt.Sprintf("pieces/%016x", handle) }

func (ds *DataServer) handle(req *Request) *Response {
	ds.recordArrival()
	defer ds.recordDone()
	start := time.Now()
	resp := ds.dispatch(req)
	ds.tel.observe(req, resp, start, time.Since(start))
	return resp
}

// throttle emulates a loaded disk: serving n bytes costs the
// configured per-KiB delay.
func (ds *DataServer) throttle(n int64) {
	t := atomic.LoadInt64(&ds.throttleNsPerKiB)
	if t <= 0 {
		return
	}
	wait := time.Duration(t * ((n + 1023) / 1024))
	time.Sleep(wait)
	ds.tel.observeQueueWait(wait)
}

// dispatch routes one decoded request to its op handler. Piece data
// has one read handler and one write handler, both over segment lists.
func (ds *DataServer) dispatch(req *Request) *Response {
	switch req.Op {
	case OpListRead:
		return ds.handleRead(req.Handle, req.Segs, req.reply)
	case OpListWrite:
		ds.throttle(int64(len(req.Data)))
		return ds.handleWrite(req.Handle, req.Segs, req.Data)
	case OpPieceRemove:
		err := ds.store.Remove(pieceName(req.Handle))
		if err != nil && !isNotExist(err) {
			return errResp("piece remove: %v", err)
		}
		return &Response{OK: true}
	}
	return errResp("data server: unknown op %d", req.Op)
}

// checkSegs validates a segment list off the wire: the one shape
// chio.CheckSegs checks at every layer, and the summed length within
// maxRequestBytes. It returns the sum.
func checkSegs(segs []chio.Seg) (int64, error) {
	total, err := chio.CheckSegs(segs)
	if err != nil {
		return 0, err
	}
	if total > maxRequestBytes {
		return 0, fmt.Errorf("segments claim more than %d bytes", maxRequestBytes)
	}
	return total, nil
}

// handleRead serves a list read, holes and the piece's end included.
// The list is in piece order and nothing overlaps, so each segment is
// read straight into its place in the reply: Data is the served bytes
// concatenated in request order, in buf's storage when it is large
// enough (the serving connection's reused reply buffer); SegLens says
// how much of each segment was served (short means hole or end of
// piece, and the client zero-fills).
func (ds *DataServer) handleRead(handle uint64, segs []chio.Seg, buf []byte) *Response {
	total, err := checkSegs(segs)
	if err != nil {
		return errResp("list read: %v", err)
	}
	ds.throttle(total)
	lens := make([]int64, len(segs))
	f, err := ds.store.Open(pieceName(handle))
	if err != nil {
		// Piece never written: every segment is a hole.
		return &Response{OK: true, SegLens: lens}
	}
	defer f.Close()
	// Nothing is served past the piece's end, so the reply is sized by
	// what the piece holds, not by what the request claims.
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return errResp("list read: %v", err)
	}
	var need int64
	for i, s := range segs {
		lens[i] = min(max(size-s.Off, 0), s.Len)
		need += lens[i]
	}
	if int64(cap(buf)) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	for i, s := range segs {
		if lens[i] == 0 {
			continue
		}
		n, err := f.ReadAt(buf[len(buf):len(buf)+int(lens[i])], s.Off)
		if err != nil && err != io.EOF {
			return errResp("list read: %v", err)
		}
		lens[i] = int64(n)
		buf = buf[:len(buf)+n]
	}
	return &Response{OK: true, Data: buf, SegLens: lens}
}

// handleWrite applies a list write to this server's piece: data is the
// segments' bytes concatenated in request order. No segment may end
// more than maxRequestBytes past the piece's current end; a list
// breaking that rule or checkSegs' is rejected whole.
func (ds *DataServer) handleWrite(handle uint64, segs []chio.Seg, data []byte) *Response {
	total, err := checkSegs(segs)
	if err != nil {
		return errResp("list write: %v", err)
	}
	if total != int64(len(data)) {
		return errResp("list write: payload %d bytes, segments claim %d", len(data), total)
	}
	ds.filesMu.Lock()
	f, err := ds.store.Open(pieceName(handle))
	if err != nil {
		f, err = ds.store.Create(pieceName(handle))
	}
	ds.filesMu.Unlock()
	if err != nil {
		return errResp("piece create: %v", err)
	}
	defer f.Close()
	// A write may extend the piece by at most maxRequestBytes: a store
	// that allocates up to the written offset must not be made to hold
	// gigabytes for a few bytes of payload. The last segment of the
	// ascending list ends furthest.
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return errResp("list write: %v", err)
	}
	if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len-size > maxRequestBytes {
		last := segs[n-1]
		return errResp("list write: segment [%d,+%d) ends more than %d bytes past the piece's end %d",
			last.Off, last.Len, maxRequestBytes, size)
	}
	for _, s := range segs {
		if s.Len == 0 {
			continue
		}
		if _, err := f.WriteAt(data[:s.Len], s.Off); err != nil {
			return errResp("list write: %v", err)
		}
		data = data[s.Len:]
	}
	return &Response{OK: true}
}

func isNotExist(err error) bool {
	return err != nil && errors.Is(err, chio.ErrNotExist)
}

// heartbeatLoop reports the server's load to its manager once a
// period until ctx ends. mgr dials on its first report, so the server
// may start before its manager; a failed report is dropped. Each
// report runs under a deadline of one period, and Close cancels ctx,
// so a manager that accepts but never answers delays neither the next
// report nor Close, which waits for the loop to exit.
func (ds *DataServer) heartbeatLoop(ctx context.Context, mgr *MetaConn) {
	defer ds.wg.Done()
	defer mgr.Close()
	t := time.NewTicker(ds.hbPeriod)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rctx, cancel := context.WithTimeout(ctx, ds.hbPeriod)
			_ = mgr.ReportLoad(rctx, ds.ID, ds.Load()) // dropped on failure: stale by the next tick
			cancel()
		}
	}
}

// Close stops the server and waits for in-flight requests and the
// heartbeat loop.
func (ds *DataServer) Close() error {
	select {
	case <-ds.closed:
		return nil
	default:
	}
	close(ds.closed)
	err := ds.ln.Close()
	if ds.stopHeartbeat != nil {
		ds.stopHeartbeat()
	}
	// Force-close live peer connections so serve goroutines exit even
	// when clients are still attached.
	ds.tracker.closeAll()
	ds.wg.Wait()
	return err
}
