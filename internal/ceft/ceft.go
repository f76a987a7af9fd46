// Package ceft implements CEFT-PVFS, the Cost-Effective Fault-
// Tolerant Parallel Virtual File System of Zhu et al.: a RAID-10
// extension of PVFS. Files are striped across a primary group of data
// servers and every stripe is duplicated onto a mirror group. The two
// read optimizations the paper evaluates are implemented here:
//
//  1. Doubled read parallelism — a read fetches the first half of the
//     requested range from one group and the second half from the
//     other, so all 2G servers serve data for a single large read.
//  2. Hot-spot skipping — the metadata server aggregates the load
//     heartbeats of all data servers; the client skips servers whose
//     load is far above their group's and reads the affected stripes
//     from the mirror partner instead.
//
// The client implements chio.FileSystem, so the parallel BLAST code
// runs over CEFT-PVFS unchanged. Transport behavior (connection
// pooling, per-request deadlines, retries) comes from the shared
// rpcpool options; a sub-read that times out or finds its server down
// falls back to the mirror partner, so one hung server degrades a
// read's latency by at most the configured deadline instead of
// hanging it.
package ceft

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/chio"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// WriteProtocol selects how writes are duplicated onto the mirror
// group — the four protocols of the CEFT-PVFS write-performance study
// (Zhu et al., ClusterWorld 2003), trading reliability guarantees for
// write latency.
type WriteProtocol int

const (
	// ClientSync: the client writes both groups and waits for both
	// (strongest guarantee, doubles client network traffic).
	ClientSync WriteProtocol = iota
	// ClientAsync: the client writes the primary group synchronously
	// and duplicates to the mirror group in the background; Close
	// flushes.
	ClientAsync
	// ServerSync: the client writes only the primary group; each
	// primary server forwards to its mirror partner and acknowledges
	// after the mirror confirms (halves client traffic, server pays).
	ServerSync
	// ServerAsync: like ServerSync but the primary acknowledges
	// before forwarding; Close flushes the servers' forward queues
	// (fastest, weakest window).
	ServerAsync
)

// String names the protocol.
func (w WriteProtocol) String() string {
	switch w {
	case ClientSync:
		return "client-sync"
	case ClientAsync:
		return "client-async"
	case ServerSync:
		return "server-sync"
	case ServerAsync:
		return "server-async"
	}
	return fmt.Sprintf("WriteProtocol(%d)", int(w))
}

// Options tune the CEFT client's replication semantics. Transport
// behavior (pooling, timeouts, retries) is configured separately with
// the rpcpool options passed to Dial.
type Options struct {
	// DoubledReads enables the split-range doubled-parallelism read
	// path (§4.4 of the paper). Default true.
	DoubledReads bool
	// SkipHotSpots enables hot-spot avoidance (§4.5). Default true.
	SkipHotSpots bool
	// HotFactor: a server is hot when its load exceeds HotFactor x
	// the median load of all servers (and MinHotLoad).
	HotFactor float64
	// MinHotLoad is an absolute load floor below which no server is
	// considered hot, so idle systems never skip.
	MinHotLoad float64
	// LoadCacheTTL bounds how often the client polls the metadata
	// server for load reports.
	LoadCacheTTL time.Duration
	// WriteProtocol selects the duplication protocol. The server-side
	// protocols require the primary data servers to be started with
	// their MirrorAddr configured.
	WriteProtocol WriteProtocol
	// Logger, when non-nil, receives structured hot-spot transition
	// events (server marked hot / cooled down) with trace correlation.
	Logger *slog.Logger
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{
		DoubledReads:  true,
		SkipHotSpots:  true,
		HotFactor:     4.0,
		MinHotLoad:    0.75,
		LoadCacheTTL:  250 * time.Millisecond,
		WriteProtocol: ClientSync,
	}
}

// Client is a CEFT-PVFS client over one metadata server, G primary
// data servers and G mirror data servers. Data server IDs are
// 0..G-1 (primary) and G..2G-1 (mirror): the mirror partner of
// primary server i is server G+i.
type Client struct {
	opts    Options
	tracer  *telemetry.Tracer
	ctx     context.Context
	meta    *pvfs.MetaConn
	primary []*pvfs.DataConn
	mirror  []*pvfs.DataConn

	loadMu      sync.Mutex
	loadFetched time.Time
	hotPrimary  []bool
	hotMirror   []bool
	hotEvents   []HotEvent
	reroutes    map[int]int64

	asyncWG  sync.WaitGroup
	asyncMu  sync.Mutex
	asyncErr error

	failMu    sync.Mutex
	failovers int64
	degraded  int64
}

// HotEvent is one structured hot-set transition: the moment the
// client's view of a data server crossed (or re-crossed) the hot
// cutoff. The event stream is the audit trail of the paper's Figures
// 8-9 mechanism — it answers "which server was considered hot, when,
// and against what cutoff".
type HotEvent struct {
	// Time is when the client observed the transition.
	Time time.Time
	// ServerID is the data server (0..G-1 primary, G..2G-1 mirror).
	ServerID int
	// Load is the heartbeat load that triggered the transition.
	Load float64
	// Cutoff is the hot threshold in force (HotFactor x median,
	// floored at MinHotLoad).
	Cutoff float64
	// Hot is true when the server entered the hot set, false when it
	// cooled down and rejoined normal scheduling.
	Hot bool
}

// Audit is a snapshot of the client's hot-spot and fault-handling
// history, consumed by run reports.
type Audit struct {
	// Events are the hot-set transitions in observation order.
	Events []HotEvent
	// Reroutes counts, per skipped server ID, the stripe reads that
	// were redirected to its mirror partner by hot-spot skipping (one
	// count per read per skipped server).
	Reroutes map[int]int64
	// Failovers and DegradedWrites mirror the counters of the same
	// names: fault-driven (not load-driven) mirror activity.
	Failovers      int64
	DegradedWrites int64
	// GroupSize is G, so consumers can name mirror partners.
	GroupSize int
}

// Audit returns a copy of the client's hot-spot audit state.
func (cl *Client) Audit() Audit {
	a := Audit{GroupSize: len(cl.primary)}
	cl.loadMu.Lock()
	a.Events = append([]HotEvent(nil), cl.hotEvents...)
	a.Reroutes = make(map[int]int64, len(cl.reroutes))
	for id, n := range cl.reroutes {
		a.Reroutes[id] = n
	}
	cl.loadMu.Unlock()
	cl.failMu.Lock()
	a.Failovers = cl.failovers
	a.DegradedWrites = cl.degraded
	cl.failMu.Unlock()
	return a
}

// maxHotEvents bounds the audit trail; a long run oscillating around
// the cutoff keeps the most recent transitions.
const maxHotEvents = 4096

// Failovers reports how many sub-reads were served by a mirror
// partner after the preferred server failed (degraded-mode reads).
func (cl *Client) Failovers() int64 {
	cl.failMu.Lock()
	defer cl.failMu.Unlock()
	return cl.failovers
}

func (cl *Client) addFailovers(n int64) {
	if n == 0 {
		return
	}
	cl.failMu.Lock()
	cl.failovers += n
	cl.failMu.Unlock()
}

// DegradedWrites reports how many per-server write runs landed on
// only one member of a mirror pair because the other was unreachable.
// Non-zero means redundancy is reduced until the pair is resynced.
func (cl *Client) DegradedWrites() int64 {
	cl.failMu.Lock()
	defer cl.failMu.Unlock()
	return cl.degraded
}

func (cl *Client) addDegraded(n int64) {
	if n == 0 {
		return
	}
	cl.failMu.Lock()
	cl.degraded += n
	cl.failMu.Unlock()
}

// partner returns the other member of mirror pair i, given the chosen
// one (the degraded-mode fallback).
func (cl *Client) partner(i int, chosen *pvfs.DataConn) *pvfs.DataConn {
	if chosen == cl.primary[i] {
		return cl.mirror[i]
	}
	return cl.primary[i]
}

// Dial connects to the manager and both server groups. primaryAddrs
// and mirrorAddrs must have equal length. o carries the CEFT
// replication options; opts carries the transport options shared with
// the plain PVFS backend:
//
//	cl, err := ceft.Dial(mgr, primaries, mirrors, ceft.DefaultOptions(),
//		rpcpool.WithTimeout(2*time.Second),
//		rpcpool.WithPoolSize(8))
func Dial(mgrAddr string, primaryAddrs, mirrorAddrs []string, o Options, opts ...rpcpool.Option) (*Client, error) {
	if len(primaryAddrs) == 0 || len(primaryAddrs) != len(mirrorAddrs) {
		return nil, fmt.Errorf("ceft: need equal non-empty primary and mirror groups (got %d and %d)",
			len(primaryAddrs), len(mirrorAddrs))
	}
	meta, err := pvfs.DialMeta(mgrAddr, opts...)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		opts: o,
		// The root-span tracer is the one the transports share via
		// rpcpool.WithTracer, so application reads and the RPC spans
		// they fan out into land in the same buffer.
		tracer: rpcpool.Apply(opts...).Tracer,
		ctx:    context.Background(),
		meta:   meta,
	}
	for _, a := range primaryAddrs {
		cl.primary = append(cl.primary, pvfs.DialDataLazy(a, opts...))
	}
	for _, a := range mirrorAddrs {
		cl.mirror = append(cl.mirror, pvfs.DialDataLazy(a, opts...))
	}
	// Probe every data server in parallel, but only require one live
	// member per mirror pair: a degraded cluster must stay dialable
	// (reads fail over to the surviving partner).
	g := len(primaryAddrs)
	alive := make([]bool, 2*g)
	var wg sync.WaitGroup
	probe := func(i int, d *pvfs.DataConn) {
		defer wg.Done()
		_, err := d.Ping(cl.ctx)
		alive[i] = err == nil
	}
	for i, d := range cl.primary {
		wg.Add(1)
		go probe(i, d)
	}
	for i, d := range cl.mirror {
		wg.Add(1)
		go probe(g+i, d)
	}
	wg.Wait()
	for i := 0; i < g; i++ {
		if !alive[i] && !alive[g+i] {
			cl.Close()
			return nil, fmt.Errorf("ceft: mirror pair %d unreachable (primary %s, mirror %s): %w",
				i, primaryAddrs[i], mirrorAddrs[i], chio.ErrServerDown)
		}
	}
	cl.hotPrimary = make([]bool, len(cl.primary))
	cl.hotMirror = make([]bool, len(cl.mirror))
	cl.reroutes = make(map[int]int64)
	return cl, nil
}

// BackendName returns "ceft-pvfs".
func (cl *Client) BackendName() string { return "ceft-pvfs" }

// GroupSize returns the number of servers per group.
func (cl *Client) GroupSize() int { return len(cl.primary) }

// WithContext implements chio.ContextBinder: the returned view shares
// this client's connections, hot-set cache, and failover counters, but
// its operations abort when ctx is done.
//
// The view aliases the receiver's synchronization state, so it must
// not be copied further except through WithContext.
func (cl *Client) WithContext(ctx context.Context) chio.FileSystem {
	if ctx == nil {
		ctx = context.Background()
	}
	return &boundClient{Client: cl, ctx: ctx}
}

// boundClient is a context-bound view of a Client. Embedding keeps the
// shared state (pools, hot sets, counters) in one place; only the
// context differs per view.
type boundClient struct {
	*Client
	ctx context.Context
}

func (b *boundClient) Create(name string) (chio.File, error) { return b.Client.create(b.ctx, name) }
func (b *boundClient) Open(name string) (chio.File, error)   { return b.Client.open(b.ctx, name) }
func (b *boundClient) Stat(name string) (chio.FileInfo, error) {
	return b.Client.stat(b.ctx, name)
}
func (b *boundClient) Remove(name string) error { return b.Client.remove(b.ctx, name) }
func (b *boundClient) List(prefix string) ([]chio.FileInfo, error) {
	return b.Client.list(b.ctx, prefix)
}
func (b *boundClient) WithContext(ctx context.Context) chio.FileSystem {
	return b.Client.WithContext(ctx)
}

// Close flushes asynchronous mirror writes and drops all connections.
func (cl *Client) Close() error {
	cl.asyncWG.Wait()
	var first error
	if cl.meta != nil {
		first = cl.meta.Close()
	}
	for _, d := range cl.primary {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, d := range cl.mirror {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// refreshHotSet polls the manager's load map (rate-limited by the
// TTL) and recomputes which servers are hot. A server is hot when its
// load exceeds HotFactor x the median of all reported loads and the
// MinHotLoad floor, and its mirror partner is not itself hot (the
// paper's constraint: skipping works as long as no mirroring pair is
// entirely hot).
func (cl *Client) refreshHotSet(ctx context.Context) {
	cl.loadMu.Lock()
	defer cl.loadMu.Unlock()
	if time.Since(cl.loadFetched) < cl.opts.LoadCacheTTL {
		return
	}
	cl.loadFetched = time.Now()
	loads, err := cl.meta.LoadQuery(ctx)
	if err != nil {
		return // keep the previous hot set
	}
	g := len(cl.primary)
	all := make([]float64, 0, len(loads))
	for _, v := range loads {
		all = append(all, v)
	}
	if len(all) == 0 {
		return
	}
	sort.Float64s(all)
	median := all[len(all)/2]
	cutoff := cl.opts.HotFactor * median
	if cutoff < cl.opts.MinHotLoad {
		cutoff = cl.opts.MinHotLoad
	}
	isHot := func(id int) bool {
		v, ok := loads[id]
		return ok && v > cutoff
	}
	for i := 0; i < g; i++ {
		hp, hm := isHot(i), isHot(g+i)
		// Never mark both sides of a pair: prefer skipping the hotter.
		if hp && hm {
			if loads[i] >= loads[g+i] {
				hm = false
			} else {
				hp = false
			}
		}
		if hp != cl.hotPrimary[i] {
			cl.recordHotEvent(ctx, i, loads[i], cutoff, hp)
		}
		if hm != cl.hotMirror[i] {
			cl.recordHotEvent(ctx, g+i, loads[g+i], cutoff, hm)
		}
		cl.hotPrimary[i] = hp
		cl.hotMirror[i] = hm
	}
}

// recordHotEvent appends one hot-set transition to the audit trail and
// logs it. Callers hold loadMu. ctx carries the span of the read that
// triggered the refresh, so the log line names the trace it belongs to.
func (cl *Client) recordHotEvent(ctx context.Context, id int, load, cutoff float64, hot bool) {
	cl.hotEvents = append(cl.hotEvents, HotEvent{
		Time: time.Now(), ServerID: id, Load: load, Cutoff: cutoff, Hot: hot,
	})
	if n := len(cl.hotEvents) - maxHotEvents; n > 0 {
		cl.hotEvents = append(cl.hotEvents[:0], cl.hotEvents[n:]...)
	}
	if cl.opts.Logger != nil {
		msg := "hot-spot marked"
		if !hot {
			msg = "hot-spot cleared"
		}
		cl.opts.Logger.Info(msg, append([]any{
			"server", id, "load", load, "cutoff", cutoff,
		}, telemetry.TraceAttrs(ctx)...)...)
	}
}

// pickConns returns, for each server index, the connection to use
// when the preferred group is primary (or mirror), honoring hot-spot
// skipping. skipped reports how many servers were redirected.
func (cl *Client) pickConns(ctx context.Context, preferPrimary bool) (conns []*pvfs.DataConn, skipped int) {
	g := len(cl.primary)
	conns = make([]*pvfs.DataConn, g)
	if cl.opts.SkipHotSpots {
		cl.refreshHotSet(ctx)
	}
	cl.loadMu.Lock()
	defer cl.loadMu.Unlock()
	for i := 0; i < g; i++ {
		usePrimary := preferPrimary
		if cl.opts.SkipHotSpots {
			if usePrimary && cl.hotPrimary[i] {
				usePrimary = false
				skipped++
				cl.reroutes[i]++
			} else if !usePrimary && cl.hotMirror[i] {
				usePrimary = true
				skipped++
				cl.reroutes[g+i]++
			}
		}
		if usePrimary {
			conns[i] = cl.primary[i]
		} else {
			conns[i] = cl.mirror[i]
		}
	}
	return conns, skipped
}

// Create implements chio.FileSystem.
func (cl *Client) Create(name string) (chio.File, error) { return cl.create(cl.ctx, name) }

func (cl *Client) create(ctx context.Context, name string) (chio.File, error) {
	m, err := cl.meta.Create(ctx, name)
	if err != nil {
		return nil, err
	}
	// Clear stale pieces on both groups.
	g := len(cl.primary)
	errs := make([]error, 2*g)
	var wg sync.WaitGroup
	clear := func(idx int, d *pvfs.DataConn) {
		defer wg.Done()
		errs[idx] = d.RemovePiece(ctx, m.Handle)
	}
	for i, d := range cl.primary {
		wg.Add(1)
		go clear(i, d)
	}
	for i, d := range cl.mirror {
		wg.Add(1)
		go clear(g+i, d)
	}
	wg.Wait()
	// Tolerate a clear failure when the pair partner was cleared: on a
	// degraded cluster the dead member holds no piece to go stale (it
	// must be resynced before rejoining anyway).
	var deg int64
	for i := 0; i < g; i++ {
		if errs[i] != nil && errs[g+i] != nil {
			return nil, errs[i]
		}
		if errs[i] != nil || errs[g+i] != nil {
			deg++
		}
	}
	cl.addDegraded(deg)
	return cl.file(ctx, m), nil
}

// Open implements chio.FileSystem.
func (cl *Client) Open(name string) (chio.File, error) { return cl.open(cl.ctx, name) }

func (cl *Client) open(ctx context.Context, name string) (chio.File, error) {
	m, err := cl.meta.Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	return cl.file(ctx, m), nil
}

// Stat implements chio.FileSystem.
func (cl *Client) Stat(name string) (chio.FileInfo, error) { return cl.stat(cl.ctx, name) }

func (cl *Client) stat(ctx context.Context, name string) (chio.FileInfo, error) {
	m, err := cl.meta.Stat(ctx, name)
	if err != nil {
		return chio.FileInfo{}, err
	}
	return chio.FileInfo{Name: name, Size: m.Size}, nil
}

// Remove implements chio.FileSystem.
func (cl *Client) Remove(name string) error { return cl.remove(cl.ctx, name) }

func (cl *Client) remove(ctx context.Context, name string) error {
	m, err := cl.meta.Remove(ctx, name)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	rm := func(d *pvfs.DataConn) {
		defer wg.Done()
		d.RemovePiece(ctx, m.Handle)
	}
	for _, d := range cl.primary {
		wg.Add(1)
		go rm(d)
	}
	for _, d := range cl.mirror {
		wg.Add(1)
		go rm(d)
	}
	wg.Wait()
	return nil
}

// List implements chio.FileSystem.
func (cl *Client) List(prefix string) ([]chio.FileInfo, error) { return cl.list(cl.ctx, prefix) }

func (cl *Client) list(ctx context.Context, prefix string) ([]chio.FileInfo, error) {
	metas, err := cl.meta.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	out := make([]chio.FileInfo, 0, len(metas))
	for _, m := range metas {
		out = append(out, chio.FileInfo{Name: m.Name, Size: m.Size})
	}
	return out, nil
}

func (cl *Client) recordAsyncErr(err error) {
	if err == nil {
		return
	}
	cl.asyncMu.Lock()
	if cl.asyncErr == nil {
		cl.asyncErr = err
	}
	cl.asyncMu.Unlock()
}

// AsyncErr returns the first error from background mirror writes, if
// any (only relevant with the ClientAsync protocol).
func (cl *Client) AsyncErr() error {
	cl.asyncMu.Lock()
	defer cl.asyncMu.Unlock()
	return cl.asyncErr
}

// file opens m under ctx.
func (cl *Client) file(ctx context.Context, m pvfs.Meta) *pvfs.File {
	return pvfs.NewFile(ctx, replicated{cl}, cl.tracer, m)
}

// replicated is the CEFT client's pvfs.Store: the striping plan is
// PVFS's, and this type only decides which member of each mirror pair
// executes it — both for a write, the preferred (or cooler, or
// surviving) one for a read.
type replicated struct{ cl *Client }

func (r replicated) NumServers() int { return len(r.cl.primary) }

func (r replicated) StatSize(ctx context.Context, name string) (int64, error) {
	m, err := r.cl.meta.Stat(ctx, name)
	return m.Size, err
}

func (r replicated) GrowSize(ctx context.Context, name string, size int64) error {
	return r.cl.meta.GrowSize(ctx, name, size)
}

// runsWriter issues all of one server's stripe runs. Plain writes are
// one list-I/O RPC; the server-side duplication protocols stay one RPC
// per run because the dup ops carry a single (offset, data) pair on
// the wire.
type runsWriter func(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error

func plainWrite(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error {
	return d.WriteRuns(ctx, handle, runs, p)
}

func dupWrite(sync bool) runsWriter {
	return func(ctx context.Context, d *pvfs.DataConn, handle uint64, runs []pvfs.StripeRun, p []byte) error {
		for _, r := range runs {
			if err := d.WritePieceDup(ctx, handle, r.ServerOff, p[r.BufOff:r.BufOff+r.Length], sync); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeGroup issues the per-server runs to one server group using
// write, returning one error slot per server (nil where the server
// took all of its runs, or had none) and the first error.
func writeGroup(ctx context.Context, conns []*pvfs.DataConn, runs [][]pvfs.StripeRun, handle uint64, p []byte, write runsWriter) ([]error, error) {
	return pvfs.FanOut(runs, func(server int, list []pvfs.StripeRun) error {
		return write(ctx, conns[server], handle, list, p)
	})
}

// degradeWrites retries each failed primary server's runs as plain
// writes on its mirror partner (RAID-10 degraded mode: a write
// survives as long as one member of every pair takes it). Only
// transport-level failures — the primary dead or hung — are degraded;
// an application-level refusal (e.g. a server-side protocol without
// mirror configuration) propagates, because silently dropping to one
// copy there would mask a misconfiguration rather than a fault. A
// server whose mirror partner is also down keeps its original error.
func (cl *Client) degradeWrites(ctx context.Context, errs []error, runs [][]pvfs.StripeRun, handle uint64, p []byte) error {
	for i, orig := range errs {
		if orig == nil {
			continue
		}
		if ctx.Err() != nil {
			return orig
		}
		if !errors.Is(orig, chio.ErrServerDown) && !errors.Is(orig, chio.ErrTimeout) {
			return orig
		}
		if err := cl.mirror[i].WriteRuns(ctx, handle, runs[i], p); err != nil {
			return orig
		}
		cl.addDegraded(1)
	}
	return nil
}

// WriteRuns duplicates the planned write onto both groups (RAID-10)
// using the configured duplication protocol.
func (r replicated) WriteRuns(ctx context.Context, handle uint64, runs [][]pvfs.StripeRun, p []byte) error {
	cl := r.cl
	switch cl.opts.WriteProtocol {
	case ClientSync:
		// Both groups are written concurrently; a server failure is
		// tolerated as long as its pair partner took the data (RAID-10
		// degraded mode — redundancy is reduced, availability is not).
		var wg sync.WaitGroup
		var perrs, merrs []error
		wg.Add(2)
		go func() { defer wg.Done(); perrs, _ = writeGroup(ctx, cl.primary, runs, handle, p, plainWrite) }()
		go func() { defer wg.Done(); merrs, _ = writeGroup(ctx, cl.mirror, runs, handle, p, plainWrite) }()
		wg.Wait()
		var deg int64
		for i := range perrs {
			if perrs[i] != nil && merrs[i] != nil {
				return perrs[i]
			}
			if perrs[i] != nil || merrs[i] != nil {
				deg++
			}
		}
		cl.addDegraded(deg)
		return nil
	case ClientAsync:
		perrs, _ := writeGroup(ctx, cl.primary, runs, handle, p, plainWrite)
		// A dead primary degrades to a synchronous write on its mirror
		// partner (the background duplicate below rewrites the same
		// bytes there, which is harmless).
		if err := cl.degradeWrites(ctx, perrs, runs, handle, p); err != nil {
			return err
		}
		dup := append([]byte(nil), p...)
		cl.asyncWG.Add(1)
		go func() {
			defer cl.asyncWG.Done()
			// The mirror duplicate outlives the caller's request
			// context by design (the protocol's weaker guarantee), so
			// it is not bound to ctx.
			_, err := writeGroup(context.Background(), cl.mirror, runs, handle, dup, plainWrite)
			cl.recordAsyncErr(err)
		}()
		return nil
	case ServerSync, ServerAsync:
		// The primary servers forward to their mirror partners. A dead
		// primary degrades to plain writes on its mirror; an alive
		// primary's refusal (forward failure, missing mirror config)
		// still propagates.
		perrs, _ := writeGroup(ctx, cl.primary, runs, handle, p, dupWrite(cl.opts.WriteProtocol == ServerSync))
		return cl.degradeWrites(ctx, perrs, runs, handle, p)
	}
	return fmt.Errorf("ceft: unknown write protocol %v", cl.opts.WriteProtocol)
}

// readGroup executes runs against the preferred server group, honoring
// hot-spot skipping. A server whose list read fails — including by
// exhausting the transport's deadline/retry budget with
// chio.ErrTimeout or chio.ErrServerDown — has its runs re-read from
// its mirror partner, which is CEFT's RAID-10 degraded mode: a dead or
// hung server's data remains available on its mirror, and only that
// server's share of the request is redirected.
func (cl *Client) readGroup(ctx context.Context, preferPrimary bool, handle uint64, runs [][]pvfs.StripeRun, dst []byte) error {
	conns, _ := cl.pickConns(ctx, preferPrimary)
	var failedOver atomic.Int64
	_, err := pvfs.FanOut(runs, func(server int, list []pvfs.StripeRun) error {
		d, partner := conns[server], cl.partner(server, conns[server])
		err := d.ReadRuns(ctx, handle, list, dst)
		if err == nil || ctx.Err() != nil {
			return err
		}
		failedOver.Add(int64(len(list)))
		return partner.ReadRuns(ctx, handle, list, dst)
	})
	cl.addFailovers(failedOver.Load())
	return err
}

// ReadRuns serves the planned read with doubled parallelism and
// hot-spot skipping per the client options. A contiguous (one-segment)
// read is cut in half, the first half fetched from the primary group
// and the second from the mirror group concurrently, so all 2G servers
// work on it; a multi-segment list already fans out to every server
// and is served by the preferred group alone.
func (r replicated) ReadRuns(ctx context.Context, handle uint64, plan pvfs.ReadPlan, dst []byte) error {
	if !r.cl.opts.DoubledReads || len(plan.Lens) != 1 {
		return r.cl.readGroup(ctx, true, handle, plan.Runs, dst)
	}
	first, second := pvfs.SplitRuns(plan.Runs, plan.Lens[0]/2)
	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); err1 = r.cl.readGroup(ctx, true, handle, first, dst) }()
	go func() { defer wg.Done(); err2 = r.cl.readGroup(ctx, false, handle, second, dst) }()
	wg.Wait()
	if err1 != nil {
		return err1
	}
	return err2
}

// Settle completes the configured duplication protocol when a file
// closes: client-async waits for the client's background mirror
// writes; server-async asks every primary server to flush its forward
// queue.
func (r replicated) Settle(ctx context.Context) error {
	switch r.cl.opts.WriteProtocol {
	case ClientAsync:
		r.cl.asyncWG.Wait()
		return r.cl.AsyncErr()
	case ServerAsync:
		var first error
		for _, d := range r.cl.primary {
			if err := d.FlushForwards(ctx); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return nil
}
