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
// The client is pvfs.Client over a replicating pvfs.Store: PVFS's
// files, striping plan and chio.FileSystem, with this package deciding
// only which member of each mirror pair executes a plan. Transport
// behavior (connection pooling, per-request deadlines, retries) comes
// from the shared rpcpool options; a sub-read that times out or finds
// its server down falls back to the mirror partner, so one hung server
// degrades a read's latency by at most the configured deadline instead
// of hanging it.
package ceft

import (
	"context"
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
	// Logger, when non-nil, receives structured hot-spot transition
	// events (server marked hot / cooled down) with trace correlation.
	Logger *slog.Logger
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{
		DoubledReads: true,
		SkipHotSpots: true,
		HotFactor:    4.0,
		MinHotLoad:   0.75,
		LoadCacheTTL: 250 * time.Millisecond,
	}
}

// Client is a CEFT-PVFS client over one metadata server, G primary
// data servers and G mirror data servers. Data server IDs are
// 0..G-1 (primary) and G..2G-1 (mirror): the mirror partner of
// primary server i is server G+i. The embedded pvfs.Client supplies
// the file system; Client adds CEFT's audit and fault counters.
type Client struct {
	*pvfs.Client
	opts  Options
	meta  *pvfs.MetaConn   // the embedded client's, for load queries
	conns []*pvfs.DataConn // indexed by server ID

	loadMu      sync.Mutex
	loadFetched time.Time
	hotPrimary  []bool
	hotMirror   []bool
	hotEvents   []HotEvent
	reroutes    map[int]int64

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
	a := Audit{GroupSize: cl.GroupSize()}
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
	if chosen == cl.conns[i] {
		return cl.conns[cl.GroupSize()+i]
	}
	return cl.conns[i]
}

// pairRule applies RAID-10's rule to one error slot per server: an
// operation fails only where both members of a mirror pair failed, and
// every pair that lost one member counts as a degraded write.
func (cl *Client) pairRule(errs []error) error {
	g := cl.GroupSize()
	var deg int64
	for i := 0; i < g; i++ {
		if errs[i] != nil && errs[g+i] != nil {
			return errs[i]
		}
		if errs[i] != nil || errs[g+i] != nil {
			deg++
		}
	}
	cl.addDegraded(deg)
	return nil
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
	g := len(primaryAddrs)
	cl := &Client{opts: o, meta: meta}
	for _, a := range append(primaryAddrs[:g:g], mirrorAddrs...) {
		cl.conns = append(cl.conns, pvfs.DialDataLazy(a, opts...))
	}
	// The root-span tracer is the one the transports share via
	// rpcpool.WithTracer, so application reads and the RPC spans they
	// fan out into land in the same buffer.
	cl.Client = pvfs.NewClient(meta, replicated{cl}, rpcpool.Apply(opts...).Tracer)
	// Probe every data server in parallel, but only require one live
	// member per mirror pair: a degraded cluster must stay dialable
	// (reads fail over to the surviving partner).
	alive := make([]bool, 2*g)
	var wg sync.WaitGroup
	for i, d := range cl.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := d.Ping(context.Background())
			alive[i] = err == nil
		}()
	}
	wg.Wait()
	for i := 0; i < g; i++ {
		if !alive[i] && !alive[g+i] {
			cl.Close()
			return nil, fmt.Errorf("ceft: mirror pair %d unreachable (primary %s, mirror %s): %w",
				i, primaryAddrs[i], mirrorAddrs[i], chio.ErrServerDown)
		}
	}
	cl.hotPrimary = make([]bool, g)
	cl.hotMirror = make([]bool, g)
	cl.reroutes = make(map[int]int64)
	return cl, nil
}

// GroupSize returns the number of servers per group.
func (cl *Client) GroupSize() int { return len(cl.conns) / 2 }

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
	g := cl.GroupSize()
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
	g := cl.GroupSize()
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
			conns[i] = cl.conns[i]
		} else {
			conns[i] = cl.conns[g+i]
		}
	}
	return conns, skipped
}

// replicated is the CEFT client's pvfs.Store: the striping plan is
// PVFS's, and this type only decides which member of each mirror pair
// executes it — both for a write, the preferred (or cooler, or
// surviving) one for a read.
type replicated struct{ cl *Client }

func (r replicated) BackendName() string { return "ceft-pvfs" }

func (r replicated) NumServers() int { return r.cl.GroupSize() }

// WriteRuns duplicates the planned write onto both groups (RAID-10):
// one list-write RPC per server, all 2G at once. A server failure is
// tolerated as long as its pair partner took the data (degraded mode —
// redundancy is reduced, availability is not).
func (r replicated) WriteRuns(ctx context.Context, handle uint64, runs [][]pvfs.StripeRun, p []byte) error {
	g := r.cl.GroupSize()
	errs, _ := pvfs.FanOut(append(runs[:g:g], runs...), func(i int, list []pvfs.StripeRun) error {
		return r.cl.conns[i].WriteRuns(ctx, handle, list, p)
	})
	return r.cl.pairRule(errs)
}

// RemovePieces clears the piece set on both groups. A pair counts as
// cleared when either member was: on a degraded cluster the dead member
// holds no piece to go stale (it must be resynced before rejoining
// anyway), and the one-sided clear counts as a degraded write.
func (r replicated) RemovePieces(ctx context.Context, handle uint64) error {
	return r.cl.pairRule(pvfs.RemoveEach(ctx, r.cl.conns, handle))
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

// Close drops both groups' connections.
func (r replicated) Close() error {
	var first error
	for _, d := range r.cl.conns {
		if err := d.Close(); first == nil {
			first = err
		}
	}
	return first
}
