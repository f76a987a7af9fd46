package core

import (
	"flag"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"time"

	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/pvfs"
	"pario/internal/readahead"
	"pario/internal/rpcpool"
	"pario/internal/telemetry"
)

// Store says which of the paper's three file systems a command works
// on and how to reach it: the storage and transport flags every
// command shares, declared, validated and dialed in one place. The
// three configurations differ only in the file system a Store opens.
type Store struct {
	// IO is the mode: "local", "pvfs" or "ceft".
	IO string
	// Root is the shared store directory in local mode.
	Root string
	// Mgr is the metadata server address (pvfs and ceft); Servers,
	// Primary and Mirror are the comma-separated data server lists.
	Mgr, Servers, Primary, Mirror string

	// Timeout, Retries and PoolSize tune every client's transport.
	Timeout  time.Duration
	Retries  int
	PoolSize int
	// HotFactor and MinHotLoad override CEFT's hot-spot thresholds
	// (0 and -1 keep ceft.DefaultOptions).
	HotFactor  float64
	MinHotLoad float64

	// Logger, when set, receives CEFT hot-spot transitions.
	Logger *slog.Logger
}

// NewStore returns the defaults every command starts from: local I/O
// under the current directory, rpcpool's transport policy, CEFT's own
// thresholds. RegisterFlags offers them as the flag defaults.
func NewStore() *Store {
	return &Store{
		IO:         "local",
		Root:       ".",
		Timeout:    rpcpool.DefaultTimeout,
		Retries:    rpcpool.DefaultRetries,
		PoolSize:   rpcpool.DefaultPoolSize,
		MinHotLoad: -1,
	}
}

// FlagGroup selects which of a Store's flags a command offers.
type FlagGroup int

const (
	// AddrFlags: -mgr -servers -primary -mirror.
	AddrFlags FlagGroup = 1 << iota
	// ModeFlags: -io -root.
	ModeFlags
	// TransportFlags: -io-timeout -io-retries -io-pool -hot-factor
	// -min-hot-load.
	TransportFlags
)

// RegisterFlags declares the chosen groups on fs, bound to s.
func (s *Store) RegisterFlags(fs *flag.FlagSet, groups FlagGroup) {
	if groups&ModeFlags != 0 {
		fs.StringVar(&s.IO, "io", s.IO, "file system holding the database: local|pvfs|ceft")
		fs.StringVar(&s.Root, "root", s.Root, "shared store directory (local mode)")
	}
	if groups&AddrFlags != 0 {
		fs.StringVar(&s.Mgr, "mgr", s.Mgr, "metadata server address (pvfs/ceft)")
		fs.StringVar(&s.Servers, "servers", s.Servers, "comma-separated data servers (pvfs)")
		fs.StringVar(&s.Primary, "primary", s.Primary, "comma-separated primary group (ceft)")
		fs.StringVar(&s.Mirror, "mirror", s.Mirror, "comma-separated mirror group (ceft)")
	}
	if groups&TransportFlags != 0 {
		fs.DurationVar(&s.Timeout, "io-timeout", s.Timeout, "per-request parallel-FS deadline")
		fs.IntVar(&s.Retries, "io-retries", s.Retries, "parallel-FS retry budget per request")
		fs.IntVar(&s.PoolSize, "io-pool", s.PoolSize, "parallel-FS connections per server")
		fs.Float64Var(&s.HotFactor, "hot-factor", s.HotFactor, "ceft: a server is hot above this multiple of the median load (0 = default)")
		fs.Float64Var(&s.MinHotLoad, "min-hot-load", s.MinHotLoad, "ceft: absolute load floor below which no server is hot (-1 = default)")
	}
}

// Validate checks the mode and the addresses that mode needs.
func (s *Store) Validate() error {
	switch s.IO {
	case "local":
	case "pvfs":
		if s.Mgr == "" || s.Servers == "" {
			return fmt.Errorf("pvfs mode needs -mgr and -servers")
		}
	case "ceft":
		if s.Mgr == "" || s.Primary == "" || s.Mirror == "" {
			return fmt.Errorf("ceft mode needs -mgr, -primary and -mirror")
		}
	default:
		return fmt.Errorf("unknown -io mode %q", s.IO)
	}
	return nil
}

// Open opens one file system onto the store: the local directory, or
// a newly dialed PVFS or CEFT client whose transport is tuned by s and
// then by topts (metrics, tracer). The returned func releases it.
func (s *Store) Open(topts ...rpcpool.Option) (chio.FileSystem, func() error, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	topts = append([]rpcpool.Option{
		rpcpool.WithTimeout(s.Timeout),
		rpcpool.WithRetries(s.Retries),
		rpcpool.WithPoolSize(s.PoolSize),
	}, topts...)
	switch s.IO {
	case "pvfs":
		cl, err := pvfs.Dial(s.Mgr, strings.Split(s.Servers, ","), topts...)
		if err != nil {
			return nil, nil, err
		}
		return cl, cl.Close, nil
	case "ceft":
		opts := ceft.DefaultOptions()
		if s.HotFactor > 0 {
			opts.HotFactor = s.HotFactor
		}
		if s.MinHotLoad >= 0 {
			opts.MinHotLoad = s.MinHotLoad
		}
		opts.Logger = s.Logger
		cl, err := ceft.Dial(s.Mgr, strings.Split(s.Primary, ","), strings.Split(s.Mirror, ","), opts, topts...)
		if err != nil {
			return nil, nil, err
		}
		return cl, cl.Close, nil
	}
	fs, err := chio.NewLocalFS(s.Root)
	if err != nil {
		return nil, nil, err
	}
	return fs, func() error { return nil }, nil
}

// RankStore hands every rank of a parallel search its own file system
// onto one Store — rank 0 is the master — and owns every client it
// dialed. A rank is opened on first use and keeps its file system, so
// a pool restarting a rank does not dial (and leak) a second client.
// Safe for use by every worker goroutine at once.
type RankStore struct {
	store *Store
	topts []rpcpool.Option

	mu      sync.Mutex
	ranks   map[int]chio.FileSystem
	closers []func() error
	ceft    []*ceft.Client
}

// OpenRanks validates s and returns its per-rank opener; topts are as
// in Open.
func (s *Store) OpenRanks(topts ...rpcpool.Option) (*RankStore, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &RankStore{store: s, topts: topts, ranks: make(map[int]chio.FileSystem)}, nil
}

// FS returns rank's file system, opening it on first use.
func (r *RankStore) FS(rank int) (chio.FileSystem, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fs, ok := r.ranks[rank]; ok {
		return fs, nil
	}
	fs, closeFS, err := r.store.Open(r.topts...)
	if err != nil {
		return nil, err
	}
	r.ranks[rank] = fs
	r.closers = append(r.closers, closeFS)
	if cl, ok := fs.(*ceft.Client); ok {
		r.ceft = append(r.ceft, cl)
	}
	return fs, nil
}

// PerRank adapts a per-rank opener that can fail (RankStore.FS,
// WorkerFlags.ScratchFS) to the factory shape a search takes. A rank
// that cannot be opened goes to fail, which must not return — a
// command's fatal-exit path.
func PerRank(open func(rank int) (chio.FileSystem, error), fail func(error)) func(rank int) chio.FileSystem {
	return func(rank int) chio.FileSystem {
		fs, err := open(rank)
		if err != nil {
			fail(err)
		}
		return fs
	}
}

// CEFTAudits returns the hot-spot audit of every CEFT client opened so
// far (none in the other modes), for the run report.
func (r *RankStore) CEFTAudits() []ceft.Audit {
	r.mu.Lock()
	defer r.mu.Unlock()
	audits := make([]ceft.Audit, len(r.ceft))
	for i, cl := range r.ceft {
		audits[i] = cl.Audit()
	}
	return audits
}

// RegisterDegradedWrites exposes the writes that lost their mirror
// copy, summed over every CEFT client opened so far, on reg — for the
// degraded_writes alert rule and external scrapers. It does nothing in
// the other modes.
func (r *RankStore) RegisterDegradedWrites(reg *telemetry.Registry) {
	if r.store.IO != "ceft" {
		return
	}
	reg.CounterFunc("pario_ceft_degraded_writes_total",
		"Writes that lost their mirror copy, across this process's CEFT clients.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			var total int64
			for _, cl := range r.ceft {
				total += cl.DegradedWrites()
			}
			return float64(total)
		})
}

// Close releases every file system opened so far and reports the
// first failure.
func (r *RankStore) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, closeFS := range r.closers {
		if err := closeFS(); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}

// WorkerFlags are the per-worker tuning flags mpiblast and blastd
// share: search threads, read chunk, copy-to-local scratch, and the
// readahead and collective-read layers of the worker read path.
type WorkerFlags struct {
	Threads int
	Chunk   int
	Scratch string

	Readahead bool
	RABlock   int64
	RACache   int
	RAWindow  int

	Collio       bool
	CollioWindow time.Duration
	CollioFanIn  int
}

// RegisterFlags declares the worker flags on fs, bound to w.
func (w *WorkerFlags) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&w.Threads, "threads", runtime.NumCPU(), "search shards per worker task (1 = sequential engine)")
	fs.IntVar(&w.Chunk, "chunk", 0, "worker read chunk size in bytes (0 = backend default)")
	fs.StringVar(&w.Scratch, "scratch", "", "per-worker scratch directory; enables copy-to-local")

	fs.BoolVar(&w.Readahead, "readahead", false, "enable the client-side readahead/block cache on worker reads")
	fs.Int64Var(&w.RABlock, "ra-block", readahead.DefaultBlockSize, "readahead block size in bytes")
	fs.IntVar(&w.RACache, "ra-cache", readahead.DefaultCapacity, "readahead cache capacity in blocks")
	fs.IntVar(&w.RAWindow, "ra-window", readahead.DefaultWindow, "readahead prefetch depth in blocks (0 disables prefetch)")

	fs.BoolVar(&w.Collio, "collio", false, "enable collective two-phase reads: concurrent worker reads of one file combine into one list-I/O RPC per server per round")
	fs.DurationVar(&w.CollioWindow, "collio-window", collio.DefaultWindow, "collective read round collection window")
	fs.IntVar(&w.CollioFanIn, "collio-fanin", 0, "close a collective round once this many readers enrolled (0 = window/coverage only)")
}

// Options turns the flags into search options — the same list whether
// the workers run in this process or on other machines, so -scratch
// means copy-to-local in both. The collective-read instruments land on
// reg and the readahead counters in stats; either may be nil.
func (w *WorkerFlags) Options(reg *telemetry.Registry, stats *iotrace.CacheStats) []pblast.Option {
	opts := []pblast.Option{
		pblast.WithThreads(w.Threads),
		pblast.WithChunkBytes(w.Chunk),
		pblast.WithCopyToLocal(w.Scratch != ""),
	}
	if w.Readahead {
		opts = append(opts, pblast.WithReadahead(
			readahead.WithBlockSize(w.RABlock),
			readahead.WithCapacity(w.RACache),
			readahead.WithWindow(w.RAWindow),
			readahead.WithStats(stats)))
	}
	if w.Collio {
		opts = append(opts, pblast.WithCollectiveIO(
			collio.WithWindow(w.CollioWindow),
			collio.WithMaxFanIn(w.CollioFanIn),
			collio.WithTelemetry(reg)))
	}
	return opts
}

// ScratchFS opens rank's own directory under -scratch, or returns nil
// when no scratch was given.
func (w *WorkerFlags) ScratchFS(rank int) (chio.FileSystem, error) {
	if w.Scratch == "" {
		return nil, nil
	}
	fs, err := chio.NewLocalFS(fmt.Sprintf("%s/worker%d", w.Scratch, rank))
	if err != nil {
		return nil, err
	}
	return fs, nil
}
