// Package core is the public façade of the library: one-call
// operations to build BLAST databases, deploy PVFS / CEFT-PVFS
// "clusters" (one process per server, localhost TCP), and run the
// paper's three parallel BLAST configurations — conventional local
// I/O, -over-PVFS and -over-CEFT-PVFS — with optional application-
// level I/O tracing (Figure 4 instrumentation).
package core

import (
	"context"
	"fmt"
	"io"

	"pario/internal/blast"
	"pario/internal/blastdb"
	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/iotrace"
	"pario/internal/pblast"
	"pario/internal/pvfs"
	"pario/internal/rpcpool"
	"pario/internal/seq"
	"pario/internal/workload"
)

// FormatDatabase builds a segmented database from FASTA input onto
// any backend, like formatdb + mpiBLAST's database segmentation.
func FormatDatabase(fs chio.FileSystem, name string, kind seq.Kind, fragments int, fasta io.Reader) (*blastdb.Alias, error) {
	return blastdb.Format(fs, name, kind, fragments, seq.NewFastaReader(fasta, kind))
}

// GenerateDatabase synthesizes an nt-like database of totalLetters
// bases directly onto fs (the stand-in for downloading nt from NCBI).
func GenerateDatabase(fs chio.FileSystem, name string, totalLetters int64, fragments int, seed uint64) (*blastdb.Alias, error) {
	return workload.Build(fs, workload.NtLike(name, totalLetters, seed), fragments)
}

// ExtractQuery draws a query sequence from a database the way the
// paper drew its 568-letter query from ecoli.nt.
func ExtractQuery(fs chio.FileSystem, dbName string, length int, seed uint64) (*seq.Sequence, error) {
	return workload.ExtractQuery(fs, dbName, length, seed)
}

// SerialSearch runs a single-process BLAST search over every fragment
// of the named database through the given backend.
func SerialSearch(fs chio.FileSystem, dbName string, query *seq.Sequence, params blast.Params) (*blast.Result, error) {
	alias, err := blastdb.ReadAlias(fs, dbName)
	if err != nil {
		return nil, err
	}
	frags, err := blastdb.OpenAll(fs, alias)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, fr := range frags {
			fr.Close()
		}
	}()
	sources := make([]blast.SubjectSource, 0, len(frags))
	for _, fr := range frags {
		sources = append(sources, fr.Source(0))
	}
	return blast.Search(query, &blast.ChainSource{Sources: sources}, blast.DBInfo{
		Letters:   alias.Letters,
		Sequences: alias.Seqs,
	}, params)
}

// SearchConfig wires a parallel search into this process: how many
// worker goroutines to run and which file systems each rank sees.
// Everything about the search itself — database, parameters, threads,
// readahead, telemetry — lives in Search, built with pblast.NewConfig
// and its With* options, the same surface mpiblast, experiments and
// blastd consume.
type SearchConfig struct {
	// Search is the search configuration (pblast.NewConfig + options:
	// WithParams, WithThreads, WithReadahead, WithTelemetry, ...).
	Search pblast.Config
	// Workers is the number of BLAST workers (ranks 1..Workers).
	Workers int
	// MasterFS is the master's view of the shared store.
	MasterFS chio.FileSystem
	// WorkerFS returns each worker's view of the shared store.
	WorkerFS func(rank int) chio.FileSystem
	// Scratch returns each worker's local scratch (required when the
	// search copies fragments to local disks).
	Scratch func(rank int) chio.FileSystem
	// Trace, when non-nil, records every worker's application-level
	// I/O (Figure 4 instrumentation).
	Trace *iotrace.Trace
}

// wrapWorkerFS applies SearchConfig's own wrapper, the Figure 4 I/O
// trace, to every worker's view of the shared store and of its
// scratch. The readahead layer the search configuration asks for is
// stacked above it by the pblast pool.
func wrapWorkerFS(cfg SearchConfig) (workerFS, scratch func(int) chio.FileSystem, err error) {
	if cfg.MasterFS == nil || cfg.WorkerFS == nil {
		return nil, nil, fmt.Errorf("core: SearchConfig needs MasterFS and WorkerFS")
	}
	if cfg.Trace == nil {
		return cfg.WorkerFS, cfg.Scratch, nil
	}
	traced := func(inner func(int) chio.FileSystem) func(int) chio.FileSystem {
		if inner == nil {
			return nil
		}
		return func(rank int) chio.FileSystem {
			fs := inner(rank)
			if fs == nil {
				return nil
			}
			return iotrace.Wrap(fs, cfg.Trace, fmt.Sprintf("worker%d", rank))
		}
	}
	return traced(cfg.WorkerFS), traced(cfg.Scratch), nil
}

// OpenPool stands the configured search up in this process — cfg.Workers
// workers over cfg's file systems — and leaves it open for any number
// of Submit calls, concurrent or not; the caller closes it.
func OpenPool(ctx context.Context, cfg SearchConfig) (*pblast.Pool, error) {
	workerFS, scratch, err := wrapWorkerFS(cfg)
	if err != nil {
		return nil, err
	}
	pool, err := pblast.NewPool(ctx, cfg.Search, cfg.Workers, workerFS, scratch)
	if err != nil {
		return nil, err
	}
	pool.Resize(cfg.Workers)
	return pool, nil
}

// ParallelSearch runs the master/worker parallel BLAST in-process: one
// pool opened, one query submitted, the pool closed again. Cancelling
// ctx aborts the search, including in-flight parallel-FS I/O when the
// backends support chio.ContextBinder.
func ParallelSearch(ctx context.Context, query *seq.Sequence, cfg SearchConfig) (*pblast.Outcome, error) {
	workerFS, scratch, err := wrapWorkerFS(cfg)
	if err != nil {
		return nil, err
	}
	return pblast.RunInProcess(ctx, cfg.Workers, query, cfg.Search, cfg.MasterFS, workerFS, scratch)
}

// PVFSDeployment is a running single-machine PVFS: one metadata
// server plus N data servers on localhost TCP, with storage on the
// provided backends.
type PVFSDeployment struct {
	Mgr       *pvfs.MetaServer
	Data      []*pvfs.DataServer
	DataAddrs []string
}

// StartPVFS deploys PVFS with n data servers. store(i) supplies each
// data server's backing storage (nil means in-memory).
func StartPVFS(n int, store func(i int) chio.FileSystem) (*PVFSDeployment, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least 1 data server")
	}
	mgr, err := pvfs.StartMetaServer(pvfs.MetaConfig{Addr: "127.0.0.1:0", NumServers: n})
	if err != nil {
		return nil, err
	}
	d := &PVFSDeployment{Mgr: mgr}
	for i := 0; i < n; i++ {
		var st chio.FileSystem
		if store != nil {
			st = store(i)
		}
		if st == nil {
			st = chio.NewMemFS()
		}
		ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{
			ID:      i,
			Addr:    "127.0.0.1:0",
			Store:   st,
			MgrAddr: mgr.Addr(),
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.Data = append(d.Data, ds)
		d.DataAddrs = append(d.DataAddrs, ds.Addr())
	}
	return d, nil
}

// Client dials a new PVFS client onto the deployment. opts tune the
// transport (pool size, timeout, retries, stripe size).
func (d *PVFSDeployment) Client(opts ...rpcpool.Option) (*pvfs.Client, error) {
	return pvfs.Dial(d.Mgr.Addr(), d.DataAddrs, opts...)
}

// Close stops every server.
func (d *PVFSDeployment) Close() error {
	var first error
	for _, ds := range d.Data {
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.Mgr != nil {
		if err := d.Mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CEFTDeployment is a running CEFT-PVFS: metadata server plus G
// primary and G mirror data servers.
type CEFTDeployment struct {
	Mgr          *pvfs.MetaServer
	Servers      []*pvfs.DataServer
	PrimaryAddrs []string
	MirrorAddrs  []string
}

// StartCEFT deploys CEFT-PVFS with g servers per group. store(i)
// supplies backing storage for server i (IDs 0..g-1 primary,
// g..2g-1 mirror; nil means in-memory).
func StartCEFT(g int, store func(i int) chio.FileSystem) (*CEFTDeployment, error) {
	if g < 1 {
		return nil, fmt.Errorf("core: need at least 1 server per group")
	}
	mgr, err := pvfs.StartMetaServer(pvfs.MetaConfig{Addr: "127.0.0.1:0", NumServers: g})
	if err != nil {
		return nil, err
	}
	d := &CEFTDeployment{Mgr: mgr}
	storeFor := func(i int) chio.FileSystem {
		var st chio.FileSystem
		if store != nil {
			st = store(i)
		}
		if st == nil {
			st = chio.NewMemFS()
		}
		return st
	}
	// Start the mirror group first so primaries can be configured
	// with their partner's address (required by the server-side
	// duplication protocols).
	mirrors := make([]*pvfs.DataServer, g)
	for i := 0; i < g; i++ {
		ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{
			ID:      g + i,
			Addr:    "127.0.0.1:0",
			Store:   storeFor(g + i),
			MgrAddr: mgr.Addr(),
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		mirrors[i] = ds
		d.MirrorAddrs = append(d.MirrorAddrs, ds.Addr())
	}
	for i := 0; i < g; i++ {
		ds, err := pvfs.StartDataServer(pvfs.DataServerConfig{
			ID:         i,
			Addr:       "127.0.0.1:0",
			Store:      storeFor(i),
			MgrAddr:    mgr.Addr(),
			MirrorAddr: mirrors[i].Addr(),
		})
		if err != nil {
			for _, m := range mirrors {
				if m != nil {
					m.Close()
				}
			}
			d.Close()
			return nil, err
		}
		d.Servers = append(d.Servers, ds)
		d.PrimaryAddrs = append(d.PrimaryAddrs, ds.Addr())
	}
	d.Servers = append(d.Servers, mirrors...)
	return d, nil
}

// Client dials a new CEFT client onto the deployment. o carries the
// replication options; topts tune the shared transport.
func (d *CEFTDeployment) Client(o ceft.Options, topts ...rpcpool.Option) (*ceft.Client, error) {
	return ceft.Dial(d.Mgr.Addr(), d.PrimaryAddrs, d.MirrorAddrs, o, topts...)
}

// Close stops every server.
func (d *CEFTDeployment) Close() error {
	var first error
	for _, ds := range d.Servers {
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.Mgr != nil {
		if err := d.Mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
