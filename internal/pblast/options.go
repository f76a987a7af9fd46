package pblast

import (
	"time"

	"pario/internal/blast"
	"pario/internal/readahead"
	"pario/internal/telemetry"
)

// Option adjusts one knob of a search Config, in the same
// functional-options style as rpcpool.Dial: callers compose exactly
// the options they care about and every consumer — mpiblast,
// experiments, blastd — builds its configuration the same way.
type Option func(*Config)

// NewConfig builds a search configuration for the named database,
// applying opts in order. It is the supported way to construct a
// Config; direct struct literals are deprecated.
func NewConfig(db string, opts ...Option) Config {
	cfg := Config{DBName: db}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// Apply returns a copy of cfg with opts applied — for layering
// options onto an existing configuration.
func (c Config) Apply(opts ...Option) Config {
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// WithParams sets the full BLAST parameter block.
func WithParams(p blast.Params) Option {
	return func(c *Config) { c.Params = p }
}

// WithThreads sets the per-worker search thread count (the sharded
// scan inside each task).
func WithThreads(n int) Option {
	return func(c *Config) { c.Params.Threads = n }
}

// WithCopyToLocal reproduces the original mpiBLAST behaviour of
// copying each fragment to worker-local scratch before searching.
func WithCopyToLocal(v bool) Option {
	return func(c *Config) { c.CopyToLocal = v }
}

// WithChunkBytes sets the fragment streaming read size (0 = 16 MB).
func WithChunkBytes(n int) Option {
	return func(c *Config) { c.ChunkBytes = n }
}

// WithTaskTimeout enables fault-tolerant scheduling: tasks overdue by
// d are re-handed to another idle worker.
func WithTaskTimeout(d time.Duration) Option {
	return func(c *Config) { c.TaskTimeout = d }
}

// WithTelemetry installs the scheduling telemetry sink: the master
// records task completions and reassignments into it, and each worker
// of the same process its search-pipeline metrics.
func WithTelemetry(t *Telemetry) Option {
	return func(c *Config) { c.tel = t }
}

// WithTracer records the spans of traced submissions into t: the
// master's "task" span per assignment and the worker's "search" span
// per task, whose fragment reads (down to per-server RPCs) join it.
func WithTracer(t *telemetry.Tracer) Option {
	return func(c *Config) { c.tracer = t }
}

// WithReadahead wraps every in-process worker's file system in the
// client-side readahead block cache (raOpts tune block size, capacity
// and prefetch window). Config.WorkerFS applies it: to every worker
// of a Pool, and to a distributed worker rank that stacks its own
// file system the same way.
func WithReadahead(raOpts ...readahead.Option) Option {
	return func(c *Config) {
		c.raEnable = true
		c.raOpts = append(c.raOpts, raOpts...)
	}
}
