package tsdb

import (
	"context"
	"sync"
	"time"

	"pario/internal/telemetry"
)

// InstanceLabel is the label the collector stamps scraped samples with
// (local registry samples carry none): the target's Name, so the same
// metric family from different processes stays distinct.
const InstanceLabel = "instance"

// ScrapeTimeout bounds one target's HTTP collection per tick.
const ScrapeTimeout = 2 * time.Second

// Collector samples metric sources into a Store on a fixed interval:
// the process's own registry (its typed Snapshot) and any number of
// remote /metrics endpoints (the same Sample type, decoded from the
// scrape). After each tick it evaluates the attached rule engine,
// if any. Start launches the loop; Stop halts it and blocks until
// the goroutine has exited, so callers can assert no goroutine leaks.
type Collector struct {
	store    *Store
	interval time.Duration
	registry *telemetry.Registry
	engine   *Engine

	targets []telemetry.Target

	mu   sync.Mutex
	errs map[string]error // last scrape error per target name

	startOnce sync.Once
	stopOnce  sync.Once
	cancel    context.CancelFunc
	done      chan struct{}
}

// CollectorOption configures a Collector.
type CollectorOption func(*Collector)

// WithRegistry samples the process's own registry each tick.
func WithRegistry(reg *telemetry.Registry) CollectorOption {
	return func(c *Collector) { c.registry = reg }
}

// WithTargets adds remote /metrics endpoints to poll each tick.
func WithTargets(targets ...telemetry.Target) CollectorOption {
	return func(c *Collector) { c.targets = append(c.targets, targets...) }
}

// WithEngine evaluates the rule engine after every sampling tick.
func WithEngine(e *Engine) CollectorOption {
	return func(c *Collector) { c.engine = e }
}

// DefaultInterval is the sampling period when none is given.
const DefaultInterval = 2 * time.Second

// NewCollector builds a collector writing into store every interval
// (DefaultInterval if interval <= 0).
func NewCollector(store *Store, interval time.Duration, opts ...CollectorOption) *Collector {
	if interval <= 0 {
		interval = DefaultInterval
	}
	c := &Collector{
		store:    store,
		interval: interval,
		errs:     make(map[string]error),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Store returns the store the collector writes into.
func (c *Collector) Store() *Store { return c.store }

// Engine returns the attached rule engine, or nil.
func (c *Collector) Engine() *Engine { return c.engine }

// TargetErr reports the last scrape error for target name (nil when
// the last scrape succeeded or the target never scraped).
func (c *Collector) TargetErr(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs[name]
}

// Start launches the sampling loop under ctx. The first sample is
// taken immediately, so one interval after Start there are already two
// points per series and rates are answerable. Start is idempotent.
func (c *Collector) Start(ctx context.Context) {
	c.startOnce.Do(func() {
		select {
		case <-c.done:
			// Stopped before ever starting; stay stopped.
			return
		default:
		}
		ctx, c.cancel = context.WithCancel(ctx)
		go func() {
			defer close(c.done)
			ticker := time.NewTicker(c.interval)
			defer ticker.Stop()
			c.CollectOnce(ctx)
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					c.CollectOnce(ctx)
				}
			}
		}()
	})
}

// Stop halts the loop and blocks until the goroutine has exited. Safe
// to call multiple times, and before Start (it then only marks the
// collector stopped).
func (c *Collector) Stop() {
	c.stopOnce.Do(func() {
		if c.cancel == nil {
			close(c.done)
			return
		}
		c.cancel()
	})
	<-c.done
}

// CollectOnce performs one sampling pass: local registry, then every
// target, then a rule-engine evaluation. It is exported so pull-based
// front ends (pariotop) can sample on their own cadence instead of
// running the background loop.
func (c *Collector) CollectOnce(ctx context.Context) {
	now := time.Now()
	if c.registry != nil {
		c.store.Append(now, c.registry.Snapshot(), nil)
	}
	for _, t := range c.targets {
		tctx, cancel := context.WithTimeout(ctx, ScrapeTimeout)
		samples, err := telemetry.FetchMetrics(tctx, t)
		cancel()
		c.mu.Lock()
		if err != nil {
			c.errs[t.Name] = err
		} else {
			delete(c.errs, t.Name)
		}
		c.mu.Unlock()
		if err != nil {
			continue
		}
		c.store.Append(now, samples, map[string]string{InstanceLabel: t.Name})
	}
	if c.engine != nil {
		c.engine.Eval(now)
	}
}
