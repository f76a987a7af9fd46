package pblast

import (
	"fmt"
	"time"

	"pario/internal/blast"
	"pario/internal/telemetry"
)

// Telemetry publishes the master's scheduling observations — fragment
// service times, copy times, completions, reassignments, fragment
// affinity — into a metrics registry, so a live /metrics scrape shows
// how evenly the task pool is draining while a search runs. A nil
// *Telemetry records nothing.
type Telemetry struct {
	taskTime    *telemetry.Histogram
	copyTime    *telemetry.Histogram
	tasksDone   *telemetry.Counter
	reassigned  *telemetry.Counter
	affinity    *telemetry.CounterVec
	workerTasks *telemetry.CounterVec
	workerBusy  *telemetry.GaugeVec
	pipe        *blast.PipeMetrics
}

// NewTelemetry registers the scheduling metric families on reg.
func NewTelemetry(reg *telemetry.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	return &Telemetry{
		taskTime: reg.Histogram("pario_pblast_task_seconds",
			"Per-task (one query against one fragment) search service time as reported by workers."),
		copyTime: reg.Histogram("pario_pblast_copy_seconds",
			"Per-task database copy-to-local time as reported by workers."),
		tasksDone: reg.Counter("pario_pblast_tasks_completed_total",
			"Tasks whose results the master has accepted."),
		reassigned: reg.Counter("pario_pblast_tasks_reassigned_total",
			"Overdue tasks re-handed to another worker (fault-tolerant scheduling)."),
		affinity: reg.CounterVec("pario_pblast_task_affinity_total",
			"Task dispatches by the fragment's previous holder: held (this worker searched it last), moved (another worker did), cold (none has).",
			"outcome"),
		workerTasks: reg.CounterVec("pario_pblast_worker_tasks_total",
			"Accepted task results per worker rank — the load-balance view of the task pool.",
			"worker"),
		workerBusy: reg.GaugeVec("pario_pblast_worker_busy_seconds",
			"Cumulative copy+search seconds per worker rank, for straggler analysis.",
			"worker"),
		pipe: blast.NewPipeMetrics(reg),
	}
}

// Pipe returns the search engine's subject-pipeline metrics, which
// every worker running with this sink publishes into. Nil-safe.
func (t *Telemetry) Pipe() *blast.PipeMetrics {
	if t == nil {
		return nil
	}
	return t.pipe
}

// observeTask records one accepted task result from the given worker.
func (t *Telemetry) observeTask(worker int, search, copy time.Duration) {
	if t == nil {
		return
	}
	t.tasksDone.Inc()
	t.taskTime.ObserveDuration(search)
	if copy > 0 {
		t.copyTime.ObserveDuration(copy)
	}
	w := fmt.Sprintf("worker%d", worker)
	t.workerTasks.With(w).Inc()
	t.workerBusy.With(w).Add((search + copy).Seconds())
}

// observeReassign records one task reassignment.
func (t *Telemetry) observeReassign() {
	if t == nil {
		return
	}
	t.reassigned.Inc()
}

// observeAffinity records one dispatch of a fragment: known reports
// whether any worker had searched it before, same whether that worker
// is the one it was just sent to.
func (t *Telemetry) observeAffinity(known, same bool) {
	if t == nil {
		return
	}
	outcome := "cold"
	switch {
	case same:
		outcome = "held"
	case known:
		outcome = "moved"
	}
	t.affinity.With(outcome).Inc()
}
