package pblast

import (
	"context"
	"sync"
	"testing"
	"time"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/mpi"
	"pario/internal/telemetry"
)

func TestLegacyWorkerUnderTracingMaster(t *testing.T) {
	// A tracing master schedules onto a worker rank whose own Config
	// has no tracer — a distributed worker under a tracing master: the
	// search must come back correct, and the master still records its
	// side of the trace (task spans) even though the worker contributes
	// none.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	tr := telemetry.NewTracer(64)
	world, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}))
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() { defer wg.Done(); werr = RunWorker(context.Background(), world.Comm(1), cfg, fs, nil) }()

	ctx, root := tr.Start(context.Background(), "request")
	out, masterErr := searchStream(ctx, world.Comm(0), fs, query, cfg.Apply(WithTracer(tr)))
	root.Finish(nil)
	world.Close()
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	checkFound(t, out)

	var taskSpans, searchSpans int
	for _, sp := range tr.Recent() {
		switch sp.Name {
		case "task":
			taskSpans++
			if sp.TraceID != root.Context().TraceID {
				t.Errorf("task span trace %x, want %x", sp.TraceID, root.Context().TraceID)
			}
		case "search":
			searchSpans++
		}
	}
	if taskSpans != 4 {
		t.Errorf("master recorded %d task spans, want 4", taskSpans)
	}
	if searchSpans != 0 {
		t.Errorf("a worker without a tracer cannot emit search spans, got %d", searchSpans)
	}
}

func TestTracedRunSpanTree(t *testing.T) {
	// An in-process traced run: every task gets a master-side task span
	// parented under the submitting span, and a worker-side search span
	// parented under the task span.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	tr := telemetry.NewTracer(128)
	ctx, root := tr.Start(context.Background(), "request")
	out, err := searchPool(ctx, 2, query, NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}), WithTracer(tr)), fs, sameFS(fs), nil)
	root.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFound(t, out)

	rootSC := root.Context()
	tasks := map[uint64]telemetry.Span{}
	var searches []telemetry.Span
	for _, sp := range tr.Recent() {
		if sp.TraceID != rootSC.TraceID {
			t.Fatalf("span %q on foreign trace %x", sp.Name, sp.TraceID)
		}
		switch sp.Name {
		case "task":
			tasks[sp.SpanID] = sp
		case "search":
			searches = append(searches, sp)
		}
	}
	if len(tasks) != 4 {
		t.Fatalf("distinct task spans = %d, want 4", len(tasks))
	}
	if len(searches) != 4 {
		t.Fatalf("search spans = %d, want 4", len(searches))
	}
	for _, sp := range tasks {
		if sp.Parent != rootSC.SpanID {
			t.Errorf("task span parent %x, want submitting span %x", sp.Parent, rootSC.SpanID)
		}
		if sp.Attrs["task"] == "" {
			t.Errorf("task span missing task attr: %v", sp.Attrs)
		}
	}
	for _, sp := range searches {
		parent, ok := tasks[sp.Parent]
		if !ok {
			t.Errorf("search span parent %x is not a task span", sp.Parent)
			continue
		}
		if sp.Attrs["task"] != parent.Attrs["task"] {
			t.Errorf("search attr %v vs task attr %v", sp.Attrs, parent.Attrs)
		}
		if sp.Server == "" {
			t.Error("search span has no worker attribution")
		}
	}
}

func TestUntracedMasterKeepsWorkerQuiet(t *testing.T) {
	// A new worker with a tracer attached, fed by a master that stamps
	// no trace (no span on the submit context): tasks arrive with zero
	// trace IDs and the worker must record nothing.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	tr := telemetry.NewTracer(64)
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}), WithTracer(tr))
	out, err := searchPool(context.Background(), 2, query, cfg, fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFound(t, out)
	if got := tr.Recent(); len(got) != 0 {
		t.Fatalf("untraced run recorded %d spans: %v", len(got), got)
	}
}

// goneWorkerRun runs a traced search of three fragments in which rank
// 1 takes one task and is gone without sending its result, and rank 2
// runs the rest. It returns the tracer.
func goneWorkerRun(t *testing.T) *telemetry.Tracer {
	t.Helper()
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	tr := telemetry.NewTracer(128)
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig("nt", WithParams(blast.Params{Program: blast.BlastN}), WithTracer(tr))
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(2)
	go func() { defer wg.Done(); errs[1] = crashingWorker(world.Comm(1)) }()
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond) // let rank 1 claim first
		errs[2] = RunWorker(context.Background(), world.Comm(2), cfg, fs, nil)
	}()

	bound, cancel := context.WithTimeout(context.Background(), goneDeadline)
	defer cancel()
	ctx, root := tr.Start(bound, "request")
	res := within(t, bound, goMaster(ctx, world.Comm(0), fs, query, cfg), "master")
	root.Finish(nil)
	world.Close()
	if res.err != nil {
		t.Fatalf("master: %v", res.err)
	}
	within(t, bound, waitDone(&wg), "workers")
	out := res.out
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkFound(t, out)
	if out.Reassigned == 0 {
		t.Fatal("the gone worker's task was not requeued")
	}
	return tr
}

func TestReassignedTaskDuplicateSpans(t *testing.T) {
	// A worker is gone holding a task, which is re-run elsewhere: the
	// master must emit one task span per assignment, sharing the span ID
	// minted at submission, with the abandoned one marked reassigned.
	tr := goneWorkerRun(t)
	bySpanID := map[uint64][]telemetry.Span{}
	for _, sp := range tr.Recent() {
		if sp.Name == "task" {
			bySpanID[sp.SpanID] = append(bySpanID[sp.SpanID], sp)
		}
	}
	var sawDuplicate bool
	for _, group := range bySpanID {
		if len(group) < 2 {
			continue
		}
		sawDuplicate = true
		var reassigned bool
		for _, sp := range group {
			if sp.Err == "reassigned: worker left" {
				reassigned = true
			}
		}
		if !reassigned {
			t.Errorf("duplicate task spans carry no reassignment marker: %v", group)
		}
	}
	if !sawDuplicate {
		t.Error("reassigned task produced no duplicate task spans")
	}
}

func TestWorkerLeaveMidQuerySpan(t *testing.T) {
	// A worker departs while holding an assigned task: the master
	// requeues it and closes that assignment's span with the
	// worker-left marker.
	tr := goneWorkerRun(t)
	var left bool
	for _, sp := range tr.Recent() {
		if sp.Name == "task" && sp.Err == "reassigned: worker left" {
			left = true
			if sp.Server != "worker1" {
				t.Errorf("abandoned span attributed to %q, want worker1", sp.Server)
			}
		}
	}
	if !left {
		t.Error("no task span recorded the departed worker's assignment")
	}
}
