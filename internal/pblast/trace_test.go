package pblast

import (
	"bytes"
	"context"
	"encoding/gob"
	"sync"
	"testing"
	"time"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/mpi"
	"pario/internal/seq"
	"pario/internal/telemetry"
)

// legacyTaskMsg is the pre-tracing wire shape of taskMsg, kept here to
// pin the old-worker/new-master gob contract the way the pvfs list-I/O
// tests pin theirs: the trace fields were appended, so decoding either
// direction must succeed and differ only in the trace being absent.
type legacyTaskMsg struct {
	Kind  int
	Sub   int64
	Index int

	Query     seq.Sequence
	Params    blast.Params
	Paths     []string
	DBLetters int64
	DBSeqs    int64
}

func gobRoundTrip(t *testing.T, in, out interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode %T from %T: %v", out, in, err)
	}
}

func TestTaskMsgOldWireInterop(t *testing.T) {
	// New master -> old worker: the trace fields are silently dropped.
	now := taskMsg{
		Kind: taskSearch, Sub: 3, Index: 2,
		Query:     seq.Sequence{ID: "q", Kind: seq.Nucleotide, Data: []byte("ACGT")},
		Paths:     []string{"nt.00.seq"},
		DBLetters: 99, DBSeqs: 4,
		TraceID: 0xfeed, SpanID: 0xbeef,
	}
	var old legacyTaskMsg
	gobRoundTrip(t, &now, &old)
	if old.Sub != 3 || old.Index != 2 || old.Query.ID != "q" || old.DBLetters != 99 {
		t.Fatalf("old worker mis-decoded new task: %+v", old)
	}

	// Old master -> new worker: the trace arrives zero, disabling the
	// span without touching the search fields.
	var back taskMsg
	gobRoundTrip(t, &old, &back)
	if back.TraceID != 0 || back.SpanID != 0 {
		t.Fatalf("legacy task grew a trace: %+v", back)
	}
	if back.Sub != 3 || back.Index != 2 || string(back.Query.Data) != "ACGT" {
		t.Fatalf("new worker mis-decoded legacy task: %+v", back)
	}
}

// legacyWorker is a worker speaking the pre-tracing wire shape: it
// decodes tasks into legacyTaskMsg and never sees the trace fields.
func legacyWorker(c mpi.Comm, fs chio.FileSystem) error {
	if err := c.Send(0, tagHello, nil); err != nil {
		return err
	}
	var j job
	if _, err := mpi.RecvGob(context.Background(), c, 0, tagJob, &j); err != nil {
		return err
	}
	for {
		if err := c.Send(0, tagReady, nil); err != nil {
			return errClosedOK(err)
		}
		var lt legacyTaskMsg
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &lt); err != nil {
			return errClosedOK(err)
		}
		if lt.Kind == taskDone {
			return nil
		}
		tk := taskMsg{
			Kind: lt.Kind, Sub: lt.Sub, Index: lt.Index,
			Query: lt.Query, Params: lt.Params, Paths: lt.Paths,
			DBLetters: lt.DBLetters, DBSeqs: lt.DBSeqs,
		}
		rm := runTask(&j, &tk, fs, nil, nil)
		if err := mpi.SendGob(c, 0, tagResult, rm); err != nil {
			return errClosedOK(err)
		}
	}
}

func errClosedOK(err error) error {
	if errorsIsClosed(err) {
		return nil
	}
	return err
}

func TestLegacyWorkerUnderTracingMaster(t *testing.T) {
	// A tracing master schedules onto a worker that predates the trace
	// fields: the search must come back correct, and the master still
	// records its side of the trace (task spans) even though the worker
	// contributes none.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 4)
	tr := telemetry.NewTracer(64)
	world, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() { defer wg.Done(); werr = legacyWorker(world.Comm(1), fs) }()

	ctx, root := tr.Start(context.Background(), "request")
	out, masterErr := RunMaster(ctx, world.Comm(0), fs, query, NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}), WithTracer(tr)))
	root.Finish(nil)
	world.Close()
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	if werr != nil {
		t.Fatalf("legacy worker: %v", werr)
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
		t.Errorf("legacy worker cannot emit search spans, got %d", searchSpans)
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
	out, err := RunInProcess(ctx, 2, query, NewConfig("nt",
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
	out, err := RunInProcess(context.Background(), 2, query, cfg, fs, sameFS(fs), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFound(t, out)
	if got := tr.Recent(); len(got) != 0 {
		t.Fatalf("untraced run recorded %d spans: %v", len(got), got)
	}
}

func TestReassignedTaskDuplicateSpans(t *testing.T) {
	// A slow worker's task goes overdue and is re-run elsewhere: the
	// master must emit one task span per assignment, sharing the span ID
	// minted at submission, with the abandoned one marked reassigned.
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	tr := telemetry.NewTracer(128)
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	// Rank 1 takes one task and sits on it past the timeout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := world.Comm(1)
		if err := c.Send(0, tagHello, nil); err != nil {
			errs[1] = err
			return
		}
		var j job
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagJob, &j); err != nil {
			errs[1] = err
			return
		}
		if err := c.Send(0, tagReady, nil); err != nil {
			errs[1] = err
			return
		}
		var tk taskMsg
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &tk); err != nil {
			errs[1] = err
			return
		}
		time.Sleep(600 * time.Millisecond) // declared overdue meanwhile
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond) // let the slow rank claim first
		errs[2] = RunWorker(context.Background(), world.Comm(2), fs, nil, WithWorkerTracer(tr))
	}()

	ctx, root := tr.Start(context.Background(), "request")
	out, masterErr := RunMaster(ctx, world.Comm(0), fs, query, NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}),
		WithTaskTimeout(200*time.Millisecond), WithTracer(tr)))
	root.Finish(nil)
	world.Close()
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkFound(t, out)
	if out.Reassigned == 0 {
		t.Fatal("no reassignment happened; the scenario did not trigger")
	}

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
			if sp.Err == "reassigned: overdue" || sp.Err == "reassigned: worker left" {
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
	fs := chio.NewMemFS()
	query := buildTestDB(t, fs, "nt", 3)
	tr := telemetry.NewTracer(128)
	world, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	// Rank 1 accepts one task, then announces departure without a result.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := world.Comm(1)
		if err := c.Send(0, tagHello, nil); err != nil {
			errs[1] = err
			return
		}
		var j job
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagJob, &j); err != nil {
			errs[1] = err
			return
		}
		if err := c.Send(0, tagReady, nil); err != nil {
			errs[1] = err
			return
		}
		var tk taskMsg
		if _, err := mpi.RecvGob(context.Background(), c, 0, tagTask, &tk); err != nil {
			errs[1] = err
			return
		}
		c.Send(0, tagLeave, nil)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond)
		errs[2] = RunWorker(context.Background(), world.Comm(2), fs, nil, WithWorkerTracer(tr))
	}()

	ctx, root := tr.Start(context.Background(), "request")
	out, masterErr := RunMaster(ctx, world.Comm(0), fs, query, NewConfig("nt",
		WithParams(blast.Params{Program: blast.BlastN}), WithTracer(tr)))
	root.Finish(nil)
	world.Close()
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkFound(t, out)
	if out.Reassigned == 0 {
		t.Fatal("departure did not trigger a requeue")
	}
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
