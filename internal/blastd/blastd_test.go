package blastd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pario/internal/blast"
	"pario/internal/chio"
	"pario/internal/core"
	"pario/internal/pblast"
	"pario/internal/seq"
)

// ---- result cache ----

func testKey(id string) cacheKey {
	q := seq.Sequence{ID: id, Kind: seq.Nucleotide, Data: []byte("ACGTACGT" + id)}
	return makeCacheKey(q, "nt", "v1", blast.Params{Program: blast.BlastN})
}

func TestCacheHitMiss(t *testing.T) {
	c := newResultCache(8)
	var calls atomic.Int64
	fn := func() (*blast.Result, error) {
		calls.Add(1)
		return &blast.Result{QueryID: "q"}, nil
	}
	res, status, err := c.Do(context.Background(), testKey("a"), fn)
	if err != nil || status != cacheMiss || res == nil {
		t.Fatalf("first Do: res=%v status=%v err=%v", res, status, err)
	}
	res, status, err = c.Do(context.Background(), testKey("a"), fn)
	if err != nil || status != cacheHit || res == nil {
		t.Fatalf("second Do: res=%v status=%v err=%v", res, status, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("backend ran %d times, want 1", calls.Load())
	}
	if _, status, _ = c.Do(context.Background(), testKey("b"), fn); status != cacheMiss {
		t.Fatal("different key reported cached")
	}
	if calls.Load() != 2 {
		t.Fatalf("backend ran %d times, want 2", calls.Load())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newResultCache(8)
	var calls atomic.Int64
	gate := make(chan struct{})
	fn := func() (*blast.Result, error) {
		calls.Add(1)
		<-gate
		return &blast.Result{QueryID: "q"}, nil
	}
	key := testKey("sf")
	const n = 8
	var wg sync.WaitGroup
	results := make([]*blast.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.Do(context.Background(), key, fn)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = res
		}(i)
	}
	// Let the callers pile onto the flight, then open the gate.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("backend ran %d times under contention, want 1", calls.Load())
	}
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newResultCache(8)
	var calls atomic.Int64
	boom := errors.New("boom")
	fn := func() (*blast.Result, error) { calls.Add(1); return nil, boom }
	if _, _, err := c.Do(context.Background(), testKey("e"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.Do(context.Background(), testKey("e"), fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("failed result was cached (calls=%d)", calls.Load())
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	fn := func() (*blast.Result, error) { return &blast.Result{}, nil }
	for _, id := range []string{"a", "b", "c"} {
		c.Do(context.Background(), testKey(id), fn)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if _, status, _ := c.Do(context.Background(), testKey("a"), fn); status != cacheMiss {
		t.Fatal("oldest entry survived eviction")
	}
}

func TestCacheVersionBumpAndInvalidate(t *testing.T) {
	c := newResultCache(8)
	var calls atomic.Int64
	fn := func() (*blast.Result, error) { calls.Add(1); return &blast.Result{}, nil }
	q := seq.Sequence{ID: "q", Kind: seq.Nucleotide, Data: []byte("ACGT")}
	p := blast.Params{Program: blast.BlastN}

	v1 := makeCacheKey(q, "nt", "v1", p)
	c.Do(context.Background(), v1, fn)
	if _, status, _ := c.Do(context.Background(), v1, fn); status != cacheHit {
		t.Fatal("same version should hit")
	}
	// A database-version bump changes the key: stale entries are
	// never consulted, even before invalidation runs.
	v2 := makeCacheKey(q, "nt", "v2", p)
	if _, status, _ := c.Do(context.Background(), v2, fn); status != cacheMiss {
		t.Fatal("bumped version should miss")
	}
	other := makeCacheKey(q, "est", "v1", p)
	c.Do(context.Background(), other, fn)

	if n := c.InvalidateDB("nt"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, status, _ := c.Do(context.Background(), other, fn); status != cacheHit {
		t.Fatal("invalidation of nt touched est")
	}
	if _, status, _ := c.Do(context.Background(), v1, fn); status != cacheMiss {
		t.Fatal("invalidated entry still served")
	}
}

// ---- admission queue ----

func TestQueueQuotaRejection(t *testing.T) {
	q := newAdmitQueue(16, 2, 1)
	release1, err := q.Admit(context.Background(), "alice", 0)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	done := make(chan func(), 1)
	go func() {
		r, err := q.Admit(context.Background(), "alice", 0)
		if err != nil {
			t.Errorf("second admit: %v", err)
		}
		done <- r
	}()
	waitFor(t, func() bool { return q.Depth() == 1 })

	if _, err := q.Admit(context.Background(), "alice", 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third admit err = %v, want ErrQuotaExceeded", err)
	}
	// Another client is unaffected by alice's quota.
	go func() {
		r, err := q.Admit(context.Background(), "bob", 0)
		if err != nil {
			t.Errorf("bob admit: %v", err)
			return
		}
		r()
	}()
	waitFor(t, func() bool { return q.Depth() == 2 })

	release1()
	release2 := <-done
	release2()
	waitFor(t, func() bool { return q.Depth() == 0 && q.Running() == 0 })
}

func TestQueuePriorityOrdering(t *testing.T) {
	q := newAdmitQueue(16, 0, 1)
	blocker, err := q.Admit(context.Background(), "blocker", 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, prio := range []int{1, 5, 3} {
		wg.Add(1)
		go func(prio int) {
			defer wg.Done()
			release, err := q.Admit(context.Background(), fmt.Sprintf("c%d", prio), prio)
			if err != nil {
				t.Errorf("admit p%d: %v", prio, err)
				return
			}
			mu.Lock()
			order = append(order, prio)
			mu.Unlock()
			release()
		}(prio)
		// Enqueue one at a time so arrival order is deterministic.
		depth := i + 1
		waitFor(t, func() bool { return q.Depth() == depth })
	}
	blocker()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != "[5 3 1]" {
		t.Fatalf("grant order = %v, want [5 3 1]", order)
	}
}

func TestQueueOverload(t *testing.T) {
	q := newAdmitQueue(1, 0, 1)
	release, err := q.Admit(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		r, err := q.Admit(context.Background(), "b", 0)
		if err == nil {
			r()
		}
	}()
	waitFor(t, func() bool { return q.Depth() == 1 })
	if _, err := q.Admit(context.Background(), "c", 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	release()
}

func TestQueueDrainCompletesInflight(t *testing.T) {
	q := newAdmitQueue(16, 0, 1)
	running, err := q.Admit(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	var queuedDone atomic.Bool
	go func() {
		release, err := q.Admit(context.Background(), "b", 0)
		if err != nil {
			t.Errorf("queued admit: %v", err)
			return
		}
		queuedDone.Store(true)
		release()
	}()
	waitFor(t, func() bool { return q.Depth() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- q.Drain(ctx)
	}()
	// New arrivals are rejected while the drain waits.
	waitForDraining(t, q)
	if _, err := q.Admit(context.Background(), "c", 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit during drain err = %v, want ErrDraining", err)
	}

	running()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !queuedDone.Load() {
		t.Fatal("drain returned before the queued request completed")
	}
}

func TestQueueCancelWhileQueued(t *testing.T) {
	q := newAdmitQueue(16, 0, 1)
	release, err := q.Admit(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Admit(ctx, "b", 0)
		errc <- err
	}()
	waitFor(t, func() bool { return q.Depth() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return q.Depth() == 0 })
	release()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForDraining(t *testing.T, q *admitQueue) {
	t.Helper()
	waitFor(t, func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.draining
	})
}

// ---- server end to end ----

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, chio.FileSystem, *seq.Sequence) {
	t.Helper()
	fs := chio.NewMemFS()
	if _, err := core.GenerateDatabase(fs, "nt", 1<<20, 4, 42); err != nil {
		t.Fatal(err)
	}
	query, err := core.ExtractQuery(fs, "nt", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FS:            fs,
		WorkerFS:      func(int) chio.FileSystem { return fs },
		Workers:       2,
		MaxConcurrent: 2,
		Search:        pblast.NewConfig("nt"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, fs, query
}

func TestServerSearchAndCache(t *testing.T) {
	srv, _, query := newTestServer(t, nil)
	req := &SearchRequest{DB: "nt", Query: ">" + query.ID + "\n" + string(query.Data), Client: "t"}

	resp, err := srv.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if resp.NumHits == 0 {
		t.Fatal("expected hits for a query extracted from the database")
	}
	if resp.Cached {
		t.Fatal("first search reported cached")
	}
	if resp.DBVersion == "" {
		t.Fatal("missing db version")
	}

	again, err := srv.Search(context.Background(), req)
	if err != nil {
		t.Fatalf("repeat search: %v", err)
	}
	if !again.Cached {
		t.Fatal("repeat search missed the cache")
	}
	if again.NumHits != resp.NumHits {
		t.Fatalf("cached hits %d != original %d", again.NumHits, resp.NumHits)
	}

	// A bare sequence (no FASTA header) is accepted too.
	raw := &SearchRequest{DB: "nt", Query: string(query.Data), Client: "t"}
	if _, err := srv.Search(context.Background(), raw); err != nil {
		t.Fatalf("raw query: %v", err)
	}
}

// A search over a one-fragment database has exactly one task, so task 0
// is its straggler, and the flight entry must say so in JSON rather
// than drop the key as if no task had run.
func TestFlightEntryNamesStragglerTaskZero(t *testing.T) {
	srv, fs, _ := newTestServer(t, nil)
	if _, err := core.GenerateDatabase(fs, "one", 1<<18, 1, 42); err != nil {
		t.Fatal(err)
	}
	query, err := core.ExtractQuery(fs, "one", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Search(context.Background(), &SearchRequest{DB: "one", Query: string(query.Data)}); err != nil {
		t.Fatal(err)
	}
	recent := srv.flight.Recent()
	if len(recent) != 1 || recent[0].Tasks != 1 {
		t.Fatalf("flight recorder = %+v, want one entry with one task", recent)
	}
	b, err := json.Marshal(recent[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"straggler_task":0`) {
		t.Errorf("flight entry %s lacks \"straggler_task\":0", b)
	}
}

func TestServerErrorContract(t *testing.T) {
	srv, _, query := newTestServer(t, nil)
	cases := []struct {
		name string
		req  *SearchRequest
		want error
	}{
		{"empty query", &SearchRequest{DB: "nt"}, ErrBadQuery},
		{"bad program", &SearchRequest{DB: "nt", Query: "ACGT", Program: "blastz"}, ErrBadQuery},
		{"blastp", &SearchRequest{DB: "nt", Query: string(query.Data), Program: "blastp"}, ErrBadQuery},
		{"tblastx", &SearchRequest{DB: "nt", Query: string(query.Data), Program: "tblastx"}, ErrBadQuery},
		{"blastn", &SearchRequest{DB: "nt", Query: string(query.Data), Program: "blastn"}, nil},
		{"negative evalue", &SearchRequest{DB: "nt", Query: string(query.Data), EValue: -1}, ErrBadQuery},
		{"unknown db", &SearchRequest{DB: "nope", Query: string(query.Data)}, ErrDBNotFound},
		{"bare query with a digit", &SearchRequest{DB: "nt", Query: "ACGT1234ACGT"}, ErrBadQuery},
		{"fasta query with a digit", &SearchRequest{DB: "nt", Query: ">q\nACGT1234ACGT\n"}, ErrBadQuery},
	}
	for _, tc := range cases {
		if _, err := srv.Search(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestServerInvalidateDB(t *testing.T) {
	srv, fs, query := newTestServer(t, nil)
	req := &SearchRequest{DB: "nt", Query: string(query.Data), Client: "t"}
	first, err := srv.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Reformat the database in place: more fragments, new alias bytes.
	if _, err := core.GenerateDatabase(fs, "nt", 1<<20, 8, 43); err != nil {
		t.Fatal(err)
	}
	version, n, err := srv.InvalidateDB("nt")
	if err != nil {
		t.Fatal(err)
	}
	if version == first.DBVersion {
		t.Fatal("version did not change after reformat")
	}
	if n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	resp, err := srv.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("search after invalidation served a stale result")
	}
	if resp.DBVersion != version {
		t.Fatalf("search used version %s, want %s", resp.DBVersion, version)
	}
}

func TestServerHTTP(t *testing.T) {
	srv, _, query := newTestServer(t, func(cfg *Config) {
		cfg.DBs = []string{"nt"}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	body, _ := json.Marshal(SearchRequest{DB: "nt", Query: string(query.Data), Client: "http"})
	resp, out := post(string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var sr SearchResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.NumHits == 0 {
		t.Fatal("no hits over HTTP")
	}

	resp, _ = post(`{"db":"missing","query":"ACGT"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown db status = %d, want 404", resp.StatusCode)
	}
	resp, _ = post(`{"db":"nt"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty query status = %d, want 400", resp.StatusCode)
	}
	resp, out = post(`{"db":"nt","query":"ACGTACGT","program":"blastx"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "only blastn") {
		t.Fatalf("blastx: status %d body %q, want 400 naming blastn as the only program", resp.StatusCode, out)
	}

	// Metrics endpoint shows cache and queue families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mbody)
	for _, want := range []string{
		"pario_blastd_queue_depth", "pario_blastd_cache_hits_total",
		"pario_blastd_requests_total", "pario_blastd_workers",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hresp.StatusCode)
	}
}

func TestServerDrain(t *testing.T) {
	srv, _, query := newTestServer(t, nil)
	req := &SearchRequest{DB: "nt", Query: string(query.Data), Client: "t"}
	if _, err := srv.Search(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("server not marked draining")
	}
	if _, err := srv.Search(context.Background(), req); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain search err = %v, want ErrDraining", err)
	}
}

func TestServerPoolResize(t *testing.T) {
	srv, _, query := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.MaxWorkers = 3
	})
	req := &SearchRequest{DB: "nt", Query: string(query.Data), Client: "t"}
	if _, err := srv.Search(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	srv.Pool().Resize(3)
	if n := srv.Pool().Size(); n != 3 {
		t.Fatalf("pool size after grow = %d, want 3", n)
	}
	req2 := &SearchRequest{DB: "nt", Query: string(query.Data[:200]), Client: "t"}
	if _, err := srv.Search(context.Background(), req2); err != nil {
		t.Fatalf("search after grow: %v", err)
	}
	srv.Pool().Resize(1)
	if n := srv.Pool().Size(); n != 1 {
		t.Fatalf("pool size after shrink = %d, want 1", n)
	}
	req3 := &SearchRequest{DB: "nt", Query: string(query.Data[:300]), Client: "t"}
	if _, err := srv.Search(context.Background(), req3); err != nil {
		t.Fatalf("search after shrink: %v", err)
	}
}
