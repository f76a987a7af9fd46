// Command blastbench load-tests a running blastd: closed-loop clients
// (each sends a request, waits for the reply, sends the next) drawn
// from a deterministic query pool, swept over increasing client
// counts. Per level it records throughput, latency percentiles, the
// cache hit fraction and the server-side admission metrics, and
// writes the whole sweep as JSON.
//
// Example:
//
//	blastbench -url http://127.0.0.1:7044 -db nt \
//	    -clients 1,2,4,8 -duration 10s -out BENCH_pr6.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:7044", "blastd base URL")
		db       = flag.String("db", "nt", "database to search")
		clientsF = flag.String("clients", "1,2,4,8", "comma-separated closed-loop client counts to sweep")
		duration = flag.Duration("duration", 10*time.Second, "measurement window per client count")
		nQueries = flag.Int("queries", 16, "distinct queries in the pool (repeats exercise the cache)")
		qlen     = flag.Int("qlen", 240, "base query length (pool spans 0.5x-2x)")
		fresh    = flag.Float64("fresh", 0.25, "fraction of requests using a never-before-seen query (forces backend searches)")
		seed     = flag.Int64("seed", 42, "query generator seed")
		out      = flag.String("out", "", "write the sweep as JSON to this file (empty = stdout only)")
	)
	flag.Parse()

	levels, err := parseLevels(*clientsF)
	if err != nil {
		fatal(err)
	}
	pool := makeQueryPool(*nQueries, *qlen, *seed)

	// Fail fast if the server or the database is missing.
	if err := probe(*url, *db, pool[0]); err != nil {
		fatal(fmt.Errorf("probe request failed: %w", err))
	}

	sweep := Sweep{
		Bench:     "blastd_service",
		URL:       *url,
		DB:        *db,
		Queries:   *nQueries,
		QueryLen:  *qlen,
		Fresh:     *fresh,
		Duration:  duration.String(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, n := range levels {
		lv := runLevel(*url, *db, pool, n, *duration, *fresh, *qlen)
		sweep.Levels = append(sweep.Levels, lv)
		fmt.Printf("clients=%-3d rps=%7.1f p50=%6.1fms p90=%6.1fms p99=%6.1fms cached=%4.0f%% failed=%d\n",
			n, lv.RPS, lv.Latency.P50, lv.Latency.P90, lv.Latency.P99,
			lv.CacheHitRate*100, lv.Failed)
	}

	blob, err := json.MarshalIndent(sweep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		fmt.Println(string(blob))
	}
}

// Sweep is the JSON artifact: one Level per client count.
type Sweep struct {
	Bench     string  `json:"bench"`
	URL       string  `json:"url"`
	DB        string  `json:"db"`
	Queries   int     `json:"queries"`
	QueryLen  int     `json:"query_len"`
	Fresh     float64 `json:"fresh_fraction"`
	Duration  string  `json:"duration"`
	Timestamp string  `json:"timestamp"`
	Levels    []Level `json:"levels"`
}

type Level struct {
	Clients      int      `json:"clients"`
	Requests     int      `json:"requests"`
	Failed       int      `json:"failed"`
	RPS          float64  `json:"rps"`
	Latency      Quantile `json:"latency_ms"`
	Cached       int      `json:"cached"`
	CacheHitRate float64  `json:"cache_hit_rate"`

	// Scraped from the server's /metrics after the level.
	QueueDepthPeak float64 `json:"queue_depth_peak"`
	Rejected       float64 `json:"rejected_total"`
	TimeInQueueP99 float64 `json:"time_in_queue_p99_ms,omitempty"`
}

type Quantile struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

type sample struct {
	ms     float64
	cached bool
	err    bool
}

func runLevel(url, db string, pool []string, clients int, d time.Duration, fresh float64, qlen int) Level {
	var (
		mu      sync.Mutex
		samples []sample
	)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(clients)*1_000_003 + int64(c)*7919 + 1))
			client := fmt.Sprintf("bench-%d", c)
			for time.Now().Before(deadline) {
				q := pool[rng.Intn(len(pool))]
				if rng.Float64() < fresh {
					// A query the server has never seen: misses the
					// cache and occupies a real execution slot.
					q = randomQuery(rng, fmt.Sprintf("fresh%d-%d", clients, c), qlen)
				}
				start := time.Now()
				cached, err := search(url, db, client, q)
				s := sample{ms: float64(time.Since(start).Microseconds()) / 1000,
					cached: cached, err: err != nil}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	lv := Level{Clients: clients, Requests: len(samples)}
	var lats []float64
	var sum float64
	for _, s := range samples {
		if s.err {
			lv.Failed++
			continue
		}
		if s.cached {
			lv.Cached++
		}
		lats = append(lats, s.ms)
		sum += s.ms
	}
	sort.Float64s(lats)
	if n := len(lats); n > 0 {
		pct := func(p int) float64 {
			i := n * p / 100
			if i >= n {
				i = n - 1
			}
			return lats[i]
		}
		lv.RPS = float64(n) / d.Seconds()
		lv.Latency = Quantile{
			Mean: sum / float64(n),
			P50:  pct(50),
			P90:  pct(90),
			P99:  pct(99),
			Max:  lats[n-1],
		}
		lv.CacheHitRate = float64(lv.Cached) / float64(n)
	}

	if m, err := scrapeMetrics(url); err == nil {
		lv.QueueDepthPeak = m["pario_blastd_queue_depth_peak"]
		lv.Rejected = m.sum("pario_blastd_admission_rejected_total")
	}
	return lv
}

func search(url, db, client, query string) (cached bool, err error) {
	body, _ := json.Marshal(map[string]any{
		"db": db, "query": query, "client": client,
	})
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var sr struct {
		Cached bool `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return false, err
	}
	return sr.Cached, nil
}

func probe(url, db, query string) error {
	_, err := search(url, db, "bench-probe", query)
	return err
}

// metricsMap holds scraped prometheus samples keyed by bare metric
// name; labeled series are stored under name{labels} as well.
type metricsMap map[string]float64

func (m metricsMap) sum(prefix string) float64 {
	var total float64
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			total += v
		}
	}
	return total
}

func scrapeMetrics(url string) (metricsMap, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(metricsMap)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// makeQueryPool builds deterministic random-DNA queries spanning
// 0.5x to 2x the base length, so the mix has both short and long
// work units.
func makeQueryPool(n, baseLen int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, n)
	for i := range pool {
		pool[i] = randomQuery(rng, fmt.Sprintf("bench%d", i), baseLen)
	}
	return pool
}

func randomQuery(rng *rand.Rand, id string, baseLen int) string {
	ln := baseLen/2 + rng.Intn(baseLen+baseLen/2)
	b := make([]byte, ln)
	for j := range b {
		b[j] = "ACGT"[rng.Intn(4)]
	}
	return fmt.Sprintf(">%s\n%s", id, b)
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("blastbench: bad -clients entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("blastbench: -clients is empty")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blastbench:", err)
	os.Exit(1)
}
