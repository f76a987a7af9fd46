// Command bench is this repository's benchmark: four workloads over
// loopback PVFS and CEFT-PVFS deployments with in-memory stores, three
// end-to-end metrics measured with tracing off, and a traced run that
// times every layer from shims the benchmark owns. README.md has the
// tables; ../BENCHMARK.json is the contract the driver reads.
//
//	bash bench/run.sh --workload search_ceft --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --trace 1          # all four workloads, per-layer numbers and the ladder
//	bash bench/run.sh --selfcheck        # the untraced suite twice, compared with the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "run one workload (default: all four)")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "time to measure for")
	traced := flag.Int("trace", 0, "1: measure the per-layer metrics on a traced instance and write bench/out/trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare every end-to-end metric with its bound")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	defs := workloads
	if *name != "" {
		def, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		defs = []workloadDef{def}
	}
	printHost(cfg)
	var err error
	if *selfcheck {
		err = runSelfcheck(defs, cfg)
	} else {
		err = runAll(defs, cfg, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printHost records what the numbers were measured on.
func printHost(cfg config) {
	fmt.Printf("# seed %d, %gs per run; nproc %d, GOMAXPROCS %d, %s, cpu %s\n",
		cfg.seed, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	if out, err := exec.Command("uname", "-m").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func runOne(def workloadDef, cfg config, traced bool) (*result, error) {
	if traced {
		return runTraced(def, cfg)
	}
	return runUntraced(def, cfg)
}

// runAll runs the workloads in turn; after each it prints a report
// and, as the last line, the result the driver parses.
func runAll(defs []workloadDef, cfg config, traced bool) error {
	failed := false
	ladder := map[string]float64{}
	for _, def := range defs {
		res, err := runOne(def, cfg, traced)
		if err != nil {
			return err
		}
		printReport(res, traced)
		for _, k := range ladderRungs {
			if v := res.Metrics[k.metric]; v != 0 {
				ladder[k.metric] = v
			}
		}
		for _, v := range res.Views {
			ladder[v.name] = v.value
		}
		if len(defs) == 1 {
			printResult(res, traced)
		}
		failed = failed || res.Failed > 0
	}
	if traced && len(defs) == len(workloads) {
		printLadder(ladder, float64(cfg.letters))
	}
	if failed {
		return fmt.Errorf("wrong outputs: failed_share > 0")
	}
	return nil
}

// printResult prints the one line the driver reads.
func printResult(res *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, _ := json.Marshal(struct { // numbers and strings marshal
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics})
	fmt.Println(string(line))
}

func printReport(res *result, traced bool) {
	fmt.Printf("\n== %s ==\n", res.Workload)
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("  %-34s %12.6g %-9s (%d failed of %d checked)\n", "failed_share", share, "ratio", res.Failed, res.Attempted)
	for _, v := range res.Views {
		fmt.Printf("  %-34s %12.6g %-9s n=%d", v.name, v.value, v.unit, v.sum.N)
		if v.sum.P50 > 0 {
			fmt.Printf("  timings ms: p25 %.4g p50 %.4g p75 %.4g p%.0f %.4g",
				v.sum.P25, v.sum.P50, v.sum.P75, 100*v.sum.TailQ, v.sum.Tail)
		}
		fmt.Println()
	}
	if len(res.Setups) > 0 {
		fmt.Printf("  %-34s %12.6g %-9s n=%d  runs s: %.3g\n", "setup_s", res.Metrics["setup_s"], "s", len(res.Setups), res.Setups)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, k := range sortedKeys(res.Metrics) {
		if !traced && k == "setup_s" {
			continue
		}
		fmt.Printf("  %-34s %12.6g %s\n", k, res.Metrics[k], units[k])
	}
	if res.TracePath != "" {
		fmt.Printf("  spans written to %s\n", res.TracePath)
	}
}

// ladderRungs are ROADMAP item 1's rungs, bottom first: each layer
// added on the way from the kernel to a service request.
var ladderRungs = []struct {
	metric string
	isTime bool // a wall time for one pass over the database, not a rate
	scale  float64
}{
	{"blast.search_mbases_per_s", false, 1},
	{"blastdb.stream_mem_mbases_per_s", false, 1},
	{"stream_mbases_per_s", false, 1}, // pvfs: scan_pvfs's stream phase
	{"ceft.stream_mbases_per_s", false, 1},
	{"pblast.mem_wall_s", true, 1},
	{"search_wall_p50_s", true, 1},
	{"fresh_p50_ms", true, 1e-3},
}

// printLadder prints every rung in Mbases/s, bottom rung first, with
// its ratio to the rung below it (the line before).
func printLadder(vals map[string]float64, letters float64) {
	fmt.Printf("\n== ladder, bottom rung first (Mbases/s; one search covers %.1f Mbases) ==\n", letters/1e6)
	var below float64
	for _, r := range ladderRungs {
		v, ok := vals[r.metric]
		if !ok || v == 0 {
			continue
		}
		if r.isTime {
			v = letters / 1e6 / (v * r.scale)
		}
		fmt.Printf("  %-34s %10.1f", r.metric, v)
		if below > 0 {
			fmt.Printf("   x%.3f of the rung below", v/below)
		}
		fmt.Println()
		below = v
	}
}

// runSelfcheck runs the untraced suite twice on the same code and
// seed; two runs that differ by more than a metric's bound mean the
// benchmark cannot resolve a regression of that size.
func runSelfcheck(defs []workloadDef, cfg config) error {
	ok := true
	for _, def := range defs {
		var runs [2]*result
		for i := range runs {
			res, err := runUntraced(def, cfg)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d of %d outputs wrong", def.Name, res.Failed, res.Attempted)
			}
			runs[i] = res
		}
		fmt.Printf("\n== %s ==\n", def.Name)
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name], runs[1].Metrics[d.Name]
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Printf("  %-12s %12.6g %12.6g %-4s  differ %5.2f%%  bound %2.0f%%  %s\n",
				d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("selfcheck: two runs of the same code differ by more than a bound")
	}
	return nil
}
