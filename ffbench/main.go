// Command ffbench is the repository's benchmark. It starts ffcd
// replicas and, for pool-churn, an ffcgw gateway in this process,
// drives one of three seeded closed-loop workloads at them over
// loopback HTTP, checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer breakdown). README.md in
// this directory describes the workloads and metrics.
//
// Usage:
//
//	ffbench --workload solve-hetero|serve-hot|pool-churn --seed N --seconds S --trace 0|1
//	ffbench steady [-k 5] [-seconds S] [-out runs.jsonl]
//	ffbench compare old.jsonl new.jsonl
//
// A run prints one record line (schema feedbackflow/bench/v2: the
// environment stamp, the corpus digest, every metric) and, last, the
// summary line {"correct", "attempted", "failed", "metrics"}. It
// exits 1 when the run could not be made at all; a run whose checks
// failed still prints both lines, with correct false.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/nettheory/feedbackflow/internal/obs"
)

const recordSchema = "feedbackflow/bench/v2"

// metricValue is one reported metric.
type metricValue struct {
	Value obs.Float `json:"value"`
	Unit  string    `json:"unit"`
}

// record is a run's full result line.
type record struct {
	Schema       string    `json:"schema"`
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Seconds      obs.Float `json:"seconds"`
	Trace        bool      `json:"trace"`
	CorpusDocs   int       `json:"corpus_docs"`
	CorpusSHA256 string    `json:"corpus_sha256"`
	Env          envStamp  `json:"env"`
	Correct      bool      `json:"correct"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	Failures     []string  `json:"failures,omitempty"`
	Notes        []string  `json:"notes,omitempty"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// gave other guests during the measured window, QuietStealPct the
	// share during its quiet slices, over which the end-to-end metrics
	// are reported (for a traced run, the larger of its two windows').
	StealPct      obs.Float              `json:"steal_pct"`
	QuietStealPct obs.Float              `json:"quiet_steal_pct"`
	Metrics       map[string]metricValue `json:"metrics"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one run's parameters. setups and maxPerClient are not
// flags: the tests shrink them.
type runConfig struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	setups       int // set-ups per run; setup_s is their median
	maxPerClient int // stop each client after this many requests (0: time only)
	mutate       func([]byte) []byte
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("ffbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: solve-hetero, serve-hot or pool-churn")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same documents in the same order")
	seconds := fs.Float64("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "ffbench: --trace is 0 or 1")
		return 2
	}
	rec, err := runBenchmark(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffbench:", err)
		return 1
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "ffbench: check failed:", f)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "ffbench: note:", n)
	}
	if err := printResult(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "ffbench:", err)
		return 1
	}
	return 0
}

func printResult(out *os.File, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	sum, err := json.Marshal(summary{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", line, sum)
	return err
}

// runBenchmark makes one run: untraced, the set-ups and the timed
// window whose end-to-end metrics it reports; traced, an untraced and
// a traced window of half the length each, whose per-layer metrics it
// reports.
func runBenchmark(cfg runConfig) (*record, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	rec := &record{
		Schema: recordSchema, Workload: w.Name, Seed: cfg.seed, Seconds: obs.Float(cfg.seconds), Trace: cfg.trace,
		CorpusDocs: w.Corpus, Env: stamp(), Metrics: map[string]metricValue{},
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return rec, runEndToEnd(w, cfg, dur, rec)
	}
	return rec, runTraced(w, cfg, dur/2, rec)
}

// measured is one set-up stack with its measured window and checks.
type measured struct {
	st       *stack
	win      *window
	failures []string
	passed   int
}

// runWindow measures st, makes the after-run checks and closes it.
func runWindow(st *stack, dur time.Duration, cfg runConfig, traced bool) (*measured, error) {
	st.mutate = cfg.mutate
	win := st.measure(dur, cfg.maxPerClient, traced)
	sampleFails, runFails := st.afterRun(win)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("shutting the deployment down: %w", err)
	}
	s := &measured{st: st, win: win, failures: append(runFails, win.failures...)}
	s.passed = win.attempted - win.failed - sampleFails
	if len(runFails) > 0 {
		s.passed = 0 // a run-level failure fails every request of the run
	}
	return s, nil
}

// throughput is the median over the window's quiet slices of
// completed requests per second the guest had the CPU.
func (s *measured) throughput() float64 { return median(s.win.rps) }

func (r *record) account(s *measured) {
	r.Attempted += s.win.attempted
	r.Failed += s.win.attempted - s.passed
	r.Failures = append(r.Failures, s.failures...)
	r.CorpusSHA256 = s.st.corpus.digest
	r.Correct = r.Attempted > 0 && r.Failed == 0
	r.StealPct = obs.Float(math.Max(float64(r.StealPct), s.win.stealPct))
	r.QuietStealPct = obs.Float(math.Max(float64(r.QuietStealPct), s.win.quietStealPct))
}

func (r *record) set(name string, v float64) {
	m, _ := metricByName(name)
	r.Metrics[name] = metricValue{Value: obs.Float(v), Unit: m.Unit}
}

func runEndToEnd(w *workload, cfg runConfig, dur time.Duration, rec *record) error {
	setups := make([]float64, cfg.setups)
	var st *stack
	for k := range setups {
		runtime.GC()
		t0, steal0 := time.Now(), stealTicks()
		s, err := setUp(w, cfg.seed, false)
		if err != nil {
			return err
		}
		setups[k] = (time.Since(t0) - stealShare(stealTicks()-steal0)).Seconds()
		if k < len(setups)-1 {
			if err := s.close(); err != nil {
				return err
			}
		} else {
			st = s
		}
	}
	s, err := runWindow(st, dur, cfg, false)
	if err != nil {
		return err
	}
	rec.account(s)
	lat := append([]float64(nil), s.win.quietLatMS...)
	sort.Float64s(lat)
	rec.set("setup_s", median(setups))
	rec.set("throughput_rps", s.throughput())
	rec.set("latency_p50_ms", rankQuantile(lat, 0.50))
	rec.set("latency_p99_ms", rankQuantile(lat, 0.99))
	rec.set("success_rate", ratio(float64(s.passed), float64(s.win.attempted)))
	rec.set("cpu_us_per_req", median(s.win.cpuPerReqUS))
	rec.set("peak_rss_mb", s.win.peakRSSMB)
	if n := len(lat); n < 1000 {
		rec.Notes = append(rec.Notes, fmt.Sprintf("%d latency samples leave fewer than ten beyond p99", n))
	}
	return nil
}

func runTraced(w *workload, cfg runConfig, half time.Duration, rec *record) error {
	st, err := setUp(w, cfg.seed, false)
	if err != nil {
		return err
	}
	plain, err := runWindow(st, half, cfg, false)
	if err != nil {
		return err
	}
	rec.account(plain)
	if st, err = setUp(w, cfg.seed, true); err != nil {
		return err
	}
	traced, err := runWindow(st, half, cfg, true)
	if err != nil {
		return err
	}
	rec.account(traced)

	layers, err := layerTimes(traced.st.corpus)
	if err != nil {
		return fmt.Errorf("layer timers: %w", err)
	}
	for k, v := range spanLayers(traced.st.dep, traced.win) {
		layers[k] = v
	}
	sc := traced.win.scrape
	layers["runcache.hit_ratio"] = ratio(sc.hits, sc.hits+sc.misses)
	layers["runcache.evictions"] = sc.evictions
	layers["runcache.bytes"] = sc.bytes
	n := float64(len(plain.win.latMS))
	layers["runtime.alloc_bytes_per_req"] = ratio(float64(plain.win.allocBytes), n)
	layers["runtime.gc_cycles_per_kreq"] = ratio(1000*float64(plain.win.gcCycles), n)
	if base := plain.throughput(); base > 0 {
		layers["trace.overhead_pct"] = 100 * (base - traced.throughput()) / base
	}
	for _, m := range perLayer {
		rec.set(m.Name, layers[m.Name])
	}
	for _, name := range layerWork[w.Name] {
		if !(layers[name] > 0) {
			rec.Notes = append(rec.Notes, fmt.Sprintf("%s reads %v on %s, where its layer does work: its data was not found", name, layers[name], w.Name))
		}
	}
	return nil
}
