package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric: its name, unit, which direction is
// better and, for end-to-end metrics, the share of the baseline median
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root mirrors this table
// (TestBenchmarkJSONMatchesTables keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of ffcd/ffcgw sees, measured with
// tracing off. Every workload reports every one of them; the tail is
// p99 everywhere because every workload completes well over a
// thousand requests in the quiet half of a run, leaving at least ten
// samples beyond it. The timing bounds are as wide as allowed because
// a shared cloud guest's speed drifts: on a 2-vCPU Xeon guest, runs of
// different seeds made within minutes agree within 1–5%, but over tens
// of minutes the CPU time a request takes moved by up to 1.6× with no
// steal to show for it, and during sustained steal of 20–40% the
// spread of ten runs reached 0.15–0.2 on throughput, CPU and the
// median latency.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"success_rate", "ratio", "higher", 0.01},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, one group per layer; the
// README's table names the end-to-end metric and workload each should
// move. A layer that does no work on a workload reports 0 there;
// layerWork lists where each must not.
var perLayer = []metricDef{
	{"scenario.load_us", "us", "lower", 0},
	{"scenario.build_us", "us", "lower", 0},
	{"scenario.canonical_us", "us", "lower", 0},
	{"core.run_ms", "ms", "lower", 0},
	{"core.steps", "count", "lower", 0},
	{"core.step_us", "us", "lower", 0},
	{"core.converged_ratio", "ratio", "higher", 0},
	{"queueing.observe_ns_per_conn", "ns", "lower", 0},
	{"signal.batched_ns_per_conn", "ns", "lower", 0},
	{"fluid.run_us", "us", "lower", 0},
	{"fluid.steps", "count", "lower", 0},
	{"fluid.converged_ratio", "ratio", "higher", 0},
	{"serve.parse_us", "us", "lower", 0},
	{"serve.canonicalize_us", "us", "lower", 0},
	{"serve.cache_us", "us", "lower", 0},
	{"serve.queue_us", "us", "lower", 0},
	{"serve.solve_us", "us", "lower", 0},
	{"serve.render_us", "us", "lower", 0},
	{"serve.unattributed_us", "us", "lower", 0},
	{"runcache.hit_ratio", "ratio", "higher", 0},
	{"runcache.evictions", "count", "lower", 0},
	{"runcache.bytes", "B", "lower", 0},
	{"cluster.overhead_us", "us", "lower", 0},
	{"cluster.route_us", "us", "lower", 0},
	{"cluster.dispatch_us", "us", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.hedges", "count", "lower", 0},
	{"cluster.shed", "count", "lower", 0},
	{"runtime.alloc_bytes_per_req", "B", "lower", 0},
	{"runtime.gc_cycles_per_kreq", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// layerWork names, per workload, the per-layer metrics whose layer
// does work there, so they must read above 0. A 0 among them means the
// benchmark no longer finds that layer's data (a renamed span or
// phase, a trace join that came back empty, a backend no longer
// taken), not that the layer got free: a traced run notes each one in
// its record, and the short test fails on it.
var layerWork = map[string][]string{
	"solve-hetero": {
		"scenario.load_us", "scenario.build_us", "scenario.canonical_us",
		"core.run_ms", "core.steps", "core.step_us", "core.converged_ratio",
		"queueing.observe_ns_per_conn", "signal.batched_ns_per_conn",
		"serve.parse_us", "serve.canonicalize_us", "serve.cache_us", "serve.solve_us", "serve.render_us",
		"serve.unattributed_us", "runcache.bytes", "runtime.alloc_bytes_per_req",
	},
	"serve-hot": {
		"scenario.load_us", "scenario.build_us", "scenario.canonical_us",
		"serve.parse_us", "serve.canonicalize_us", "serve.cache_us", "serve.unattributed_us",
		"runcache.hit_ratio", "runcache.bytes", "runtime.alloc_bytes_per_req",
	},
	"pool-churn": {
		"scenario.load_us", "scenario.build_us", "scenario.canonical_us",
		"core.run_ms", "core.steps", "core.converged_ratio",
		"fluid.run_us", "fluid.steps", "fluid.converged_ratio",
		"serve.parse_us", "serve.canonicalize_us", "serve.cache_us", "serve.queue_us", "serve.solve_us", "serve.render_us",
		"serve.unattributed_us", "runcache.hit_ratio", "runcache.evictions", "runcache.bytes",
		"cluster.overhead_us", "cluster.route_us", "cluster.dispatch_us", "runtime.alloc_bytes_per_req",
	},
}

// metricByName finds a metric in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// rankQuantile is the exact order statistic at quantile q of sorted
// xs by the nearest-rank rule: the smallest sample with at least a q
// share of the samples at or below it. It never interpolates, so a
// p99 is a latency some request actually saw.
func rankQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method, including its clamping and extrapolation for
// tiny samples), so the spreads printed here are the ones a caller
// computing them in Python gets. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}
