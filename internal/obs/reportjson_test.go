package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/fault"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// edgeDocs are hand-written reports at the edges of the encoding:
// non-finite values, signed zeros, subnormals, the exponent thresholds
// of 'g' formatting, nil against empty slices, every omitempty field
// at its zero (-0 included) and just off it, and escaping-heavy
// strings.
var edgeDocs = []string{
	`{}`,
	`{"schema": "", "scenario": "", "steps": 0, "wall_ns": 0,
	  "initial_residual": "NaN", "final_residual": -0, "min_residual": "+Inf", "max_residual": "-Inf",
	  "rates": ["NaN", "+Inf", "-Inf", 0, -0, 5e-324, 2.225073858507201e-308, 1e20, 1e21, 1e-6, 1e-7,
	            -1e21, 123456789012345678, 1.7976931348623157e308, 0.1],
	  "signals": [], "delays": null, "gateways": [], "backend": "", "population": 0, "class_weights": [],
	  "recovery": {"baseline": null, "max_queue_excursion": -0, "starvation": []}}`,
	`{"schema": "feedbackflow/run-report/v1", "scenario": "a<b>&c\n\u2028\u2029\t\"\\ \u00e9\u007f",
	  "steps": -1, "converged": true, "wall_ns": -9223372036854775808,
	  "rates": [], "signals": [1e-7], "delays": [-0],
	  "gateways": [{"queues": null}, {"queues": []},
	               {"gateway": 3, "connections": -2, "utilization": "NaN", "total_queue": "+Inf", "max_queue": -0,
	                "queues": [1e21, "-Inf", 4.9e-324]}],
	  "backend": "fluid\u2028", "population": -5, "class_weights": [-0, 1e20],
	  "fault": {"spec": "seed=3,<loss>=0.5", "signals_lost": 1, "signals_delayed": -1, "signals_noised": 2,
	            "degraded_steps": 3, "outage_steps": 4, "churned_steps": 5, "stuck_steps": 6, "greedy_steps": 7},
	  "recovery": {"baseline": [], "reconverged": true, "reconverge_step": -1, "time_to_reconverge": 9,
	               "max_rate_excursion": "NaN", "max_queue_excursion": "NaN", "final_distance": -0,
	               "starvation": [{}, {"connection": 2, "longest_window": 3, "total_steps": 4, "starved_at_end": true}]}}`,
	`{"population": 1, "class_weights": [0], "fault": {}, "recovery": {"max_queue_excursion": "+Inf", "starvation": [{}]}}`,
}

// edgeNames are the strings the fuzz target writes into the report's
// string fields: each character encoding/json escapes on its own (the
// HTML ones, quote and backslash, control characters, the two line
// separators JavaScript does not allow in strings), bytes it copies
// (DEL, valid UTF-8), and invalid UTF-8, which only a Go string (not a
// decoded JSON one) can carry.
var edgeNames = []string{"", "two-bottleneck", "a<b", "a>b", "a&b", `a"b`, `a\b`, "line\nbreak", "tab\t",
	"sep\u2028", "sep\u2029", "del\x7f", "caf\u00e9", "bad\xff\xfeutf8", "trunc\xe2\x80"}

// seedSteps bounds the solves behind the fuzz seeds. Most corpus
// documents converge well within it; the slowest Hetero ones take up to
// 20 000 steps of 512 connections, seconds that every fuzz worker would
// spend before its first input. A capped run's report has the same
// shape, and BenchmarkRenderReport checks the converged ones.
const seedSteps = 1000

// solvedReports returns the run report of every scenario document in
// scenariotest.Corpus that builds and of scenariotest.Hetero(16), each
// solved for at most seedSteps steps, a fluid report of a
// 400 000-connection population, and a fault run's report with its
// recovery section.
func solvedReports(tb testing.TB) []*obs.RunReport {
	tb.Helper()
	var docs [][]byte
	for _, d := range scenariotest.Corpus(tb) {
		docs = append(docs, d.Body)
	}
	docs = append(docs, scenariotest.Hetero(16)...)
	var reps []*obs.RunReport
	for _, doc := range docs {
		sp, err := scenario.Load(bytes.NewReader(doc))
		if err != nil {
			continue
		}
		sys, r0, err := sp.Build()
		if err != nil {
			continue
		}
		opts := sp.RunOptions()
		if opts.MaxSteps <= 0 || opts.MaxSteps > seedSteps {
			opts.MaxSteps = seedSteps
		}
		res, err := sys.Run(r0, opts)
		if err != nil {
			tb.Fatal(err)
		}
		rep, err := sys.Report(res, sp.Name)
		if err != nil {
			tb.Fatal(err)
		}
		reps = append(reps, rep)
	}

	sp, err := scenario.Load(strings.NewReader(`{"name": "population",
		"gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}, {"name": "B", "mu": 2.0, "latency": 0.1}],
		"connections": [
			{"path": ["A", "B"], "count": 300000, "law": {"kind": "additive", "eta": 1e-7, "bss": 0.3}},
			{"path": ["A"], "count": 100000, "law": {"kind": "additive", "eta": 1e-7, "bss": 0.4}}]}`))
	if err != nil {
		tb.Fatal(err)
	}
	fsys, r0, err := fluid.FromSpec(sp)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := fsys.Run(r0, sp.RunOptions())
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := fsys.Report(res, sp.Name)
	if err != nil {
		tb.Fatal(err)
	}
	reps = append(reps, rep)

	// An outage that overloads the shared gateway: the recovery section
	// carries a +Inf queue excursion and starvation rows.
	sp, err = scenario.Load(bytes.NewReader(scenariotest.Files(tb)[1].Body))
	if err != nil {
		tb.Fatal(err)
	}
	sys, r0, err := sp.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := fault.Parse("seed=3,loss=0.5@50-120,outage=0@150-170")
	if err != nil {
		tb.Fatal(err)
	}
	opts := sp.RunOptions()
	opts.MaxSteps = 2000
	pres, err := fault.RunPerturbed(sys, r0, cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	if rep, err = sys.Report(pres.Perturbed, sp.Name); err != nil {
		tb.Fatal(err)
	}
	pres.Attach(rep)
	if rep.Recovery == nil || len(rep.Recovery.Starvation) == 0 {
		tb.Fatalf("fault seed report has no starvation rows: %+v", rep.Recovery)
	}
	return append(reps, rep)
}

// checkAppendJSON fails unless r.AppendJSON appends exactly
// json.MarshalIndent's bytes, leaving dst's own bytes alone.
func checkAppendJSON(t *testing.T, r *obs.RunReport) {
	t.Helper()
	want, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "prefix"
	got := r.AppendJSON([]byte(prefix))
	if !bytes.HasPrefix(got, []byte(prefix)) {
		t.Fatalf("AppendJSON overwrote dst: %q", got[:min(len(got), len(prefix))])
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("AppendJSON differs from json.MarshalIndent at byte %d:\n got …%q\nwant …%q",
			i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

// FuzzRunReportJSON is the differential test of AppendJSON against
// encoding/json. An input is a report as JSON, decoded with
// encoding/json (Float's "NaN"/"+Inf"/"-Inf" and -0 included), and a
// string written into the report's string fields, which can carry
// bytes a decoded JSON string cannot. The seeds are every solved
// report of the shared scenario corpus (see seedSteps), a fluid and a
// fault report, and the edge documents.
func FuzzRunReportJSON(f *testing.F) {
	for _, rep := range solvedReports(f) {
		doc, err := json.Marshal(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc, rep.Scenario)
	}
	for _, doc := range edgeDocs {
		for _, name := range edgeNames {
			f.Add([]byte(doc), name)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte, name string) {
		var r obs.RunReport
		if json.Unmarshal(doc, &r) != nil {
			return
		}
		checkAppendJSON(t, &r)
		r.Scenario, r.Backend = name, name
		if r.Fault != nil {
			r.Fault.Spec = name
		}
		checkAppendJSON(t, &r)
	})
}
