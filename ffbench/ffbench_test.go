package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/obs"
)

// shortRun is a handful of requests per client with one set-up.
func shortRun(t *testing.T, name string, trace bool, mutate func([]byte) []byte) *record {
	t.Helper()
	rec, err := runBenchmark(runConfig{workload: name, seed: 7, seconds: 30, trace: trace, setups: 1, maxPerClient: 12, mutate: mutate})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rec
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec := shortRun(t, w.Name, trace, nil)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				for _, name := range layerWork[w.Name] {
					if v := rec.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, but its layer does work there", w.Name, name, v)
					}
				}
			}
			if rec.CorpusSHA256 == "" || rec.Env.Go == "" || rec.Env.NProc == 0 {
				t.Errorf("%s: record lacks its stamp: %+v", w.Name, rec)
			}
		}
	}
}

// A corrupted body must fail the checks, on the path that parses the
// report (a miss) and on the one that compares bytes (a hit).
func TestCorruptedBodyFailsTheChecks(t *testing.T) {
	breakQueue := func(b []byte) []byte {
		i := bytes.Index(b, []byte(`"total_queue": `))
		if i < 0 {
			return b
		}
		out := append([]byte(nil), b...)
		j := i + len(`"total_queue": `)
		out[j] = '9' - (out[j]-'0'+1)%10 // change the leading digit
		return out
	}
	flipLast := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)-2] ^= 1
		return out
	}
	for _, tc := range []struct {
		workload string
		mutate   func([]byte) []byte
	}{
		{"solve-hetero", breakQueue},
		{"serve-hot", flipLast},
		{"pool-churn", breakQueue},
	} {
		rec := shortRun(t, tc.workload, false, tc.mutate)
		if rec.Correct || rec.Failed == 0 || rec.Metrics["success_rate"].Value == 1 {
			t.Errorf("%s: corrupted bodies passed: correct=%v failed=%d", tc.workload, rec.Correct, rec.Failed)
		}
	}
}

func TestCheckReport(t *testing.T) {
	ok := `{"converged": true, "gateways": [{"gateway": 0, "utilization": 0.5, "total_queue": 1}]}`
	if err := checkReport([]byte(ok)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"converged": false, "gateways": [{"gateway": 0, "utilization": 0.5, "total_queue": 1}]}`,
		`{"converged": true, "gateways": [{"gateway": 0, "utilization": 0.5, "total_queue": 1.001}]}`,
		`{"converged": true, "gateways": [{"gateway": 0, "utilization": 1, "total_queue": "+Inf"}]}`,
		`{"converged": true, "gateways": []}`,
		`{"converged": true`,
	} {
		if checkReport([]byte(bad)) == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestDocumentsArePureFunctionsOfSeedAndIndex(t *testing.T) {
	for _, doc := range []func(int64, int) []byte{heteroDoc, poolDoc} {
		if !bytes.Equal(doc(3, 17), doc(3, 17)) {
			t.Error("same seed and index gave different documents")
		}
		if bytes.Equal(doc(3, 17), doc(4, 17)) {
			t.Error("different seeds gave the same document")
		}
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := rankQuantile(sorted, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %v", got)
	}
	if got := rankQuantile(sorted, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(seed int64, digest string, rps float64) record {
		return record{Schema: recordSchema, Workload: "w", Seed: seed, CorpusSHA256: digest,
			Metrics: map[string]metricValue{"throughput_rps": {Value: obs.Float(rps), Unit: "1/s"}}}
	}
	old := []record{mk(1, "a", 100), mk(2, "b", 101), mk(3, "c", 99), mk(4, "d", 100)}
	faster := []record{mk(1, "a", 130), mk(2, "b", 131), mk(3, "c", 129), mk(4, "d", 130)}
	slower := []record{mk(1, "a", 70), mk(2, "b", 71), mk(3, "c", 69), mk(4, "d", 70)}
	same := []record{mk(1, "a", 100.5), mk(2, "b", 99.5), mk(3, "c", 100), mk(4, "d", 101)}
	for _, tc := range []struct {
		new  []record
		want string
	}{{faster, "better"}, {slower, "worse"}, {same, "same"}} {
		rows, err := compare(old, tc.new)
		if err != nil || len(rows) != 1 || rows[0].verdict != tc.want {
			t.Errorf("verdict %+v, %v; want %s", rows, err, tc.want)
		}
	}
	noisy := []record{mk(1, "a", 60), mk(2, "b", 140), mk(3, "c", 90), mk(4, "d", 120)}
	if rows, err := compare(old, noisy); err != nil || rows[0].verdict != "unresolved" {
		t.Errorf("noisy runs: %+v, %v; want unresolved", rows, err)
	}
	otherCorpus := []record{mk(1, "a", 100), mk(2, "x", 100), mk(3, "c", 100), mk(4, "d", 100)}
	if _, err := compare(old, otherCorpus); err == nil || !strings.Contains(err.Error(), "digests differ") {
		t.Errorf("compared different corpora: %v", err)
	}
	otherSeeds := []record{mk(1, "a", 100), mk(2, "b", 100), mk(3, "c", 100), mk(5, "d", 100)}
	if _, err := compare(old, otherSeeds); err == nil {
		t.Error("compared different seeds")
	}
}

// BENCHMARK.json at the repository root must list exactly this
// program's workloads and metric tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, tc := range []struct{ got, want []metricDef }{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d here", len(tc.got), len(tc.want))
		}
		for i := range tc.got {
			if tc.got[i] != tc.want[i] {
				t.Errorf("metric %d: %+v vs %+v", i, tc.got[i], tc.want[i])
			}
		}
	}
}
