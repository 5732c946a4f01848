package fluid

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/nettheory/feedbackflow/internal/core"
)

// fluidLadder is the population ladder for the backend wall-time
// comparison: the discrete solver expands every connection, so its
// rungs stop at the quarter-million mark the BenchmarkRun ladder also
// ends at; the fluid solver's cost is O(#classes) per step, so its
// rungs continue to ten million connections where the per-solve time
// must stay under ten milliseconds.
var fluidLadder = []struct {
	label string
	n     float64
}{
	{"N=512", 512},
	{"N=4096", 4096},
	{"N=65536", 65536},
	{"N=262144", 262144},
	{"N=1048576", 1 << 20},
	{"N=1e7", 1e7},
}

// benchFluidSolve measures one full steady-state solve — adaptive
// stepping, convergence detection, and report-free — of the
// single-class population largeNSystem builds with the Theorem 4 gain
// scaling η = η₀/N.
func benchFluidSolve(b *testing.B, n float64) {
	sys, r0 := largeNSystem(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Run(r0, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("fluid solve did not converge")
		}
	}
}

// benchDiscreteRun measures a fixed 100-step discrete run of the same
// scenario expanded to N individual connections (convergence disabled
// via an unreachable tolerance), mirroring the top-level BenchmarkRun
// methodology so the two ladders are comparable per step. The run is
// hooked, so it iterates all N connections rather than the one class
// an unhooked Run would collapse them into.
func benchDiscreteRun(b *testing.B, n float64) {
	sp := largeNSpec(b, n)
	sys, r0, err := sp.Build()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.RunOptions{MaxSteps: 100, Tol: 1e-300, Hook: core.PerConnection{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(r0, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluid is the steady-state solve ladder; the N=1e7 rung is
// the acceptance bound recorded in BENCH_PR10.json (< 10 ms per
// solve).
func BenchmarkFluid(b *testing.B) {
	for _, rung := range fluidLadder {
		b.Run(rung.label, func(b *testing.B) { benchFluidSolve(b, rung.n) })
	}
}

// BenchmarkDiscreteRun100 is the discrete half of the comparison
// ladder, cut off where per-connection expansion stops being a
// reasonable thing to benchmark.
func BenchmarkDiscreteRun100(b *testing.B) {
	for _, rung := range fluidLadder {
		if rung.n > 262144 {
			continue
		}
		b.Run(rung.label, func(b *testing.B) { benchDiscreteRun(b, rung.n) })
	}
}

// benchRecord is one row of BENCH_PR10.json, matching the
// BENCH_PR7.json row shape so existing tooling reads both.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestWriteFluidBenchJSON re-runs the discrete-vs-fluid wall-time
// ladder and writes the machine-readable record the repo versions
// alongside the code. Opt-in: set BENCH_JSON to the output path, or
// use `make bench-fluid`, which writes the versioned BENCH_PR10.json.
// The N=1e7 fluid rung is asserted under its 10 ms acceptance bound
// here, so the recorded file can never claim a regression passed.
func TestWriteFluidBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set; skipping benchmark JSON emission")
	}
	var records []benchRecord
	run := func(name string, fn func(*testing.B)) *benchRecord {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("%s did not run", name)
		}
		records = append(records, benchRecord{
			Name:        name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		rec := &records[len(records)-1]
		t.Logf("%s: %.0f ns/op, %d allocs/op", name, rec.NsPerOp, rec.AllocsPerOp)
		return rec
	}
	for _, rung := range fluidLadder {
		if rung.n <= 262144 {
			n := rung.n
			run("BenchmarkDiscreteRun100/"+rung.label, func(b *testing.B) { benchDiscreteRun(b, n) })
		}
	}
	for _, rung := range fluidLadder {
		n := rung.n
		rec := run("BenchmarkFluid/"+rung.label, func(b *testing.B) { benchFluidSolve(b, n) })
		if rung.n == 1e7 && rec.NsPerOp >= 10e6 {
			t.Errorf("BenchmarkFluid/N=1e7 = %.2f ms per steady-state solve, acceptance bound is 10 ms",
				rec.NsPerOp/1e6)
		}
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
