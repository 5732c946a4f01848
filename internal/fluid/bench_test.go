package fluid

import (
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

// BenchmarkFluid is the steady-state solve ladder; its N=1e7 rung was
// recorded in BENCH_PR10.json under a 10 ms per-solve acceptance bound.
func BenchmarkFluid(b *testing.B) {
	for _, rung := range fluidLadder {
		b.Run(rung.label, func(b *testing.B) { benchFluidSolve(b, rung.n) })
	}
}

// fluidPoolDocs is how many scenariotest.FluidPool documents
// BenchmarkFluidPool cycles through: one full structure cycle (corner,
// class and gateway counts, population ladder).
const fluidPoolDocs = 128

// BenchmarkFluidPool solves the fluid-sized documents of the pool
// workload, one document per op, and reports the integrator's work
// beside the wall time: evals/op counts drift evaluations and steps/op
// accepted steps. Each system's pool hands out one workspace, so its
// evaluation counter sees every solve of that system.
func BenchmarkFluidPool(b *testing.B) {
	systems := make([]*System, fluidPoolDocs)
	starts := make([][]float64, fluidPoolDocs)
	spaces := make([]*workspace, fluidPoolDocs)
	for i := range systems {
		_, sys, r0 := fluidPool(b, i)
		w := sys.newWorkspace()
		sys.pool.New = func() any { return w }
		systems[i], starts[i], spaces[i] = sys, r0, w
	}
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % fluidPoolDocs
		res, err := systems[i].Run(starts[i], core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("FluidPool document %d did not converge", i)
		}
		steps += res.Steps
	}
	b.StopTimer()
	evals := 0
	for _, w := range spaces {
		evals += w.evals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
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
