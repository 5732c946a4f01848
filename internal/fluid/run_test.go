package fluid

import (
	"bytes"
	"math"
	"testing"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// smoothDoc is a two-class population on one FIFO gateway under
// aggregate feedback with the rational signal, where b = ρ: the drift
// dr_c/dt = η_c·r_c·(bss_c − ρ) is a coupled logistic system, smooth
// everywhere below saturation, so a Runge–Kutta step shows its full
// order on it.
const smoothDoc = `{
	"name": "smooth",
	"discipline": "fifo",
	"feedback": "aggregate",
	"gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}],
	"connections": [
		{"path": ["A"], "count": 1000, "law": {"kind": "multiplicative", "eta": 0.9, "bss": 0.5}},
		{"path": ["A"], "count": 3000, "law": {"kind": "multiplicative", "eta": 0.6, "bss": 0.6}}
	]
}`

// TestDormandPrinceOrder checks the adaptive trial step against a
// fine fixed-step RK4 reference over the same interval: on a smooth
// state a fifth-order step's error falls like h⁶ and its embedded
// estimate like h⁵, so both must shrink at least 16× per halving of h.
// A wrong tableau coefficient breaks an order condition and fails
// this. The step's seventh stage must also be the drift at the state
// it returns (FSAL), bit for bit.
func TestDormandPrinceOrder(t *testing.T) {
	sys, _, err := FromSpec(loadSpec(t, smoothDoc))
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{1e-4, 5e-5} // ρ = 0.25, well below saturation
	const substeps = 256
	w := sys.acquire()
	defer sys.release(w)
	out := make([]float64, len(r))
	drift := make([]float64, len(r))
	var prevErr, prevEst float64
	for k, h := range []float64{3.2, 1.6, 0.8, 0.4} {
		ref := fixedStepReference(t, sys, r, h/substeps, substeps)
		w.derivInto(r, w.k1, w.bR)
		est := w.dormandPrince(r, out, h)
		if w.err != nil {
			t.Fatal(w.err)
		}
		w.derivInto(out, drift, w.bR)
		for i := range drift {
			if drift[i] != w.k7[i] {
				t.Fatalf("h=%v: FSAL stage k7[%d] = %v, drift at the returned state %v", h, i, w.k7[i], drift[i])
			}
		}
		stepErr := supDiff(out, ref)
		t.Logf("h=%-4v error %.3e, estimate %.3e", h, stepErr, est)
		if k > 0 {
			if ratio := prevErr / stepErr; !(ratio >= 16) {
				t.Errorf("h=%v: error fell %.2f× on halving h, want ≥ 16× (fifth order)", h, ratio)
			}
			if ratio := prevEst / est; !(ratio >= 16) {
				t.Errorf("h=%v: error estimate fell %.2f× on halving h, want ≥ 16× (embedded fourth order)", h, ratio)
			}
		}
		prevErr, prevEst = stepErr, est
	}
}

// fixedStepReference integrates n fixed RK4 steps of size h from r.
func fixedStepReference(t *testing.T, sys *System, r []float64, h float64, n int) []float64 {
	t.Helper()
	if err := sys.SetStep(h); err != nil {
		t.Fatal(err)
	}
	defer sys.SetStep(0)
	res, err := sys.Run(r, core.RunOptions{MaxSteps: n, Tol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != n {
		t.Fatalf("reference took %d steps, want %d", res.Steps, n)
	}
	return res.Rates
}

// TestFluidPoolConverges runs the adaptive integrator over the
// fluid-sized documents of the benchmark's pool workload, every corner
// of the design space: each must converge within a bounded number of
// accepted steps, and the mean must stay near what one embedded step
// per trial achieves (about 137 over seed 1's 1024 documents; RK4 step
// doubling took about 193).
func TestFluidPoolConverges(t *testing.T) {
	const maxSteps, maxMean = 300, 160.0
	docs := 1024
	if testing.Short() {
		docs = fluidPoolDocs
	}
	corners := map[string]int{}
	total := 0
	for i := 0; i < docs; i++ {
		sp, sys, r0 := fluidPool(t, i)
		res, err := sys.Run(r0, sp.RunOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Steps > maxSteps {
			t.Errorf("%s (%s/%s): converged=%v in %d steps, want convergence within %d",
				sp.Name, sp.Discipline, sp.Feedback, res.Converged, res.Steps, maxSteps)
		}
		corners[sp.Discipline+"/"+sp.Feedback]++
		total += res.Steps
	}
	if len(corners) != 4 {
		t.Errorf("documents cover corners %v, want all four", corners)
	}
	if mean := float64(total) / float64(docs); mean > maxMean || math.IsNaN(mean) {
		t.Errorf("mean %.1f accepted steps per document, want at most %v", mean, maxMean)
	}
}

// TestAdaptiveStepAllocatesNothing backs the hotalloc analyzer on the
// integrator: an accepted adaptive step, its rejected trials included,
// runs entirely in the workspace's buffers.
func TestAdaptiveStepAllocatesNothing(t *testing.T) {
	sys, _, err := FromSpec(loadSpec(t, smoothDoc))
	if err != nil {
		t.Fatal(err)
	}
	w := sys.acquire()
	defer sys.release(w)
	r := []float64{1e-4, 5e-5}
	next := make([]float64, len(r))
	w.derivInto(r, w.k1, w.bR)
	allocs := testing.AllocsPerRun(100, func() {
		h := 64.0 // large enough to be rejected before one is accepted
		w.adaptiveStep(r, next, &h, 1e-10)
	})
	if allocs != 0 || w.err != nil {
		t.Fatalf("adaptive step: %v allocations (err %v), want 0", allocs, w.err)
	}
}

// fluidPool compiles the benchmark's fluid-sized pool document
// scenariotest.FluidPool(1, i).
func fluidPool(tb testing.TB, i int) (*scenario.Spec, *System, []float64) {
	tb.Helper()
	sp, err := scenario.Load(bytes.NewReader(scenariotest.FluidPool(1, i)))
	if err != nil {
		tb.Fatal(err)
	}
	sys, r0, err := FromSpec(sp)
	if err != nil {
		tb.Fatal(err)
	}
	return sp, sys, r0
}
