package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/textplot"
)

func init() {
	register(Spec{ID: "E23", Title: "Fluid-limit backend cross-validation: discrete → ODE as N grows", Run: E23FluidConvergence})
}

// e23FineStep is the fixed RK4 step used to resolve the reference ODE
// solution; its own O(h⁴) error is far below the O(ηN) discretization
// gap being measured.
const e23FineStep = 0.125

// E23FluidConvergence validates the fluid backend against the
// discrete solver it abstracts. The discrete synchronous iteration
// r' = max(0, r + f) is the explicit-Euler discretization (step 1) of
// the fluid ODE dr/dt = f, so the trajectory gap between the two is
// governed by the per-step contraction ηN·B'g' (Theorem 4's stability
// eigenvalue distance). Gains exactly on the stability scaling
// η ~ 1/N make that gap population-invariant — Theorem 1's time-scale
// invariance — so the experiment instead places each rung a factor N
// inside the boundary, η = η₀/N², where the discrete dynamics
// approach the fluid limit at rate O(ηN) = O(1/N): doubling the
// population must roughly halve the relative sup-norm trajectory gap.
//
// The ladder N ∈ {8, 32, 128, 512} runs a two-class population on two
// corners of the design space — FIFO+aggregate and
// FairShare+individual — comparing the expanded discrete run (via
// scenario counts and Build) against the finely-integrated
// two-dimensional fluid ODE (via FromSpec) at matched times. Initial
// rates scale as 1/N so every rung traverses the same fluid
// trajectory, and horizons scale as N to cover the same number of
// relaxation times. The checks require the gap to shrink
// monotonically with at least an 8× total reduction across the 64×
// ladder.
func E23FluidConvergence() (*Result, error) {
	res := &Result{
		ID:     "E23",
		Title:  "Discrete dynamics converge to the fluid limit as N grows",
		Source: "Section 2.4 dynamics in the N→∞ limit (Theorem 4 stability scaling)",
		Pass:   true,
	}
	const eta0 = 0.4
	ladder := []int64{8, 32, 128, 512}
	corners := []struct{ disc, feed string }{
		{"fifo", "aggregate"},
		{"fairshare", "individual"},
	}

	tb := textplot.NewTable("Sup-norm trajectory gap between the expanded discrete run and the fluid ODE (relative to the peak rate)",
		"corner", "N", "ηN", "rel sup gap", "ratio vs prev")
	for _, corner := range corners {
		label := corner.disc + "+" + corner.feed
		prev := math.NaN()
		var first, last float64
		for i, n := range ladder {
			gap, err := e23Gap(corner.disc, corner.feed, eta0, n)
			if err != nil {
				return nil, err
			}
			ratio := "—"
			if i > 0 {
				ratio = fmt.Sprintf("%.2f", gap/prev)
				if gap >= prev {
					res.Pass = false
					res.Notes = append(res.Notes, fmt.Sprintf("FAIL %s: gap did not shrink from N=%d to N=%d (%.3g -> %.3g)",
						label, ladder[i-1], n, prev, gap))
				}
			}
			tb.AddRow(label, fmt.Sprintf("%d", n), fmt.Sprintf("%.3g", eta0/float64(n)),
				fmt.Sprintf("%.3e", gap), ratio)
			prev = gap
			if i == 0 {
				first = gap
			}
			last = gap
		}
		if first < 8*last {
			res.Pass = false
			res.Notes = append(res.Notes, fmt.Sprintf("FAIL %s: total reduction %.1f× over the 64× ladder, want >= 8×",
				label, first/last))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("PASS %s: trajectory gap shrinks monotonically, %.0f× over the 64× population ladder",
				label, first/last))
		}
	}
	res.Text = tb.String()
	return res, nil
}

// e23Spec renders the two-class ladder scenario: a shared-path class
// of n connections and a single-hop class of n/2, with per-connection
// gains η₀/N² (a factor N inside the Theorem 4 stability boundary)
// and initial rates scaled 1/N so every rung follows the same fluid
// trajectory.
func e23Spec(disc, feed string, eta0 float64, n int64) *scenario.Spec {
	eta := eta0 / (float64(n) * float64(n))
	doc := fmt.Sprintf(`{
		"name": "e23",
		"discipline": %q,
		"feedback": %q,
		"gateways": [
			{"name": "A", "mu": 1.0, "latency": 0.1},
			{"name": "B", "mu": 2.0, "latency": 0.1}
		],
		"connections": [
			{"path": ["A", "B"], "count": %d, "law": {"kind": "additive", "eta": %g, "bss": 0.3}},
			{"path": ["A"], "count": %d, "law": {"kind": "additive", "eta": %g, "bss": 0.4}}
		]
	}`, disc, feed, n, eta, n/2, eta)
	sp, err := scenario.Load(strings.NewReader(doc))
	if err != nil {
		panic("experiments: e23 spec: " + err.Error())
	}
	sp.Initial = make([]float64, n+n/2)
	for i := range sp.Initial {
		sp.Initial[i] = 0.06 / float64(n)
		if int64(i) >= n {
			sp.Initial[i] = 0.03 / float64(n)
		}
	}
	return sp
}

// e23Gap measures the relative sup-norm gap between the expanded
// discrete trajectory and the fluid ODE solution at matched times
// over 6N discrete steps (the relaxation time scales with N at fixed
// η₀, so the window covers the same stretch of the transient at every
// rung).
func e23Gap(disc, feed string, eta0 float64, n int64) (float64, error) {
	sp := e23Spec(disc, feed, eta0, n)
	horizon := 6 * int(n)

	dsys, dr0, err := sp.Build()
	if err != nil {
		return 0, err
	}
	// Hooked, the discrete run iterates every connection: the expanded
	// population, not the class collapse of its two count=N entries.
	dres, err := dsys.Run(dr0, core.RunOptions{MaxSteps: horizon, Record: true, NoEarlyStop: true, Hook: core.PerConnection{}})
	if err != nil {
		return 0, err
	}

	fsys, fr0, err := fluid.FromSpec(sp)
	if err != nil {
		return 0, err
	}
	if err := fsys.SetStep(e23FineStep); err != nil {
		return 0, err
	}
	perUnit := int(math.Round(1 / e23FineStep))
	fres, err := fsys.Run(fr0, core.RunOptions{MaxSteps: horizon * perUnit, Record: true, NoEarlyStop: true})
	if err != nil {
		return 0, err
	}

	// Class c's first expanded member: counts expand in entry order.
	member := []int{0, int(n)}
	sup, peak := 0.0, 0.0
	for t := 0; t <= horizon; t++ {
		dRates := dres.Trajectory[t]
		fRates := fres.Trajectory[t*perUnit]
		for c, m := range member {
			if d := math.Abs(dRates[m] - fRates[c]); d > sup {
				sup = d
			}
			if fRates[c] > peak {
				peak = fRates[c]
			}
		}
	}
	if peak == 0 {
		return 0, fmt.Errorf("experiments: E23 trajectory never left zero")
	}
	return sup / peak, nil
}
