// Package fluid is the second solver backend: the fluid (N→∞) limit
// of the discrete synchronous iteration in internal/core, solved in
// O(#classes) instead of O(#connections).
//
// The collapse that makes it work: connections with the same feedback
// law and the same gateway path are exchangeable — the discrete kernel
// gives them identical queues, signals, and delays whenever their
// rates agree, so a homogeneous population of N such connections stays
// on the diagonal r_1 = … = r_N for all time and is fully described by
// one representative rate plus the weight N. A scenario with 10⁷
// sources in three behavioral groups is a 3-dimensional ODE
//
//	dr_c/dt = f_c(r_c, b_c(r), d_c(r)),
//
// where the per-gateway observations come from the same kernels the
// discrete solver uses — internal/queueing's disciplines and
// internal/signal's congestion measures — called with the class
// weights as their multiplicity column: every sum over connections
// becomes a sum over classes with multiplicity w_c. A class of weight w
// gets the queue, signal, and delay w discrete members at the same
// rate would get (up to summation order; a one-member class is the
// discrete computation itself), so the fluid trajectory is the exact
// population dynamics, not an approximation of the per-gateway
// mechanics. The only approximation
// is in time: the discrete map r' = max(0, r + f) is the
// explicit-Euler discretization of the ODE with step h = 1, so fluid
// and discrete trajectories agree to O(h·λ) and converge as the paper's
// per-connection gains shrink like η ~ 1/N (experiment E23 measures
// exactly this).
//
// The model is compiled once, by core: FromSpec turns each class into
// one connection of a topology.Network and builds a core.System
// weighted by the class sizes (core.NewWeightedSystem), so the plan,
// the per-gateway kernel calls, the path combine and the report are
// core's. This package only integrates: its drift is one
// core.Workspace.Drift call — the class-level observation, the
// per-class law adjust and the boundary projection — stepped by an
// explicit Runge–Kutta method.
//
// Two stepping regimes:
//
//   - Adaptive (the default, step 0): one Dormand–Prince 5(4) step per
//     trial, its embedded fourth-order solution giving the error
//     estimate. The seventh stage is the drift at the new state (FSAL,
//     first same as last): it is both the curvature guard's endpoint
//     drift and the next step's first stage, so a trial costs six
//     drift evaluations. The integrator finds its own stable step, so
//     steady states that take the discrete solver ~N synchronous
//     rounds (gains η ~ 1/N) resolve in tens of accepted steps
//     regardless of N. This is what makes BenchmarkFluid/N=1e7 a
//     sub-10ms solve.
//   - Fixed (SetStep(h), h > 0): every counted step advances the ODE
//     by h with one RK4 step. Experiment E23 uses a fine fixed step to
//     resolve the ODE trajectory against the discrete one.
//
// The discrete map itself — explicit Euler at step 1 — needs no
// integrator: it is the weighted core.System's own Run, which the
// lockstep tests compare against the expanded population.
//
// The Run/Report surface mirrors core.System's, reusing its option,
// result, and observation types, so obs tracing and scenario
// canonicalization work unchanged. The one deliberate gap:
// core.StepHook (fault injection) is per-connection and per-step by
// construction and has no fluid counterpart, so Run rejects hooks and
// the serving layer routes faulted requests to the discrete backend.
package fluid

import (
	"fmt"
	"sync"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/finite"
)

// DefaultThreshold is the population at or above which backend "auto"
// (internal/serve, cmd/ffc, cmd/ffcd) switches from the discrete to
// the fluid solver. Below it the discrete kernel solves in well under
// a second and its per-connection output is strictly more informative;
// above it the discrete cost grows like N log N per step while the
// fluid cost stays flat in N.
const DefaultThreshold = 65536

// System integrates the fluid dynamics of a class-weighted
// core.System. It is safe for concurrent use; Run and Observe draw
// scratch from an internal pool.
type System struct {
	sys  *core.System // one connection per class, weighted by class size
	step float64      // 0 = adaptive
	pool sync.Pool    // *workspace
}

// SetStep fixes the integration step: one Run step then advances the
// ODE by step time units with one RK4 step. A zero step selects
// adaptive Dormand–Prince control, the FromSpec default, which picks —
// and re-picks — its own stable step. Not safe concurrently with Run.
func (s *System) SetStep(step float64) error {
	if finite.IsBad(step) || step < 0 {
		return fmt.Errorf("fluid: step %v must be positive (or 0 for adaptive)", step)
	}
	s.step = step
	return nil
}

// NumClasses returns the number of classes (the dimension of the rate
// vector Run takes and returns).
func (s *System) NumClasses() int { return s.sys.Network().NumConnections() }

// Weights returns a copy of the per-class member counts.
func (s *System) Weights() []float64 {
	w := make([]float64, s.NumClasses())
	for c := range w {
		w[c] = s.sys.Weight(c)
	}
	return w
}

// Population returns the total represented population Σ w_c.
func (s *System) Population() float64 {
	t := 0.0
	for c := 0; c < s.NumClasses(); c++ {
		t += s.sys.Weight(c)
	}
	return t
}

func (s *System) acquire() *workspace {
	w := s.pool.Get().(*workspace)
	w.err = nil
	return w
}

func (s *System) release(w *workspace) { s.pool.Put(w) }
