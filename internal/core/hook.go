package core

import "math"

// StepHook interposes on each synchronous update of a run. It is the
// seam the fault-injection layer (internal/fault) plugs into: every
// step, the hook may degrade gateway capacity, perturb the freshly
// computed observation before the rate laws see it, and override the
// post-law rates — which together cover feedback-signal faults
// (loss, delay, noise), gateway degradation and outage, connection
// churn, and misbehaving (stuck, greedy) sources.
//
// The contract mirrors obs.StepTracer's: hooks run synchronously on
// the iterating goroutine, and every slice they receive is borrowed —
// valid only for the duration of the callback, mutable in place, never
// to be retained. A hook whose callbacks change nothing leaves the
// update path bit-identical to the unhooked plain iteration (the
// guarantee internal/fault's identity property test pins).
//
// Unlike a Tracer, a StepHook changes the dynamics; determinism is
// preserved only if the hook itself is deterministic (seeded RNGs,
// no ambient clocks — the detsource analyzer enforces this inside
// internal/fault).
type StepHook interface {
	// BeginStep runs before the step's observation is computed. mu is
	// a mutable copy of the per-gateway service rates, indexed like
	// the topology's gateways; scaling mu[a] in place models capacity
	// degradation (a small positive floor models an outage — the
	// queueing models require mu > 0).
	BeginStep(step int, mu []float64)
	// PerturbObservation runs after the observation at r is computed
	// and before the rate laws are applied. The hook may rewrite
	// o.Signals and o.Delays in place (feedback loss, delay, noise,
	// quantization). o and its slices are borrowed from the workspace.
	PerturbObservation(step int, r []float64, o *Observation)
	// PerturbNext runs after the laws produced the tentative next
	// state. The hook may rewrite next in place (stuck sources hold
	// next[i] = r[i], greedy sources refuse decreases, churned
	// connections are pinned to zero or rejoin). r is read-only.
	PerturbNext(step int, r, next []float64)
}

// PerConnection is a StepHook that changes nothing. Set as
// RunOptions.Hook, it makes Run the paper's plain synchronous
// iteration: no class collapse, no extrapolation. An unhooked Run
// would solve each run of identical connections as one weighted slot,
// and under individual feedback with TSI laws would take Anderson
// steps; a PerConnection run iterates every connection plainly, bit
// for bit as an unhooked run on a system with neither.
type PerConnection struct{}

// BeginStep implements StepHook.
func (PerConnection) BeginStep(int, []float64) {}

// PerturbObservation implements StepHook.
func (PerConnection) PerturbObservation(int, []float64, *Observation) {}

// PerturbNext implements StepHook.
func (PerConnection) PerturbNext(int, []float64, []float64) {}

// hookedStep is Workspace.stepInto with the three hook callbacks
// spliced in. The arithmetic between the callbacks — the observation,
// the law applications, the truncation rule, and the residual fold —
// is kept operation-for-operation identical to stepInto, so a hook
// whose callbacks do not mutate anything yields bit-identical
// trajectories (internal/fault's zero Config relies on this).
func (w *Workspace) hookedStep(step int, r, next []float64, h StepHook) (*Observation, float64, error) {
	p := &w.sys.plan
	if w.effMu == nil {
		w.effMu = make([]float64, len(p.mu))
	}
	copy(w.effMu, p.mu)
	h.BeginStep(step, w.effMu)
	w.muOverride = w.effMu
	err := w.observe(r)
	w.muOverride = nil
	if err != nil {
		return nil, 0, err
	}
	w.bottlenecks()
	h.PerturbObservation(step, r, &w.obs)
	s := w.sys
	residual := 0.0
	for i := range r {
		f := s.laws[i].Adjust(r[i], w.obs.Signals[i], w.obs.Delays[i])
		v := r[i] + f
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		next[i] = v
		if r[i] == 0 && f < 0 {
			continue // truncated: at rest by the truncation rule
		}
		if a := math.Abs(f); a > residual {
			residual = a
		}
	}
	h.PerturbNext(step, r, next)
	return &w.obs, residual, nil
}
