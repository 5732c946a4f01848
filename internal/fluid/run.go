package fluid

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/obs"
)

// rateCap bounds stage states: an adaptive trial step that overshoots
// to overflow is clamped finite so the error estimate can reject it,
// instead of feeding ±Inf rates into the kernels.
const rateCap = 1e300

// Adaptive step control: the initial trial step is one discrete time
// unit; the step halves while the embedded error estimate exceeds the
// local tolerance (relative to 1 + max rate) and doubles when the
// estimate is far below it. hMin breaks pathological stiffness loops;
// hMax keeps the step finite once the state pins to the fixed point.
const (
	adaptiveH0  = 1.0
	adaptiveMin = 1e-9
	adaptiveMax = 1e12
)

// The Dormand–Prince 5(4) tableau: stage weights dpAij, the
// fifth-order solution weights dpBi (b₂ = 0), and the error weights
// dpEi = bᵢ − b̂ᵢ against the embedded fourth-order solution. The
// seventh stage's row is b itself, so its drift is the drift at the
// accepted state (FSAL, first same as last). The nodes cᵢ are not
// needed: the drift does not depend on time.
const (
	dpA21 = 1.0 / 5

	dpA31, dpA32 = 3.0 / 40, 9.0 / 40

	dpA41, dpA42, dpA43 = 44.0 / 45, -56.0 / 15, 32.0 / 9

	dpA51, dpA52, dpA53, dpA54 = 19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729

	dpA61, dpA62, dpA63, dpA64, dpA65 = 9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656

	dpB1, dpB3, dpB4, dpB5, dpB6 = 35.0 / 384, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84

	dpE1, dpE3, dpE4, dpE5, dpE6, dpE7 = 71.0 / 57600, -71.0 / 16695, 71.0 / 1920, -17253.0 / 339200, 22.0 / 525, -1.0 / 40
)

// Run integrates the fluid dynamics from r0 until convergence or the
// step budget is exhausted, mirroring core.System.Run's contract on
// the shared option and result types: same defaults, same residual
// telemetry, same tracer callback (class vectors in place of
// connection vectors), same Record semantics.
//
// With a fixed step (SetStep) each counted step advances time by
// exactly that step and convergence is core's criterion — sup-norm
// rate change at most Tol·(1 + max rate) for Window consecutive
// steps. In adaptive mode a counted step advances by whatever the
// error control accepted, so rate changes are not comparable across
// steps; convergence is instead on the drift residual
// max|Φ_c| ≤ Tol·(1 + max rate) for Window consecutive accepted
// steps, which is step-size independent.
//
// opt.Hook must be nil: fault injection is defined per connection and
// per synchronous round, neither of which survives the fluid limit —
// callers route perturbed runs to the discrete backend.
func (s *System) Run(r0 []float64, opt core.RunOptions) (*core.RunResult, error) {
	if opt.Hook != nil {
		return nil, fmt.Errorf("fluid: step hooks (fault injection) are not supported; use the discrete backend")
	}
	opt = opt.WithDefaults()
	start := opt.Clock()
	if err := s.checkRates(r0); err != nil {
		return nil, err
	}
	r := append([]float64(nil), r0...)
	next := make([]float64, len(r))
	w := s.acquire()
	defer s.release(w)
	res := &core.RunResult{}
	if opt.Record {
		res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
	}
	adaptive := s.step == 0
	h := s.step
	if adaptive {
		h = adaptiveH0
	}
	calm := 0
	fresh := false // k1 and bR already hold the drift at r
	for step := 0; step < opt.MaxSteps; step++ {
		// Drift at the current point: k1 seeds the stages and doubles
		// as the residual and the tracer's signal source.
		if !fresh {
			w.derivInto(r, w.k1, w.bR)
		}
		resid := maxAbs(w.k1)
		res.Stats.Observe(resid, step == 0)
		if opt.Tracer != nil {
			opt.Tracer.OnStep(step, r, resid, w.bR)
		}
		if adaptive {
			w.adaptiveStep(r, next, &h, opt.Tol)
			// The step's FSAL stage left the drift at the accepted state
			// in k7 and bT: the next step's k1 and bR.
			w.k1, w.k7 = w.k7, w.k1
			w.bR, w.bT = w.bT, w.bR
			fresh = true
		} else {
			w.advanceFrom(r, w.k1, next, h)
		}
		if w.err != nil {
			return nil, fmt.Errorf("fluid: step %d: %w", step, w.err)
		}
		maxChange, maxRate := 0.0, 0.0
		for i := range r {
			if c := math.Abs(next[i] - r[i]); c > maxChange {
				maxChange = c
			}
			if next[i] > maxRate {
				maxRate = next[i]
			}
		}
		r, next = next, r
		res.Steps = step + 1
		if opt.Record {
			res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
		}
		criterion := maxChange
		if adaptive {
			criterion = resid
		}
		if criterion <= opt.Tol*(1+maxRate) {
			calm++
			if calm >= opt.Window {
				res.Converged = true
				if !opt.NoEarlyStop {
					break
				}
			}
		} else {
			calm = 0
			res.Converged = false
		}
	}
	res.Rates = r
	final, err := s.sys.Observe(r)
	if err != nil {
		return nil, err
	}
	res.Final = final
	w.derivInto(r, w.k1, w.bT)
	finalResid := maxAbs(w.k1)
	res.Stats.Observe(finalResid, res.Steps == 0)
	res.Stats.FinalResidual = finalResid
	res.Stats.Steps = res.Steps
	res.Stats.WallTime = opt.Clock().Sub(start)
	return res, nil
}

// advanceFrom applies one RK4 step of size h from r with the drift at
// r already in k1, writing the clamped result into out. out must not
// alias r or the workspace stage buffers.
//
//ffc:hotpath
func (w *workspace) advanceFrom(r, k1, out []float64, h float64) {
	stageInto(w.rs, r, k1, h/2)
	w.derivInto(w.rs, w.k2, w.bT)
	stageInto(w.rs, r, w.k2, h/2)
	w.derivInto(w.rs, w.k3, w.bT)
	stageInto(w.rs, r, w.k3, h)
	w.derivInto(w.rs, w.k4, w.bT)
	for i := range out {
		out[i] = clampRate(r[i] + h/6*(k1[i]+2*w.k2[i]+2*w.k3[i]+w.k4[i]))
	}
}

// curvatureTol bounds how much the drift may change across one
// accepted step, relative to the drift at departure. An embedded error
// estimate alone is blind to the model's piecewise-flat regions:
// between the underload and overload plateaus the drift is constant,
// every stage sees the same drift, the fifth- and fourth-order
// solutions agree exactly, and an unbounded step leaps clear across
// the transition — the stage combination then cancels to a clamped
// limit cycle the truncation-error estimate scores as perfect. A
// region-crossing step always flips or slashes the endpoint drift, so
// rejecting on relative drift deviation catches exactly those steps;
// in the smooth regime it caps h·|λ| at O(1), which still contracts
// the residual by a constant factor per accepted step.
const curvatureTol = 0.5

// adaptiveStep advances one accepted step with embedded error control:
// each trial is one Dormand–Prince 5(4) step, the step halves while
// the fifth- and fourth-order solutions disagree beyond the local
// tolerance or the endpoint drift deviates beyond the curvature bound
// (or until the floor is hit), and the fifth-order state is committed.
// Every trial writes its state into next, so next holds the accepted
// one on return; the endpoint drift is the trial's FSAL stage, left in
// k7. A comfortably small estimate doubles the next trial step, which
// is what collapses the η ~ 1/N stiffness of large scaled populations
// into tens of accepted steps.
//
//ffc:hotpath
func (w *workspace) adaptiveStep(r, next []float64, h *float64, tol float64) {
	kscale := maxAbs(w.k1)
	for {
		hh := *h
		errEst := w.dormandPrince(r, next, hh)
		scale, dev := 1.0, 0.0
		for i := range next {
			if next[i] > scale-1 {
				scale = 1 + next[i]
			}
			if d := math.Abs(w.k7[i] - w.k1[i]); d > dev {
				dev = d
			}
		}
		if (errEst <= tol*scale && dev <= curvatureTol*kscale) || hh <= adaptiveMin {
			if errEst <= tol*scale/64 && dev <= curvatureTol*kscale/4 && hh < adaptiveMax {
				*h = hh * 2
			}
			return
		}
		*h = hh / 2
	}
}

// dormandPrince takes one Dormand–Prince 5(4) trial step of size h
// from r with the drift at r already in k1: six drift evaluations,
// every stage state clamped, the clamped fifth-order state written to
// out, and the seventh stage — the drift at out — left in k7 with its
// signal in bT. It returns the error estimate: the largest distance
// between out and the clamped embedded fourth-order state
// out − h·Σ dpEᵢ·kᵢ. out must not alias r or the workspace buffers.
//
//ffc:hotpath
func (w *workspace) dormandPrince(r, out []float64, h float64) float64 {
	k1, k2, k3, k4, k5, k6, k7, rs := w.k1, w.k2, w.k3, w.k4, w.k5, w.k6, w.k7, w.rs
	stageInto(rs, r, k1, h*dpA21)
	w.derivInto(rs, k2, w.bT)
	for i := range rs {
		rs[i] = clampRate(r[i] + h*(dpA31*k1[i]+dpA32*k2[i]))
	}
	w.derivInto(rs, k3, w.bT)
	for i := range rs {
		rs[i] = clampRate(r[i] + h*(dpA41*k1[i]+dpA42*k2[i]+dpA43*k3[i]))
	}
	w.derivInto(rs, k4, w.bT)
	for i := range rs {
		rs[i] = clampRate(r[i] + h*(dpA51*k1[i]+dpA52*k2[i]+dpA53*k3[i]+dpA54*k4[i]))
	}
	w.derivInto(rs, k5, w.bT)
	for i := range rs {
		rs[i] = clampRate(r[i] + h*(dpA61*k1[i]+dpA62*k2[i]+dpA63*k3[i]+dpA64*k4[i]+dpA65*k5[i]))
	}
	w.derivInto(rs, k6, w.bT)
	// rs keeps the unclamped fifth-order state for the error estimate.
	for i := range rs {
		rs[i] = r[i] + h*(dpB1*k1[i]+dpB3*k3[i]+dpB4*k4[i]+dpB5*k5[i]+dpB6*k6[i])
		out[i] = clampRate(rs[i])
	}
	w.derivInto(out, k7, w.bT)
	errEst := 0.0
	for i := range out {
		low := clampRate(rs[i] - h*(dpE1*k1[i]+dpE3*k3[i]+dpE4*k4[i]+dpE5*k5[i]+dpE6*k6[i]+dpE7*k7[i]))
		if d := math.Abs(out[i] - low); d > errEst {
			errEst = d
		}
	}
	return errEst
}

// stageInto writes the clamped explicit step out = max(0, r + h·k),
// the shared inner loop of the first Runge–Kutta stage.
//
//ffc:hotpath
func stageInto(out, r, k []float64, h float64) {
	for i := range out {
		out[i] = clampRate(r[i] + h*k[i])
	}
}

// clampRate projects a stage state back into the model's domain:
// negative and NaN collapse to the boundary 0, overflow saturates at
// a large finite cap the error control can still reject.
func clampRate(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > rateCap {
		return rateCap
	}
	return v
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Report assembles the machine-readable run report: core's report of
// the class-level system — class-indexed Rates, Signals, Delays and
// per-gateway Queues, population-weighted gateway utilization, total
// queue and connection count, so those equal what the expanded
// discrete run would report — plus the provenance: Backend, the
// represented Population, and the ClassWeights column saying how many
// connections each entry stands for.
func (s *System) Report(res *core.RunResult, scenario string) (*obs.RunReport, error) {
	rep, err := s.sys.Report(res, scenario)
	if err != nil {
		return nil, err
	}
	rep.Backend = "fluid"
	rep.Population = int64(s.Population())
	rep.ClassWeights = obs.Floats(s.Weights())
	return rep, nil
}
