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

// Adaptive step-doubling control: the initial trial step is one
// discrete time unit; the step halves while the full-step vs two-half-
// step disagreement exceeds the local tolerance (relative to 1 + max
// rate) and doubles when the estimate is far below it. hMin breaks
// pathological stiffness loops; hMax keeps the step finite once the
// state pins to the fixed point.
const (
	adaptiveH0  = 1.0
	adaptiveMin = 1e-9
	adaptiveMax = 1e12
)

// Run integrates the fluid dynamics from r0 until convergence or the
// step budget is exhausted, mirroring core.System.Run's contract on
// the shared option and result types: same defaults, same residual
// telemetry, same tracer callback (class vectors in place of
// connection vectors), same Record semantics.
//
// With a fixed Config.Step each counted step advances time by exactly
// Step and convergence is core's criterion — sup-norm rate change at
// most Tol·(1 + max rate) for Window consecutive steps. In adaptive
// mode a counted step advances by whatever the error control accepted,
// so rate changes are not comparable across steps; convergence is
// instead on the drift residual max|Φ_c| ≤ Tol·(1 + max rate) for
// Window consecutive accepted steps, which is step-size independent.
//
// opt.Hook must be nil: fault injection is defined per connection and
// per synchronous round, neither of which survives the fluid limit —
// callers route perturbed runs to the discrete backend.
//
//ffc:taint sink
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
	fresh := false // k1, bR and dR already hold the drift at r
	for step := 0; step < opt.MaxSteps; step++ {
		// Drift at the current point: k1 seeds every stage scheme and
		// doubles as the residual and the tracer's signal source.
		if !fresh {
			s.derivInto(w, r, w.k1, w.bR, w.dR)
		}
		resid := maxAbs(w.k1)
		res.Stats.Observe(resid, step == 0)
		if opt.Tracer != nil {
			opt.Tracer.OnStep(step, r, resid, w.bR)
		}
		if adaptive {
			s.adaptiveStep(w, r, next, &h, opt.Tol)
			// The step's curvature check left the drift at the accepted
			// state in k2, bT and dT: the next step's k1, bR and dR.
			w.k1, w.k2 = w.k2, w.k1
			w.bR, w.bT = w.bT, w.bR
			w.dR, w.dT = w.dT, w.dR
			fresh = true
		} else {
			s.advanceFrom(w, r, w.k1, next, h)
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
	final, err := s.Observe(r)
	if err != nil {
		return nil, err
	}
	res.Final = final
	s.derivInto(w, r, w.k1, w.bT, w.dT)
	finalResid := maxAbs(w.k1)
	res.Stats.Observe(finalResid, res.Steps == 0)
	res.Stats.FinalResidual = finalResid
	res.Stats.Steps = res.Steps
	res.Stats.WallTime = opt.Clock().Sub(start)
	return res, nil
}

// advanceFrom applies one step of the configured stage scheme from r
// with the drift at r already in k1, writing the clamped result into
// out. out must not alias r or the workspace stage buffers.
//
//ffc:hotpath
func (s *System) advanceFrom(w *workspace, r, k1, out []float64, h float64) {
	switch s.method {
	case Euler:
		// With h = 1 this is the discrete map r' = max(0, r + f)
		// bit-for-bit — the lockstep cross-validation mode.
		stageInto(out, r, k1, h)
	case Midpoint:
		stageInto(w.rs, r, k1, h/2)
		s.derivInto(w, w.rs, w.k2, w.bT, w.dT)
		stageInto(out, r, w.k2, h)
	default: // RK4
		stageInto(w.rs, r, k1, h/2)
		s.derivInto(w, w.rs, w.k2, w.bT, w.dT)
		stageInto(w.rs, r, w.k2, h/2)
		s.derivInto(w, w.rs, w.k3, w.bT, w.dT)
		stageInto(w.rs, r, w.k3, h)
		s.derivInto(w, w.rs, w.k4, w.bT, w.dT)
		for i := range out {
			out[i] = clampRate(r[i] + h/6*(k1[i]+2*w.k2[i]+2*w.k3[i]+w.k4[i]))
		}
	}
}

// curvatureTol bounds how much the drift may change across one
// accepted step, relative to the drift at departure. Step-doubling
// alone is blind to the model's piecewise-flat regions: between the
// underload and overload plateaus the drift is constant, full step and
// half pair agree exactly, and an unbounded step leaps clear across
// the transition — the stage combination then cancels to a clamped
// limit cycle the truncation-error estimate scores as perfect. A
// region-crossing step always flips or slashes the endpoint drift, so
// rejecting on relative drift deviation catches exactly those steps;
// in the smooth regime it caps h·|λ| at O(1), which still contracts
// the residual by a constant factor per accepted step.
const curvatureTol = 0.5

// adaptiveStep advances one accepted step with step-doubling error
// control: the full-step result is checked against two half steps,
// the step halves while they disagree beyond the local tolerance or
// the endpoint drift deviates beyond the curvature bound (or until
// the floor is hit), and the agreed half-pair state — the more
// accurate of the two — is committed. A comfortably small estimate
// doubles the next trial step, which is what collapses the η ~ 1/N
// stiffness of large scaled populations into tens of accepted steps.
func (s *System) adaptiveStep(w *workspace, r, next []float64, h *float64, tol float64) {
	kscale := maxAbs(w.k1)
	for {
		hh := *h
		s.advanceFrom(w, r, w.k1, w.y1, hh)
		stageHalfPair(s, w, r, hh)
		errEst, scale := 0.0, 1.0
		for i := range w.y1 {
			if d := math.Abs(w.y1[i] - w.y2[i]); d > errEst {
				errEst = d
			}
			if w.y2[i] > scale-1 {
				scale = 1 + w.y2[i]
			}
		}
		// Drift deviation across the step (k2 is free after the stages).
		s.derivInto(w, w.y2, w.k2, w.bT, w.dT)
		dev := 0.0
		for i := range w.k2 {
			if d := math.Abs(w.k2[i] - w.k1[i]); d > dev {
				dev = d
			}
		}
		if (errEst <= tol*scale && dev <= curvatureTol*kscale) || hh <= adaptiveMin {
			copy(next, w.y2)
			if errEst <= tol*scale/64 && dev <= curvatureTol*kscale/4 && hh < adaptiveMax {
				*h = hh * 2
			}
			return
		}
		*h = hh / 2
	}
}

// stageHalfPair computes two half steps of the configured scheme from
// r into w.y2, reusing the drift at r in w.k1 for the first half and
// evaluating the midpoint drift into w.kh for the second.
func stageHalfPair(s *System, w *workspace, r []float64, h float64) {
	s.advanceFrom(w, r, w.k1, w.mid, h/2)
	s.derivInto(w, w.mid, w.kh, w.bT, w.dT)
	s.advanceFrom(w, w.mid, w.kh, w.y2, h/2)
}

// stageInto writes the clamped explicit step out = max(0, r + h·k),
// the shared inner loop of every stage scheme.
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

// Report assembles the machine-readable run report, mirroring
// core.System.Report with class-indexed vectors: Rates, Signals,
// Delays, and each gateway's Queues carry one entry per class, the
// report's ClassWeights column says how many connections each entry
// represents, and Backend/Population mark the provenance. Gateway
// utilization and queue totals are population-weighted, so they equal
// what the expanded discrete run would report; GatewayReport.
// Connections is the represented population at the gateway.
func (s *System) Report(res *core.RunResult, scenario string) (*obs.RunReport, error) {
	if res == nil || res.Final == nil {
		return nil, fmt.Errorf("fluid: report of an incomplete run")
	}
	rep := &obs.RunReport{
		Schema:          obs.RunReportSchema,
		Scenario:        scenario,
		Steps:           res.Steps,
		Converged:       res.Converged,
		WallNS:          res.Stats.WallTime.Nanoseconds(),
		InitialResidual: obs.Float(res.Stats.InitialResidual),
		FinalResidual:   obs.Float(res.Stats.FinalResidual),
		MinResidual:     obs.Float(res.Stats.MinResidual),
		MaxResidual:     obs.Float(res.Stats.MaxResidual),
		Rates:           obs.Floats(res.Rates),
		Signals:         obs.Floats(res.Final.Signals),
		Delays:          obs.Floats(res.Final.Delays),
		Backend:         "fluid",
		Population:      int64(s.Population()),
		ClassWeights:    obs.Floats(s.weights),
	}
	for a, queues := range res.Final.Queues {
		g := obs.GatewayReport{
			Gateway:     a,
			Connections: int(s.gwWeight[a]),
			Queues:      obs.Floats(queues),
		}
		load := 0.0
		for _, c := range s.members[a] {
			load += s.weights[c] * res.Rates[c]
		}
		g.Utilization = obs.Float(load / s.mu[a])
		total, max := 0.0, 0.0
		for k, q := range queues {
			total += s.weights[s.members[a][k]] * q
			if q > max {
				max = q
			}
		}
		g.TotalQueue = obs.Float(total)
		g.MaxQueue = obs.Float(max)
		rep.Gateways = append(rep.Gateways, g)
	}
	return rep, nil
}
