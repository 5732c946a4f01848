package core

import (
	"fmt"
	"math"
	"math/rand"
)

// RunAsync iterates the model with asynchronous updates: at each step
// one uniformly random connection applies its rate adjustment while
// all others hold still. This is the relaxation of the paper's
// synchronous-update assumption that Section 2.5 flags as the model's
// most consequential idealization ("the lack of asynchrony certainly
// affects the stability results").
//
// Steps in the result count individual single-connection updates.
// Convergence is declared when the steady-state residual max|f_i|
// drops below opt.Tol (measured once per N updates); note this is a
// residual criterion, not the rate-change criterion used by Run,
// because a single asynchronous update moving one coordinate slightly
// says nothing about the rest.
//
// When opt.Tracer is set it is invoked once per single-connection
// update with the pre-update state, under the same contract as Run
// (see obs.StepTracer). The result's Stats summarize the residual
// trajectory over the states at which residuals were evaluated: every
// step when tracing, otherwise the once-per-N convergence checks plus
// the initial and final states.
//
//ffc:taint sink
func (s *System) RunAsync(r0 []float64, opt RunOptions, seed int64) (*RunResult, error) {
	opt = opt.WithDefaults()
	start := opt.Clock()
	n := s.net.NumConnections()
	if len(r0) != n {
		return nil, fmt.Errorf("core: %d initial rates for %d connections", len(r0), n)
	}
	rng := rand.New(rand.NewSource(seed))
	r := append([]float64(nil), r0...)
	ws := s.acquire()
	defer s.release(ws)
	res := &RunResult{}
	if opt.Record {
		res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
	}
	sampled := false
	for step := 0; step < opt.MaxSteps; step++ {
		i := rng.Intn(n)
		obs, err := ws.Observe(r)
		if err != nil {
			return nil, err
		}
		// The residual at the pre-update state comes almost for free
		// given the observation; compute it when anything consumes it
		// (the tracer every step, the stats on the first step).
		if opt.Tracer != nil || !sampled {
			resid := s.residualFrom(r, obs)
			res.Stats.Observe(resid, !sampled)
			sampled = true
			if opt.Tracer != nil {
				opt.Tracer.OnStep(step, r, resid, obs.Signals)
			}
		}
		f := s.laws[i].Adjust(r[i], obs.Signals[i], obs.Delays[i])
		v := r[i] + f
		if v < 0 || math.IsNaN(v) {
			v = 0
		}
		r[i] = v
		res.Steps = step + 1
		if opt.Record {
			res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
		}
		if (step+1)%n == 0 {
			resid, err := ws.Residual(r)
			if err != nil {
				return nil, err
			}
			res.Stats.Observe(resid, !sampled)
			sampled = true
			if resid <= opt.Tol {
				res.Converged = true
				break
			}
		}
	}
	res.Rates = r
	final, err := s.Observe(r)
	if err != nil {
		return nil, err
	}
	res.Final = final
	finalResid := s.residualFrom(r, final)
	res.Stats.Observe(finalResid, !sampled)
	res.Stats.FinalResidual = finalResid
	res.Stats.Steps = res.Steps
	res.Stats.WallTime = opt.Clock().Sub(start)
	return res, nil
}
