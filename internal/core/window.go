package core

import (
	"fmt"
	"math"
)

// WindowSystem models genuine window-based flow control on top of the
// same network, discipline, and signalling as System. Each source i
// maintains a window w_i of outstanding packets; by Little's law its
// sending rate satisfies the self-consistency condition
//
//	r_i = w_i / d_i(r)
//
// where d_i is the round-trip delay at the network state induced by
// all rates jointly. The adjustment laws act on windows: at each
// synchronous step, w'_i = max(0, w_i + f_i(w_i, b_i, d_i)).
//
// Section 4 of the paper approximates this system by a rate law with
// an η/d increase term; WindowSystem implements the real dynamics so
// that approximation can be tested (experiment E19). In particular the
// latency unfairness of window flow control — equal windows mean rates
// inversely proportional to round-trip delay — emerges here from the
// Little's-law coupling rather than being inserted by hand.
type WindowSystem struct {
	sys *System // supplies Observe; its laws are interpreted on windows
}

// NewWindowSystem assembles a window-based model. The laws' Adjust
// arguments are (w, b, d): current window, combined signal, and
// round-trip delay.
func NewWindowSystem(sys *System) (*WindowSystem, error) {
	if sys == nil {
		return nil, fmt.Errorf("core: nil system")
	}
	return &WindowSystem{sys: sys}, nil
}

// Rates solves the Little's-law fixed point r = w / d(r) for the given
// window vector, starting the damped inner iteration from rGuess
// (pass nil for a cold start). It returns the rates and the
// observation at them.
func (ws *WindowSystem) Rates(w []float64, rGuess []float64) ([]float64, *Observation, error) {
	return ws.rates(w, rGuess, nil)
}

// rates is Rates with an optional effective service-rate override
// (indexed like the topology's gateways), the seam RunOptions.Hook
// uses to model gateway degradation: the override applies to every
// inner fixed-point observation of the call. A nil override is the
// plain path.
func (ws *WindowSystem) rates(w []float64, rGuess, muOverride []float64) ([]float64, *Observation, error) {
	n := ws.sys.net.NumConnections()
	if len(w) != n {
		return nil, nil, fmt.Errorf("core: %d windows for %d connections", len(w), n)
	}
	for i, wi := range w {
		if wi < 0 || math.IsNaN(wi) || math.IsInf(wi, 0) {
			return nil, nil, fmt.Errorf("core: invalid window w[%d] = %v", i, wi)
		}
	}
	r := make([]float64, n)
	if rGuess != nil {
		if len(rGuess) != n {
			return nil, nil, fmt.Errorf("core: %d rate guesses for %d connections", len(rGuess), n)
		}
		copy(r, rGuess)
	} else {
		// Cold start: spread a modest total load.
		for i := range r {
			if w[i] > 0 {
				r[i] = 0.1 / float64(n)
			}
		}
	}
	const (
		damping = 0.5
		maxIter = 20000
		tol     = 1e-12
	)
	// The inner iteration can run for thousands of rounds; a dedicated
	// workspace makes each round allocation-free. The workspace is
	// created per call — not pooled — because its final Observation is
	// returned to (and retained by) the caller.
	work := ws.sys.NewWorkspace()
	work.muOverride = muOverride
	var obs *Observation
	var err error
	for it := 0; it < maxIter; it++ {
		obs, err = work.Observe(r)
		if err != nil {
			return nil, nil, err
		}
		maxChange := 0.0
		for i := range r {
			target := 0.0
			if w[i] > 0 && !math.IsInf(obs.Delays[i], 1) {
				target = w[i] / obs.Delays[i]
			}
			next := (1-damping)*r[i] + damping*target
			if c := math.Abs(next - r[i]); c > maxChange {
				maxChange = c
			}
			r[i] = next
		}
		if maxChange <= tol*(1+maxAbs(r)) {
			return r, obs, nil
		}
	}
	return nil, nil, fmt.Errorf("core: Little's-law fixed point did not converge (windows %v)", w)
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

// WindowRunResult reports a window-system run.
type WindowRunResult struct {
	// Windows is the final window vector.
	Windows []float64
	// Rates is the Little's-law rate vector at the final windows.
	Rates []float64
	// Steps is the number of window updates applied.
	Steps int
	// Converged reports whether the window change criterion was met.
	Converged bool
	// Final is the observation at the final rates.
	Final *Observation
	// Stats holds the run's telemetry. Residuals here are over window
	// adjustments: max_i |f_i(w_i, b_i, d_i)| with truncated windows
	// (w_i = 0, f_i < 0) contributing zero.
	Stats RunStats
}

// Run iterates the synchronous window adjustment from w0 until the
// windows converge or the step budget is exhausted. A RunOptions
// Tracer receives one callback per window update with the pre-update
// Little's-law rates and signals.
func (ws *WindowSystem) Run(w0 []float64, opt RunOptions) (*WindowRunResult, error) {
	opt = opt.WithDefaults()
	start := opt.Clock()
	n := ws.sys.net.NumConnections()
	if len(w0) != n {
		return nil, fmt.Errorf("core: %d initial windows for %d connections", len(w0), n)
	}
	w := append([]float64(nil), w0...)
	var r []float64
	res := &WindowRunResult{}
	// Hook scratch: an effective-mu copy the hook may scale, and the
	// pre-update windows PerturbNext receives (the update below runs
	// in place).
	var effMu, wPrev []float64
	if opt.Hook != nil {
		effMu = make([]float64, len(ws.sys.plan.mu))
		wPrev = make([]float64, n)
	}
	calm := 0
	for step := 0; step < opt.MaxSteps; step++ {
		var rates []float64
		var obs *Observation
		var err error
		if opt.Hook == nil {
			rates, obs, err = ws.Rates(w, r)
		} else {
			copy(effMu, ws.sys.plan.mu)
			opt.Hook.BeginStep(step, effMu)
			rates, obs, err = ws.rates(w, r, effMu)
			if err == nil {
				opt.Hook.PerturbObservation(step, rates, obs)
			}
		}
		if err != nil {
			return nil, err
		}
		r = rates
		maxChange, maxW, resid := 0.0, 0.0, 0.0
		if opt.Tracer != nil {
			// The residual must reflect the pre-update windows, so it
			// is assembled in the same pass as the updates below; the
			// tracer fires first with the pre-update rates, using a
			// dedicated pre-pass over the laws.
			for i := range w {
				f := ws.sys.laws[i].Adjust(w[i], obs.Signals[i], obs.Delays[i])
				if w[i] == 0 && f < 0 {
					continue
				}
				if a := math.Abs(f); a > resid {
					resid = a
				}
			}
			opt.Tracer.OnStep(step, r, resid, obs.Signals)
		}
		resid = 0
		if opt.Hook != nil {
			copy(wPrev, w)
		}
		for i := range w {
			f := ws.sys.laws[i].Adjust(w[i], obs.Signals[i], obs.Delays[i])
			if !(w[i] == 0 && f < 0) {
				if a := math.Abs(f); a > resid {
					resid = a
				}
			}
			next := w[i] + f
			if next < 0 || math.IsNaN(next) {
				next = 0
			}
			if c := math.Abs(next - w[i]); c > maxChange {
				maxChange = c
			}
			w[i] = next
			if w[i] > maxW {
				maxW = w[i]
			}
		}
		if opt.Hook != nil {
			opt.Hook.PerturbNext(step, wPrev, w)
			// The hook may have moved w; the calm window tracks the
			// perturbed change so churn and stuck faults reset it.
			maxChange, maxW = 0, 0
			for i := range w {
				if c := math.Abs(w[i] - wPrev[i]); c > maxChange {
					maxChange = c
				}
				if w[i] > maxW {
					maxW = w[i]
				}
			}
		}
		res.Stats.Observe(resid, step == 0)
		res.Steps = step + 1
		if maxChange <= opt.Tol*(1+maxW) {
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
	rates, obs, err := ws.Rates(w, r)
	if err != nil {
		return nil, err
	}
	res.Windows = w
	res.Rates = rates
	res.Final = obs
	finalResid := 0.0
	for i := range w {
		f := ws.sys.laws[i].Adjust(w[i], obs.Signals[i], obs.Delays[i])
		if w[i] == 0 && f < 0 {
			continue
		}
		if a := math.Abs(f); a > finalResid {
			finalResid = a
		}
	}
	res.Stats.Observe(finalResid, res.Steps == 0)
	res.Stats.FinalResidual = finalResid
	res.Stats.Steps = res.Steps
	res.Stats.WallTime = opt.Clock().Sub(start)
	return res, nil
}
