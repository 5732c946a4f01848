package fluid

import (
	"fmt"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/finite"
)

// workspace holds every buffer one integration needs — a workspace of
// the class-level core.System for the observations, per-class stage
// and drift vectors — so repeated derivative evaluations allocate
// nothing. One workspace per goroutine; System.Run draws from the
// internal pool.
type workspace struct {
	ws *core.Workspace

	// err is the first observation failure since acquire. derivInto
	// has no error return, so that the Runge–Kutta stages stay plain
	// arithmetic; Run checks err after every step. The kernels only
	// fail on invalid input, which FromSpec, checkRates and the stage
	// clamp rule out.
	err error

	// evals counts drift evaluations over the workspace's lifetime,
	// for the benchmarks' evals/op.
	evals int

	// Per-class columns.
	bR []float64 // combined signal at the accepted point
	bT []float64 // same, at integrator stage points (throwaway)
	// Stage drifts: RK4 uses k1–k4, Dormand–Prince all seven, k7
	// being the drift at the trial's endpoint.
	k1, k2, k3, k4, k5, k6, k7 []float64
	rs                         []float64 // stage state
}

func (s *System) newWorkspace() *workspace {
	nC := s.NumClasses()
	col := func() []float64 { return make([]float64, nC) }
	return &workspace{
		ws: s.sys.NewWorkspace(),
		bR: col(), bT: col(),
		k1: col(), k2: col(), k3: col(), k4: col(),
		k5: col(), k6: col(), k7: col(),
		rs: col(),
	}
}

// derivInto evaluates the fluid drift Φ at the class rate vector r,
// core's Drift on the class-level system: the law adjust at the
// class-level observation, with the boundary projection (a class at
// rate 0 with negative drift stays at 0, the ODE counterpart of the
// discrete max(0, ·)). f receives the drift and b the combined signal
// at r; a failure lands in w.err.
//
//ffc:hotpath
func (w *workspace) derivInto(r, f, b []float64) {
	w.evals++
	sig, err := w.ws.Drift(r, f)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	copy(b, sig)
}

// checkRates validates a caller-supplied rate vector at the Run and
// Observe boundaries (integrator stage states are clamped internally
// and skip this).
func (s *System) checkRates(r []float64) error {
	if len(r) != s.NumClasses() {
		return fmt.Errorf("fluid: %d rates for %d classes", len(r), s.NumClasses())
	}
	for i, v := range r {
		if finite.IsBad(v) || v < 0 {
			return fmt.Errorf("fluid: invalid rate r[%d] = %v", i, v)
		}
	}
	return nil
}

// Observe computes the class-level observation at r: core.Observation
// with classes in place of connections. Signals and Delays are
// class-indexed, Queues[a] lists gateway a's member classes in class
// order, Bottlenecks[c] lists the gateways attaining class c's
// combined signal. Freshly allocated and caller-owned.
func (s *System) Observe(r []float64) (*core.Observation, error) {
	if err := s.checkRates(r); err != nil {
		return nil, err
	}
	return s.sys.Observe(r)
}
