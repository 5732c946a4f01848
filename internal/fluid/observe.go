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
	// has no error return, so that the RK4 stages stay plain
	// arithmetic; Run checks err after every step. The kernels only
	// fail on invalid input, which FromSpec, checkRates and the stage
	// clamp rule out.
	err error

	// Per-class columns.
	bR             []float64 // combined signal at the accepted point
	bT             []float64 // same, at integrator stage points (throwaway)
	k1, k2, k3, k4 []float64 // stage derivatives
	kh             []float64 // drift at the adaptive midpoint
	rs             []float64 // stage state
	y1, y2, mid    []float64 // full-step, half-pair, and midpoint states
}

func (s *System) newWorkspace() *workspace {
	nC := s.NumClasses()
	col := func() []float64 { return make([]float64, nC) }
	return &workspace{
		ws: s.sys.NewWorkspace(),
		bR: col(), bT: col(),
		k1: col(), k2: col(), k3: col(), k4: col(),
		kh: col(), rs: col(),
		y1: col(), y2: col(), mid: col(),
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
