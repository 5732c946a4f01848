package fluid

import (
	"fmt"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/finite"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// workspace holds every buffer one integration needs — flat
// per-(gateway, class) observation columns, the shared kernels'
// scratch, per-class stage and drift vectors — so repeated derivative
// evaluations allocate nothing. One workspace per goroutine;
// System.Run draws from the internal pool.
type workspace struct {
	// Per-gateway scratch, sized to the largest single gateway.
	rloc []float64 // member rates, local order
	qscr queueing.Scratch
	sscr signal.Scratch

	// Flat per-(gateway, member-class) columns, gateway a's block at
	// [off[a], off[a+1]).
	q, soj, sig []float64

	// err is the first kernel failure since acquire. derivInto has no
	// error return, so that the stage schemes stay plain arithmetic;
	// Run checks err after every step and Observe after its
	// evaluation. The kernels only fail on invalid input, which New,
	// checkRates and the stage clamp rule out.
	err error

	// Per-class columns.
	bR, dR         []float64 // combined signal/delay at the accepted point
	bT, dT         []float64 // same, at integrator stage points (throwaway)
	k1, k2, k3, k4 []float64 // stage derivatives
	kh             []float64 // drift at the adaptive midpoint
	rs             []float64 // stage state
	y1, y2, mid    []float64 // full-step, half-pair, and midpoint states
}

func (s *System) newWorkspace() *workspace {
	nC := len(s.weights)
	w := &workspace{
		rloc: make([]float64, s.maxGw),
		q:    make([]float64, s.total),
		soj:  make([]float64, s.total),
		sig:  make([]float64, s.total),
		bR:   make([]float64, nC),
		dR:   make([]float64, nC),
		bT:   make([]float64, nC),
		dT:   make([]float64, nC),
		k1:   make([]float64, nC),
		k2:   make([]float64, nC),
		k3:   make([]float64, nC),
		k4:   make([]float64, nC),
		kh:   make([]float64, nC),
		rs:   make([]float64, nC),
		y1:   make([]float64, nC),
		y2:   make([]float64, nC),
		mid:  make([]float64, nC),
	}
	w.qscr.Grow(s.maxGw)
	w.sscr.Grow(s.maxGw)
	return w
}

// derivInto evaluates the fluid drift Φ at the class rate vector r:
// per-gateway observation by the shared weighted kernels, per-class
// bottleneck combine, law adjust, and the boundary projection (a class
// at rate 0 with negative drift stays at 0, the ODE counterpart of the
// discrete max(0, ·)). f receives the drift, b and d the combined
// signal and delay at r; a kernel failure lands in w.err.
//
//ffc:hotpath
func (s *System) derivInto(w *workspace, r, f, b, d []float64) {
	for a, mem := range s.members {
		lo, hi := s.off[a], s.off[a+1]
		if lo == hi {
			continue // no class crosses this gateway
		}
		rl, q, m := w.rloc[:hi-lo], w.q[lo:hi], s.slotW[lo:hi]
		for k, c := range mem {
			rl[k] = r[c]
		}
		if err := s.disc.ObserveWeighted(q, w.soj[lo:hi], rl, m, s.mu[a], &w.qscr); err != nil && w.err == nil {
			w.err = err
		}
		if err := signal.GatewaySignalsWeighted(w.sig[lo:hi], s.style, s.b, q, m, &w.sscr); err != nil && w.err == nil {
			w.err = err
		}
	}
	for c := range f {
		slots := s.slots[c]
		route := s.routes[c]
		bc := 0.0
		dc := 0.0
		for hop, sl := range slots {
			if v := w.sig[sl]; v > bc {
				bc = v
			}
			dc += s.lat[route[hop]] + w.soj[sl]
		}
		b[c] = bc
		d[c] = dc
		fc := s.laws[c].Adjust(r[c], bc, dc)
		if r[c] == 0 && fc < 0 {
			fc = 0
		}
		f[c] = fc
	}
}

// checkRates validates a caller-supplied rate vector at the Run and
// Observe boundaries (integrator stage states are clamped internally
// and skip this).
func (s *System) checkRates(r []float64) error {
	if len(r) != len(s.weights) {
		return fmt.Errorf("fluid: %d rates for %d classes", len(r), len(s.weights))
	}
	for i, v := range r {
		if finite.IsBad(v) || v < 0 {
			return fmt.Errorf("fluid: invalid rate r[%d] = %v", i, v)
		}
	}
	return nil
}

// Observe computes the class-level observation at r. The shape mirrors
// core.Observation with classes in place of connections: Signals and
// Delays are class-indexed, Queues[a] lists gateway a's member classes
// in system class order, Bottlenecks[c] lists the gateways attaining
// class c's combined signal. Freshly allocated and caller-owned.
func (s *System) Observe(r []float64) (*core.Observation, error) {
	if err := s.checkRates(r); err != nil {
		return nil, err
	}
	w := s.acquire()
	defer s.release(w)
	s.derivInto(w, r, w.k1, w.bR, w.dR)
	if w.err != nil {
		return nil, fmt.Errorf("fluid: %w", w.err)
	}
	o := &core.Observation{
		Signals:     append([]float64(nil), w.bR...),
		Delays:      append([]float64(nil), w.dR...),
		Queues:      make([][]float64, len(s.members)),
		Bottlenecks: make([][]int, len(s.weights)),
	}
	for a, mem := range s.members {
		row := make([]float64, len(mem))
		copy(row, w.q[s.off[a]:s.off[a]+len(mem)])
		o.Queues[a] = row
	}
	const bottleneckTol = 1e-12 // same tolerance as core's combine
	for c := range o.Bottlenecks {
		var bn []int
		for hop, a := range s.routes[c] {
			if w.sig[s.slots[c][hop]] >= o.Signals[c]-bottleneckTol {
				bn = append(bn, a)
			}
		}
		o.Bottlenecks[c] = bn
	}
	return o, nil
}
