package core

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// Workspace holds every buffer the iteration r' = F(r) needs — flat
// per-gateway rate/queue/sojourn/signal scratch, one discipline and
// one signal sort scratch per gateway, and a reusable Observation — so
// repeated Observe and Step calls perform zero heap allocations in
// steady state. All sizing comes from the System's compiled plan,
// fixed at NewSystem time.
//
// A Workspace belongs to one goroutine at a time; give each concurrent
// worker its own (System itself remains safe for concurrent use, and
// System.Step/Run draw from an internal pool). The Observation
// returned by Observe and the observation passed to tracers are owned
// by the workspace and overwritten by its next call.
type Workspace struct {
	sys *System

	// Flat per-gateway scratch: gateway a's block is the slot range
	// [plan.off[a], plan.off[a+1]).
	local    []float64 // per-gateway rate vectors
	sojourns []float64 // per-gateway sojourn times W^a_i
	signals  []float64 // per-gateway signals b^a_i
	queues   []float64 // backing array of obs.Queues
	bn       []int     // backing array of obs.Bottlenecks rows

	// Per-gateway sort scratch: scr[a] keeps gateway a's ascending-rate
	// order and sigScr[a] its ascending-queue order from the previous
	// observation, so the next one repairs a nearly sorted permutation
	// instead of sorting from scratch. The orders are cost hints only
	// (see internal/order): a workspace's results never depend on what
	// it observed before.
	scr    []queueing.Scratch
	sigScr []signal.Scratch
	obs    Observation

	// muOverride, when non-nil, replaces the plan's per-gateway
	// service rates for the next observe call; hookedStep points it at
	// effMu (a copy of plan.mu the StepHook may scale in place) for
	// the duration of one step. Both are nil on the unhooked path, so
	// plain runs never pay for the indirection.
	muOverride []float64
	effMu      []float64

	// acc is the accelerated solve's state, sized on the workspace's
	// first accelerated run.
	acc *anderson
}

// NewWorkspace allocates a Workspace for s. Every hot per-connection
// column — rates, queues, sojourns, signals, the bottleneck index rows
// — lives in one flat contiguous backing array per field (structure of
// arrays), and each gateway's discipline and signal sort scratches are
// pre-grown to its population, all sized from the compiled plan
// here. Subsequent Observe/Step calls therefore allocate nothing at
// all, first call included (the non-preemptive ablation excepted: it
// grows two buffers per gateway on its first call), and the step
// kernel streams each column cache-linearly. The workspace's queue
// rows (obs.Queues[a]) and bottleneck rows (obs.Bottlenecks[i]) are
// views into those backing arrays, established once and reused by
// every call.
func (s *System) NewWorkspace() *Workspace {
	p := &s.plan
	total := p.off[p.nGws]
	w := &Workspace{
		sys:      s,
		local:    make([]float64, total),
		sojourns: make([]float64, total),
		signals:  make([]float64, total),
		queues:   make([]float64, total),
		bn:       make([]int, p.connOff[p.nConns]),
		scr:      make([]queueing.Scratch, p.nGws),
		sigScr:   make([]signal.Scratch, p.nGws),
		obs: Observation{
			Signals:     make([]float64, p.nConns),
			Delays:      make([]float64, p.nConns),
			Queues:      make([][]float64, p.nGws),
			Bottlenecks: make([][]int, p.nConns),
		},
	}
	for a := 0; a < p.nGws; a++ {
		lo, hi := p.off[a], p.off[a+1]
		w.obs.Queues[a] = w.queues[lo:hi:hi]
		w.scr[a].Grow(hi - lo)
		w.sigScr[a].Grow(hi - lo)
	}
	for i := 0; i < p.nConns; i++ {
		lo, hi := p.connOff[i], p.connOff[i+1]
		w.obs.Bottlenecks[i] = w.bn[lo:lo:hi]
	}
	return w
}

// System returns the system this workspace steps.
func (w *Workspace) System() *System { return w.sys }

// Observe computes the Observation at rate vector r into the
// workspace's reusable Observation and returns it. The result — every
// slice in it — is borrowed from the workspace: it is valid only until
// the next Observe/Step/Run call on this workspace, and must be copied
// to be retained. Values are bit-identical to System.Observe.
//
// The ffc:hotpath directive marks the steady-state zero-allocation
// contract (guarded by the allocation benchmarks); the hotalloc
// analyzer mechanically rejects allocating constructs in any function
// carrying it.
//
//ffc:hotpath
func (w *Workspace) Observe(r []float64) (*Observation, error) {
	if err := w.observe(r); err != nil {
		return nil, err
	}
	w.bottlenecks()
	return &w.obs, nil
}

// observeCopy computes the observation at r on the workspace and
// returns a caller-owned deep copy of it.
func (w *Workspace) observeCopy(r []float64) (*Observation, error) {
	if err := w.observe(r); err != nil {
		return nil, err
	}
	w.bottlenecks()
	return w.obs.clone(), nil
}

// Drift writes the model's drift at r into f: f_i(r_i, b_i, d_i), or 0
// for a connection held at rest by the truncation rule (r_i = 0 with
// f_i < 0). It is the right-hand side of the fluid ODE, of which the
// synchronous update max(0, r + f) is the Euler step. The returned
// combined signals b_i are borrowed from the workspace, like
// Observe's result; bottleneck rows are not computed.
//
//ffc:hotpath
func (w *Workspace) Drift(r, f []float64) ([]float64, error) {
	if len(f) != len(r) {
		return nil, fmt.Errorf("core: %d-slot buffer for %d rates", len(f), len(r))
	}
	if err := w.observe(r); err != nil {
		return nil, err
	}
	laws := w.sys.laws
	for i := range r {
		fi := laws[i].Adjust(r[i], w.obs.Signals[i], w.obs.Delays[i])
		if r[i] == 0 && fi < 0 {
			fi = 0
		}
		f[i] = fi
	}
	return w.obs.Signals, nil
}

// clone returns a deep copy of o that shares nothing with it. One
// flat allocation backs the signals, the delays and every queue row,
// another every bottleneck row; each row is capped at its length.
func (o *Observation) clone() *Observation {
	n, nq, nb := len(o.Signals), 0, 0
	for _, row := range o.Queues {
		nq += len(row)
	}
	for _, row := range o.Bottlenecks {
		nb += len(row)
	}
	f := make([]float64, 2*n+nq)
	bn := make([]int, nb)
	c := &Observation{
		Signals:     f[:n:n],
		Delays:      f[n : 2*n : 2*n],
		Queues:      make([][]float64, len(o.Queues)),
		Bottlenecks: make([][]int, len(o.Bottlenecks)),
	}
	copy(c.Signals, o.Signals)
	copy(c.Delays, o.Delays)
	f = f[2*n:]
	for a, row := range o.Queues {
		c.Queues[a] = f[:len(row):len(row)]
		copy(c.Queues[a], row)
		f = f[len(row):]
	}
	for i, row := range o.Bottlenecks {
		c.Bottlenecks[i] = bn[:len(row):len(row)]
		copy(c.Bottlenecks[i], row)
		bn = bn[len(row):]
	}
	return c
}

// observe fills w.obs with the observation at r without allocating,
// bottleneck rows excepted: only the callers that hand out the whole
// Observation add them, with bottlenecks.
//
//ffc:hotpath
func (w *Workspace) observe(r []float64) error {
	s := w.sys
	p := &s.plan
	if len(r) != p.nConns {
		return fmt.Errorf("core: %d rates for %d connections", len(r), p.nConns)
	}
	// Per-gateway queue vectors, sojourn times, and signals, written
	// into the flat scratch blocks.
	mu := p.mu
	if w.muOverride != nil {
		mu = w.muOverride
	}
	for a := 0; a < p.nGws; a++ {
		lo, hi := p.off[a], p.off[a+1]
		local := w.local[lo:hi]
		for k, i := range p.conns[a] {
			local[k] = r[i]
		}
		var m []float64 // unit weights unless the system is weighted
		if p.m != nil {
			m = p.m[lo:hi]
		}
		if err := s.kernel.ObserveWeighted(w.queues[lo:hi], w.sojourns[lo:hi], local, m, mu[a], &w.scr[a]); err != nil {
			return fmt.Errorf("core: gateway %d: %w", a, err)
		}
		if err := signal.GatewaySignalsWeighted(w.signals[lo:hi], s.style, s.b, w.queues[lo:hi], m, &w.sigScr[a]); err != nil {
			return fmt.Errorf("core: gateway %d: %w", a, err)
		}
	}
	// Combine along paths: b_i is the largest per-hop signal
	// (signal.CombineBottleneck, inlined into the delay sum's loop).
	for i := 0; i < p.nConns; i++ {
		slots := p.slots[i]
		hopLat := p.hopLat[i]
		b, d := 0.0, 0.0
		for hop, k := range slots {
			v := w.signals[k]
			if !(v >= 0 && v <= 1) { // NaN fails both
				return fmt.Errorf("core: connection %d: signal: %v outside [0,1]", i, v)
			}
			if v > b {
				b = v
			}
			d += hopLat[hop] + w.sojourns[k]
		}
		w.obs.Signals[i] = b
		w.obs.Delays[i] = d
	}
	return nil
}

// bottlenecks fills w.obs.Bottlenecks from the last observe: the
// gateways on each path whose signal attains the combined one, within
// a small tolerance.
//
//ffc:hotpath
func (w *Workspace) bottlenecks() {
	const bottleneckTol = 1e-12
	p := &w.sys.plan
	for i, slots := range p.slots {
		b := w.obs.Signals[i]
		bn := w.obs.Bottlenecks[i][:0]
		for hop, a := range p.routes[i] {
			if w.signals[slots[hop]] >= b-bottleneckTol {
				bn = append(bn, a)
			}
		}
		w.obs.Bottlenecks[i] = bn
	}
}

// Step applies one synchronous update r' = max(0, r + f(r, b, d)),
// writing the result into next. next must have length len(r) and must
// not alias r. It is the allocation-free counterpart of System.Step
// and produces bit-identical values.
//
//ffc:hotpath
func (w *Workspace) Step(r, next []float64) error {
	if len(next) != len(r) {
		return fmt.Errorf("core: %d-slot buffer for %d rates", len(next), len(r))
	}
	_, _, err := w.stepInto(r, next)
	return err
}

// stepInto applies one synchronous update of r into next (same length,
// no aliasing), returning the workspace's observation at r and the
// steady-state residual max|f_i| there. Computing the residual
// alongside the update is free — the f_i are already in hand — which
// is what lets Run keep a residual trajectory summary without extra
// Observe calls.
//
//ffc:hotpath
func (w *Workspace) stepInto(r, next []float64) (*Observation, float64, error) {
	if err := w.observe(r); err != nil {
		return nil, 0, err
	}
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
	return &w.obs, residual, nil
}

// Residual is the allocation-free counterpart of System.Residual.
//
//ffc:hotpath
func (w *Workspace) Residual(r []float64) (float64, error) {
	if err := w.observe(r); err != nil {
		return 0, err
	}
	return w.sys.residualFrom(r, &w.obs), nil
}
