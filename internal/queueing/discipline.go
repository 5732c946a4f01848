// Package queueing implements the gateway service-discipline models of
// Section 2.2 of the paper: the function Q(r) mapping a vector of
// Poisson sending rates to per-connection average queue lengths at an
// exponential server, for the FIFO and Fair Share disciplines, together
// with the feasibility constraints any realizable non-stalling
// discipline must satisfy, the robustness bound of Theorem 5, and the
// Table 1 priority decomposition.
//
// Queue lengths here are mean numbers in system (M/M/1 convention), so
// the fundamental function is g(x) = x/(1−x): the mean number in
// system of an M/M/1 queue at load x. Overload (load ≥ 1) is
// represented by +Inf queue entries rather than an error, because
// overload is a legitimate transient state of the flow-control
// iteration: the congestion signal saturates at 1 and the sources back
// off.
package queueing

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/order"
)

// Discipline computes steady-state per-connection queue statistics for
// one gateway. Implementations must be symmetric in the rate vector
// (datagram gateways have no a-priori knowledge of connections) and
// time-scale invariant: Q(c·r, c·μ) = Q(r, μ).
type Discipline interface {
	// Name identifies the discipline ("FIFO", "FairShare").
	Name() string

	// Queues returns the average queue length Q_i of each connection,
	// given sending rates r and server rate mu. Overloaded connections
	// have Q_i = +Inf; zero-rate connections have Q_i = 0. It returns an
	// error for invalid input (negative or non-finite rates, mu <= 0).
	Queues(r []float64, mu float64) ([]float64, error)

	// SojournTimes returns the mean time in system W_i of each
	// connection's packets (Little's law W_i = Q_i / r_i), using the
	// analytic zero-rate limit for probe connections with r_i = 0.
	SojournTimes(r []float64, mu float64) ([]float64, error)
}

// G is the M/M/1 occupancy function g(x) = x/(1−x). It returns +Inf
// for x ≥ 1 and panics for negative or NaN x: a negative load is
// always a caller bug, never a model state.
func G(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		panic(fmt.Sprintf("queueing: g(%v) undefined", x))
	}
	if x >= 1 {
		return math.Inf(1)
	}
	return x / (1 - x)
}

// GInv inverts g: GInv(q) = q/(1+q), mapping a target total queue to
// the load that produces it. GInv(+Inf) = 1.
func GInv(q float64) float64 {
	if q < 0 || math.IsNaN(q) {
		panic(fmt.Sprintf("queueing: g⁻¹(%v) undefined", q))
	}
	if math.IsInf(q, 1) {
		return 1
	}
	return q / (1 + q)
}

// validate checks a rate vector, its multiplicity column (nil is the
// unit column) and a server rate, returning the total rate Σ m_i·r_i
// (ρ_tot·μ; callers that need ρ_tot divide, the others skip the
// division) and the total multiplicity Σ m_i.
func validate(r, m []float64, mu float64) (sum, total float64, err error) {
	if len(r) == 0 {
		return 0, 0, fmt.Errorf("queueing: empty rate vector")
	}
	if m != nil && len(m) != len(r) {
		return 0, 0, fmt.Errorf("queueing: %d multiplicities for %d rates", len(m), len(r))
	}
	if mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return 0, 0, fmt.Errorf("queueing: invalid service rate %v", mu)
	}
	for i, ri := range r {
		if ri < 0 || math.IsNaN(ri) || math.IsInf(ri, 0) {
			return 0, 0, fmt.Errorf("queueing: invalid rate r[%d] = %v", i, ri)
		}
		mi := weight(m, i)
		if mi <= 0 || math.IsNaN(mi) || math.IsInf(mi, 0) {
			return 0, 0, fmt.Errorf("queueing: invalid multiplicity m[%d] = %v", i, mi)
		}
		sum += mi * ri
		total += mi
	}
	return sum, total, nil
}

// weight is slot i's multiplicity: m[i], or 1 for the nil column that
// stands for one connection per slot. 1·x is x bit for bit, and
// integer-valued totals are exact far beyond any real population, so
// the unit case of every weighted kernel computes exactly what a
// per-connection kernel would.
func weight(m []float64, i int) float64 {
	if m == nil {
		return 1
	}
	return m[i]
}

// TotalQueue returns the aggregate mean queue Q_tot = g(ρ_tot). It is
// the same for every non-stalling discipline (work conservation), a
// fact the paper uses to make aggregate congestion signals insensitive
// to the service discipline.
func TotalQueue(r []float64, mu float64) (float64, error) {
	sum, _, err := validate(r, nil, mu)
	if err != nil {
		return 0, err
	}
	return G(sum / mu), nil
}

// Scratch holds the reusable working storage an InPlace discipline
// needs between calls: the slots' ascending-rate permutation, which
// the next call repairs instead of rebuilding (internal/order), and
// the two float64 buffers only NonPreemptiveFairShare uses, grown on
// its first call. The zero value is ready to use; buffers grow on
// demand and are then reused, so steady-state evaluation performs no
// allocations. The retained permutation only makes the next sort
// cheaper when the rates barely moved: results do not depend on it,
// so one Scratch may serve any sequence of gateways. A Scratch is not
// safe for concurrent use — give each goroutine its own.
type Scratch struct {
	idx    []int
	f1, f2 []float64
}

// Grow pre-sizes the scratch's permutation for an n-connection
// gateway, so that even the first FairShare call on it allocates
// nothing. Growing is otherwise automatic (and amortized
// free) on first use; pre-sizing exists for callers — core.Workspace
// — that size all hot columns at plan-compile time.
func (s *Scratch) Grow(n int) {
	if cap(s.idx) < n {
		s.idx = make([]int, 0, n)
	}
}

// order repairs s.idx into 0..n-1 sorted by ascending rate, ties in
// slot order — the priority ordering shared by both Fair Share
// variants — and returns it.
//
//ffc:hotpath
func (s *Scratch) order(r []float64) []int {
	s.idx = order.Repair(s.idx, r)
	return s.idx
}

// floats returns the two n-slot buffers of the non-preemptive
// recursion, growing them on first use.
func (s *Scratch) floats(n int) (f1, f2 []float64) {
	if cap(s.f1) < n {
		s.f1 = make([]float64, n)
		s.f2 = make([]float64, n)
	}
	return s.f1[:n], s.f2[:n]
}

// InPlace is implemented by disciplines whose queue model is a
// weighted, allocation-free kernel — every discipline in this package.
//
// Slot k of a weighted call stands for m[k] identical connections at
// rate r[k] (a class of the fluid backend, internal/fluid); q[k] and
// w[k] are the queue and sojourn time of each one of them, exactly
// what m[k] copies of the slot in a per-connection vector would get,
// up to the summation order. This is the class-level model of
// Kelly–Williams' fair bandwidth-sharing fluid limit. A nil m is the
// unit column, one connection per slot: the case every discrete caller
// uses, with results bit-identical to the per-connection formulas.
// Multiplicities must be positive and finite.
type InPlace interface {
	Discipline

	// ObserveWeighted writes the queues into q and the sojourn times
	// into w (both of length len(r)) for rates r with multiplicities
	// m, using scr for any intermediate storage.
	ObserveWeighted(q, w, r, m []float64, mu float64, scr *Scratch) error
}

// ObserveInto evaluates d's queues and sojourn times at (r, mu) into q
// and w, one connection per slot. Disciplines implementing InPlace are
// evaluated without allocation; any other Discipline falls back to
// the allocating methods with results copied into the buffers, so
// callers get one uniform zero-garbage entry point either way (modulo
// the fallback's own allocations).
//
// The ffc:hotpath directive marks the zero-allocation contract; the
// hotalloc analyzer rejects allocating constructs in functions
// carrying it.
//
//ffc:hotpath
func ObserveInto(d Discipline, q, w, r []float64, mu float64, scr *Scratch) error {
	if len(q) != len(r) || len(w) != len(r) {
		return fmt.Errorf("queueing: buffers %d/%d for %d rates", len(q), len(w), len(r))
	}
	if ip, ok := d.(InPlace); ok {
		return ip.ObserveWeighted(q, w, r, nil, mu, scr)
	}
	qq, err := d.Queues(r, mu)
	if err != nil {
		return err
	}
	ww, err := d.SojournTimes(r, mu)
	if err != nil {
		return err
	}
	copy(q, qq)
	copy(w, ww)
	return nil
}

// observe is the allocating path behind every InPlace discipline's
// Queues and SojournTimes: one kernel call, so the entry points can
// never drift apart.
func observe(d InPlace, r []float64, mu float64) (q, w []float64, err error) {
	q = make([]float64, len(r))
	w = make([]float64, len(r))
	if err := d.ObserveWeighted(q, w, r, nil, mu, new(Scratch)); err != nil {
		return nil, nil, err
	}
	return q, w, nil
}
