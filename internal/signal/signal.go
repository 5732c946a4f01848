// Package signal implements the congestion-signalling side of feedback
// flow control (Section 2.3.1 of the paper): signal functions B
// mapping a congestion measure C ∈ [0, ∞] to a signal b ∈ [0, 1], the
// aggregate and individual congestion measures computed from gateway
// queue lengths, and the bottleneck combination b_i = max_a b^a_i.
package signal

import (
	"fmt"
	"math"

	"github.com/nettheory/feedbackflow/internal/order"
)

// Func is a congestion signal function B. The paper requires B to be
// strictly increasing with B(0) = 0 and B(∞) = 1; implementations in
// this package satisfy that, and Inverse exists so the Theorem 2 fair
// steady state can be constructed.
type Func interface {
	// Name identifies the signal function.
	Name() string
	// Eval returns B(c) ∈ [0,1]. c must be non-negative (or +Inf).
	Eval(c float64) float64
	// Inverse returns the congestion C with B(C) = b, for b ∈ [0,1).
	// b = 1 maps to +Inf. Values outside [0,1] are an error.
	Inverse(b float64) (float64, error)
}

func checkCongestion(c float64) {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("signal: congestion measure %v is invalid", c))
	}
}

func checkSignalRange(b float64) error {
	if b < 0 || b > 1 || math.IsNaN(b) {
		return fmt.Errorf("signal: %v outside [0,1]", b)
	}
	return nil
}

// Rational is the paper's worked-example signal B(C) = C/(1+C). Under
// aggregate feedback with C = g(ρ) it makes b = ρ exactly, which is
// what produces the clean 1−ηN eigenvalue in the Section 3.3
// instability example.
type Rational struct{}

// Name implements Func.
func (Rational) Name() string { return "C/(1+C)" }

// Eval implements Func.
func (Rational) Eval(c float64) float64 {
	checkCongestion(c)
	if math.IsInf(c, 1) {
		return 1
	}
	return c / (1 + c)
}

// Inverse implements Func.
func (Rational) Inverse(b float64) (float64, error) {
	if err := checkSignalRange(b); err != nil {
		return 0, err
	}
	if b == 1 {
		return math.Inf(1), nil
	}
	return b / (1 - b), nil
}

// Power is B(C) = (C/(1+C))^K. K = 2 yields the quadratic map of the
// Section 3.3 chaos example; K = 1 reduces to Rational.
type Power struct {
	K float64 // exponent, must be > 0
}

// Name implements Func.
func (p Power) Name() string { return fmt.Sprintf("(C/(1+C))^%g", p.K) }

// Eval implements Func.
func (p Power) Eval(c float64) float64 {
	checkCongestion(c)
	if p.K <= 0 || math.IsNaN(p.K) {
		panic(fmt.Sprintf("signal: Power exponent %v must be positive", p.K))
	}
	if math.IsInf(c, 1) {
		return 1
	}
	return math.Pow(c/(1+c), p.K)
}

// Inverse implements Func.
func (p Power) Inverse(b float64) (float64, error) {
	if err := checkSignalRange(b); err != nil {
		return 0, err
	}
	if p.K <= 0 || math.IsNaN(p.K) {
		return 0, fmt.Errorf("signal: Power exponent %v must be positive", p.K)
	}
	if b == 1 {
		return math.Inf(1), nil
	}
	root := math.Pow(b, 1/p.K)
	return root / (1 - root), nil
}

// Exponential is B(C) = 1 − e^(−C/θ): a signal family that is *not*
// the rational one, used to confirm the qualitative results do not
// depend on the particular B.
type Exponential struct {
	Theta float64 // scale, must be > 0
}

// Name implements Func.
func (e Exponential) Name() string { return fmt.Sprintf("1-exp(-C/%g)", e.Theta) }

// Eval implements Func.
func (e Exponential) Eval(c float64) float64 {
	checkCongestion(c)
	if e.Theta <= 0 || math.IsNaN(e.Theta) {
		panic(fmt.Sprintf("signal: Exponential scale %v must be positive", e.Theta))
	}
	if math.IsInf(c, 1) {
		return 1
	}
	return 1 - math.Exp(-c/e.Theta)
}

// Inverse implements Func.
func (e Exponential) Inverse(b float64) (float64, error) {
	if err := checkSignalRange(b); err != nil {
		return 0, err
	}
	if e.Theta <= 0 || math.IsNaN(e.Theta) {
		return 0, fmt.Errorf("signal: Exponential scale %v must be positive", e.Theta)
	}
	if b == 1 {
		return math.Inf(1), nil
	}
	return -e.Theta * math.Log(1-b), nil
}

// Style selects between the two kinds of congestion feedback the paper
// analyzes.
type Style int

const (
	// Aggregate feedback: every connection through a gateway receives
	// the same signal B(Q_tot), blind to who causes the congestion.
	Aggregate Style = iota
	// Individual feedback: connection i receives B(C_i) with
	// C_i = Σ_k min(Q_k, Q_i), reflecting its own contribution and
	// ignoring queues larger than its own.
	Individual
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case Aggregate:
		return "aggregate"
	case Individual:
		return "individual"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Every congestion kernel below takes a multiplicity column m next to
// the queue vector: slot k stands for m[k] identical connections with
// queue q[k] (a class of the fluid backend, internal/fluid), and the
// measure is the one each of them would see in the expanded
// per-connection vector. A nil m is the unit column, one connection per
// slot — the case every discrete caller uses, bit-identical to the
// per-connection formulas because 1·x is x and integer-valued running
// totals are exact. Multiplicities are trusted: the caller (the fluid
// compiler) validates them as positive member counts.

// weight is slot i's multiplicity: m[i], or 1 for the nil column.
func weight(m []float64, i int) float64 {
	if m == nil {
		return 1
	}
	return m[i]
}

// AggregateCongestion returns C = Σ m_k·Q_k, the total queue length
// (m nil: C = Σ Q_k; otherwise len(m) must equal len(q)).
func AggregateCongestion(q, m []float64) float64 {
	c := 0.0
	for k, qk := range q {
		checkCongestion(qk)
		c += weight(m, k) * qk
	}
	return c
}

// Scratch holds the reusable working storage of the batched
// individual-feedback kernel: the slots' ascending-queue permutation,
// which the next call repairs instead of rebuilding (internal/order).
// The zero value is ready to use; the buffer grows on demand and is
// then reused, so steady-state evaluation performs no allocations.
// The retained permutation only makes the next sort cheaper when the
// queues barely moved: results do not depend on it, so one Scratch
// may serve any sequence of gateways. A Scratch is not safe for
// concurrent use — give each goroutine its own.
type Scratch struct {
	idx []int
}

// Grow pre-sizes the scratch for an n-connection gateway, so that
// even the first batched call on it allocates nothing. Growing is
// otherwise automatic on first use; pre-sizing exists for callers —
// core.Workspace — that size all hot columns at plan-compile time.
func (s *Scratch) Grow(n int) {
	if cap(s.idx) < n {
		s.idx = make([]int, 0, n)
	}
}

// IndividualCongestionInto writes the individual congestion measure
// C_i = Σ_k min(Q_k, Q_i) — the paper's measure charging connection i
// for its own queue and for the part of every other queue not
// exceeding its own — for every slot into c (len(c) must equal len(q),
// and len(m) too when m is not nil) in one batched O(N log N) pass.
// With queues sorted ascending (ties in slot order, see internal/order),
// every queue sorted below position pos contributes itself and the
// connections from pos up contribute Q_i, so
//
//	C_i = Σ_{k<pos(i)} m_k·Q_(k) + M_rem(pos(i))·Q_i ,
//
// with M_rem the multiplicity from pos up (N−pos at unit weights),
// falls out of a single running prefix sum — against N separate
// O(N) scans, an O(N²) → O(N log N) change. Overloaded (+Inf) queues
// sort last and saturate both the multiplied term and the running
// prefix, reproducing the scans' +Inf results. Values agree with the
// per-connection scans within the summation-reordering tolerance
// documented in docs/PERFORMANCE.md (bitwise when the prefix sums are
// exact, e.g. dyadic queue values). It panics on negative or NaN
// queues; c must not alias q.
//
//ffc:hotpath
func IndividualCongestionInto(c, q, m []float64, scr *Scratch) error {
	if len(c) != len(q) {
		return fmt.Errorf("signal: %d-slot buffer for %d queues", len(c), len(q))
	}
	if m != nil && len(m) != len(q) {
		return fmt.Errorf("signal: %d multiplicities for %d queues", len(m), len(q))
	}
	total := 0.0
	for k, qk := range q {
		checkCongestion(qk)
		total += weight(m, k)
	}
	scr.idx = order.Repair(scr.idx, q)
	cum := 0.0  // Σ m·Q over the slots sorted strictly below this position
	done := 0.0 // Σ m over the same slots
	for _, i := range scr.idx {
		qi, mi := q[i], weight(m, i)
		c[i] = cum + (total-done)*qi
		cum += mi * qi
		done += mi
	}
	return nil
}

// GatewaySignalsWeighted writes the per-slot signals b^a_i one gateway
// emits for queue vector q with multiplicities m (nil: one connection
// per slot) under the given feedback style and signal function:
// B(Σ m·Q) to every slot under aggregate feedback, B(C_i) from the
// batched prefix-sum kernel under individual feedback; out must not
// alias q. It performs no allocations once scr has grown, which the
// ffc:hotpath directive puts under the hotalloc analyzer.
//
//ffc:hotpath
func GatewaySignalsWeighted(out []float64, style Style, b Func, q, m []float64, scr *Scratch) error {
	if len(out) != len(q) {
		return fmt.Errorf("signal: %d-slot buffer for %d queues", len(out), len(q))
	}
	if m != nil && len(m) != len(q) {
		return fmt.Errorf("signal: %d multiplicities for %d queues", len(m), len(q))
	}
	switch style {
	case Aggregate:
		s := b.Eval(AggregateCongestion(q, m))
		for i := range out {
			out[i] = s
		}
	case Individual:
		if err := IndividualCongestionInto(out, q, m, scr); err != nil {
			return err
		}
		for i, ci := range out {
			out[i] = b.Eval(ci)
		}
	default:
		return fmt.Errorf("signal: unknown feedback style %d", int(style))
	}
	return nil
}

// GatewaySignalsBatched is GatewaySignalsWeighted at unit weights, one
// connection per slot.
//
//ffc:hotpath
func GatewaySignalsBatched(out []float64, style Style, b Func, q []float64, scr *Scratch) error {
	return GatewaySignalsWeighted(out, style, b, q, nil, scr)
}

// CombineBottleneck implements b_i = max_a b^a_i over a connection's
// path (bottleneck flow control in the sense of [Jaf81]): given the
// signals a connection received from each gateway it crosses, the
// combined signal is the largest.
func CombineBottleneck(perGateway []float64) (float64, error) {
	if len(perGateway) == 0 {
		return 0, fmt.Errorf("signal: no per-gateway signals to combine")
	}
	b := 0.0
	for _, s := range perGateway {
		if err := checkSignalRange(s); err != nil {
			return 0, err
		}
		if s > b {
			b = s
		}
	}
	return b, nil
}
