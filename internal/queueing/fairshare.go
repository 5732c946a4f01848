package queueing

import (
	"math"

	"github.com/nettheory/feedbackflow/internal/order"
)

// FairShare is the service discipline of Section 2.2 (introduced in
// [She89]): a preemptive priority discipline in which each
// connection's Poisson stream is split into priority substreams so
// that, at every priority level, no connection has more traffic in
// that level and above than any connection with a larger total rate
// (see Table 1 of the paper and PriorityDecomposition in this
// package).
//
// With rates labelled in increasing order, the cumulative load through
// priority class i is L_i = Σ_k min(r_k, r_i)/μ, and because classes
// 1..i of a preemptive-resume M/M/1 with identical exponential service
// behave exactly as an M/M/1 at load L_i, the queue lengths satisfy
//
//	g(L_i) = Σ_{k<i} Q_k + (N−i+1)·Q_i ,
//
// which is solved here by forward substitution. The recursion is
// triangular — Q_i depends only on rates r_k ≤ r_i — and that
// triangularity is what drives Theorem 4's stability result.
//
// The L_i are order statistics with a closed prefix-sum form: once the
// rates are sorted ascending, min(r_k, r_i) is r_k for the k sorted
// below position i and r_i for everyone else, so
//
//	Σ_k min(r_k, r_i) = Σ_{k<pos(i)} r_(k) + (N−pos(i))·r_i ,
//
// one running sum plus one multiply per connection. The whole
// evaluation is therefore one O(N log N) sort and one O(N) sweep
// instead of the O(N²) rescans the first implementation performed —
// the change that makes 10⁵–10⁶-connection gateways steppable (see
// docs/PERFORMANCE.md, which also states the summation-reordering
// tolerance contract this introduces against the naive double loop).
type FairShare struct{}

// Name implements Discipline.
func (FairShare) Name() string { return "FairShare" }

// Queues implements Discipline as the allocating convenience over
// ObserveWeighted — one code path, so the two can never drift. A key
// property visible in the overload handling: overload caused by
// high-rate connections leaves low-rate connections' queues finite —
// Fair Share protects them — whereas FIFO overload is total.
func (fs FairShare) Queues(r []float64, mu float64) ([]float64, error) {
	q, _, err := observe(fs, r, mu)
	return q, err
}

// SojournTimes implements Discipline. W_i = Q_i/r_i for positive
// rates; a zero-rate probe packet preempts all traffic and sees only
// its own service time 1/μ (the r→0 limit of the recursion). Like
// Queues it delegates to ObserveWeighted.
func (fs FairShare) SojournTimes(r []float64, mu float64) ([]float64, error) {
	_, w, err := observe(fs, r, mu)
	return w, err
}

// ObserveWeighted implements InPlace: the forward-substitution
// recursion with the cumulative class loads read from a sorted prefix
// sum, so the whole evaluation is one sort plus one sweep — O(N log N)
// total, zero allocations in steady state.
//
// Weights enter as multiplicities: a slot of weight m stands for m
// connections at the same rate, which the recursion treats as one
// block. The cumulative load is constant across an equal-rate block
// and the per-member division telescopes, so every member of the
// block gets Q = (g(L) − ΣQ_below)/M_remaining, where ΣQ_below and the
// rate prefix count each lower slot m times and M_remaining is the
// multiplicity from this slot up. With unit weights M_remaining is
// exactly N−pos.
//
// Overload fills +Inf from the first overloaded class upward, and
// every sojourn time is then derived from the queues in hand, so the
// overload semantics are the same for every entry point by
// construction.
//
//ffc:hotpath
func (FairShare) ObserveWeighted(q, w, r, m []float64, mu float64, scr *Scratch) error {
	_, total, err := validate(r, m, mu)
	if err != nil {
		return err
	}
	idx := scr.order(r)
	sumQ := 0.0
	cum := 0.0  // Σ m·r over the slots sorted strictly below this position
	done := 0.0 // Σ m over the same slots, zero-rate ones included
	for pos, i := range idx {
		ri, mi := r[i], weight(m, i)
		if ri == 0 {
			q[i] = 0
			done += mi
			continue // contributes nothing to the running prefix
		}
		// Cumulative load through slot i's topmost priority class:
		// every lower-sorted connection contributes its whole rate,
		// the rem connections from here up contribute r_i.
		rem := total - done
		load := (cum + rem*ri) / mu
		if load >= 1 {
			// Zero-rate slots sort first, so everything from pos on has
			// a positive rate and an unbounded queue; the lower-rate
			// slots already computed keep finite queues.
			for _, j := range idx[pos:] {
				q[j] = math.Inf(1)
			}
			break
		}
		qi := (G(load) - sumQ) / rem
		if qi < 0 {
			qi = 0 // guard against rounding at vanishing loads
		}
		q[i] = qi
		// m·q is q exactly at m = 1. Skipping that multiply keeps it
		// off the recursion's loop-carried chain (sumQ feeds the next
		// queue), where at unit weight it would add a fifth of the
		// sweep's latency.
		if mi == 1 {
			sumQ += qi
		} else {
			sumQ += mi * qi
		}
		cum += mi * ri
		done += mi
	}
	for i, ri := range r {
		switch {
		case ri == 0:
			w[i] = 1 / mu
		case math.IsInf(q[i], 1):
			w[i] = math.Inf(1)
		default:
			w[i] = q[i] / ri
		}
	}
	return nil
}

// PriorityRows streams the Table 1 substream decomposition one sorted
// row at a time, so large-N callers never materialize the dense N×N
// table PriorityDecomposition builds. Row pos (ascending rate order)
// has pos+1 priority-class entries; all higher classes are zero by the
// triangular structure of Table 1.
type PriorityRows struct {
	sorted []float64
	perm   []int
	row    []float64
	pos    int
}

// NewPriorityRows prepares the streaming decomposition of r: one sort
// and O(N) setup, O(row length) per Next call, O(N) total memory.
func NewPriorityRows(r []float64) *PriorityRows {
	n := len(r)
	it := &PriorityRows{
		sorted: make([]float64, n),
		perm:   order.Repair(make([]int, 0, n), r),
		row:    make([]float64, n),
	}
	for pos, i := range it.perm {
		it.sorted[pos] = r[i]
	}
	return it
}

// Perm maps sorted positions back to original indices: Perm()[pos] is
// the original index of the connection emitted pos'th by Next. The
// slice is owned by the iterator; do not modify.
func (it *PriorityRows) Perm() []int { return it.perm }

// Next emits the next row of Table 1: the original connection index
// and its substream rates for priority classes 0..pos (length pos+1,
// class 0 is the highest priority). The row buffer is reused by the
// following Next call — copy to retain. ok is false when the rows are
// exhausted.
func (it *PriorityRows) Next() (orig int, row []float64, ok bool) {
	if it.pos >= len(it.perm) {
		return 0, nil, false
	}
	pos := it.pos
	it.pos++
	row = it.row[:pos+1]
	prev := 0.0
	for j := 0; j <= pos; j++ {
		row[j] = it.sorted[j] - prev
		prev = it.sorted[j]
	}
	return it.perm[pos], row, true
}

// PriorityDecomposition returns the Table 1 substream rate matrix for
// the Fair Share discipline. Rates are first sorted ascending; entry
// [i][j] of the result is the rate sorted-connection i contributes to
// priority class j (class 0 is the highest priority). The returned
// perm maps sorted positions back to the original indices:
// perm[pos] = original index.
//
// Row sums reproduce the sorted rates, and column j is nonzero only
// for connections i ≥ j, exactly the triangular pattern of Table 1.
// The dense table is quadratic in N by nature; large-N callers should
// stream PriorityRows instead.
func PriorityDecomposition(r []float64) (table [][]float64, perm []int) {
	n := len(r)
	it := NewPriorityRows(r)
	table = make([][]float64, n)
	for pos := 0; ; pos++ {
		_, row, ok := it.Next()
		if !ok {
			break
		}
		full := make([]float64, n)
		copy(full, row)
		table[pos] = full
	}
	return table, it.perm
}
