package queueing

import "math"

// NonPreemptiveFairShare is Fair Share without preemption: the same
// Table 1 substream priority classes, but an arriving high-priority
// packet waits for the packet in service to finish. It exists as an
// ablation (experiment A3): the classical non-preemptive priority
// formulas show the Theorem 5 robustness bound then FAILS whenever a
// connection's rate is below the gateway average — preemption is
// load-bearing in the paper's robustness result, not an implementation
// detail.
//
// With classes ordered by priority, common exponential service μ, and
// cumulative class loads L_j (the same L_j = Σ_k min(r_k, r_j)/μ as
// the preemptive recursion, read from the sorted prefix sum — see
// FairShare), the Kleinrock non-preemptive formulas give per-class
// mean waits
//
//	W_j = W0 / ((1 − L_{j−1})(1 − L_j)),   W0 = min(ρ_tot, 1)/μ,
//
// (W0 is the mean residual service seen on arrival) and a connection's
// mean queue is the Little sum over its substreams,
// Q_i = Σ_{j≤i} λ_ij·(W_j + 1/μ). That sum is itself a running prefix
// over the sorted classes, so the whole evaluation is one sort plus
// two O(N) sweeps. Kleinrock's conservation law makes the totals match
// g(ρ_tot), so the aggregate signal remains discipline-blind even
// here.
type NonPreemptiveFairShare struct{}

// Name implements Discipline.
func (NonPreemptiveFairShare) Name() string { return "NonPreemptiveFairShare" }

// Queues implements Discipline as an allocating wrapper over
// ObserveWeighted — one code path for both variants.
func (d NonPreemptiveFairShare) Queues(r []float64, mu float64) ([]float64, error) {
	q, _, err := observe(d, r, mu)
	return q, err
}

// SojournTimes implements Discipline. A zero-rate probe joins the top
// priority class but cannot preempt: it waits for the residual service
// W0 plus its own service. Like Queues it delegates to ObserveWeighted.
func (d NonPreemptiveFairShare) SojournTimes(r []float64, mu float64) ([]float64, error) {
	_, w, err := observe(d, r, mu)
	return w, err
}

// ObserveWeighted implements InPlace: the Kleinrock recursion evaluated
// into caller buffers in O(N log N) — class loads from the sorted
// prefix sum, per-connection Little sums as a running prefix over
// λ_j·(W_j + 1/μ) (the running form performs the same float additions
// in the same order as summing each connection's substreams afresh, so
// it changes no bits), and sojourn times derived from the queues in
// hand rather than recomputed.
//
// A slot of multiplicity m is a block of m equal-rate connections, as
// in FairShare.ObserveWeighted: only the block's first member opens a
// new substream (the rest have λ = 0), so the block contributes one
// class sojourn at its cumulative load and every member gets the same
// queue. The loads and ρ_tot count each slot m times.
//
//ffc:hotpath
func (NonPreemptiveFairShare) ObserveWeighted(q, w, r, m []float64, mu float64, scr *Scratch) error {
	_, total, err := validate(r, m, mu)
	if err != nil {
		return err
	}
	idx := scr.order(r)
	classSojourn, sortedRates := scr.floats(len(r))

	rhoTot := 0.0
	for i, ri := range r {
		rhoTot += weight(m, i) * ri / mu
	}
	w0 := math.Min(rhoTot, 1) / mu

	// Per sorted class j: cumulative load through the class from the
	// running prefix (Σ m·r over lower-sorted slots plus the remaining
	// multiplicity times r_(j)), then the Kleinrock mean time in
	// system of class-j packets.
	prevLoad := 0.0
	cum := 0.0  // Σ m·r over the slots sorted strictly below class j
	done := 0.0 // Σ m over the same slots
	for j, i := range idx {
		ri, mi := r[i], weight(m, i)
		sortedRates[j] = ri
		load := (cum + (total-done)*ri) / mu
		cum += mi * ri
		done += mi
		if load >= 1 {
			classSojourn[j] = math.Inf(1)
		} else {
			classSojourn[j] = w0/((1-prevLoad)*(1-load)) + 1/mu
		}
		prevLoad = math.Min(load, 1)
	}
	// Connection i's queue: Little over its Table 1 substreams,
	// λ_ij = r_(j) − r_(j−1) for j ≤ pos(i). The partial sums are
	// shared between consecutive positions, so one running total
	// replaces the per-connection rescan; an overloaded class with a
	// positive substream rate pins the total (and every later one) at
	// +Inf, exactly as the per-connection scan's early exit did.
	runTotal := 0.0
	prev := 0.0
	for pos, i := range idx {
		lambda := sortedRates[pos] - prev
		prev = sortedRates[pos]
		if lambda != 0 {
			if math.IsInf(classSojourn[pos], 1) {
				runTotal = math.Inf(1)
			} else {
				runTotal += lambda * classSojourn[pos]
			}
		}
		if r[i] == 0 {
			q[i] = 0
		} else {
			q[i] = runTotal
		}
	}
	for i, ri := range r {
		switch {
		case ri == 0:
			w[i] = math.Min(rhoTot, 1)/mu + 1/mu
		case math.IsInf(q[i], 1):
			w[i] = math.Inf(1)
		default:
			w[i] = q[i] / ri
		}
	}
	return nil
}
