package queueing

import "math"

// FIFO is the first-in-first-out service discipline: packets are
// served in arrival order with no distinction between connections.
// The classical M/M/1 decomposition gives Q_i = ρ_i / (1 − ρ_tot).
type FIFO struct{}

// Name implements Discipline.
func (FIFO) Name() string { return "FIFO" }

// Queues implements Discipline. In overload (ρ_tot ≥ 1) every
// connection with a positive rate has an unbounded queue.
func (d FIFO) Queues(r []float64, mu float64) ([]float64, error) {
	q, _, err := observe(d, r, mu)
	return q, err
}

// SojournTimes implements Discipline. Every packet, regardless of
// connection, sees the same mean time in system 1/(μ − λ_tot); this is
// exactly FIFO's lack of protection. Zero-rate probe connections see
// the same value (PASTA).
func (d FIFO) SojournTimes(r []float64, mu float64) ([]float64, error) {
	_, w, err := observe(d, r, mu)
	return w, err
}

// ObserveWeighted implements InPlace: one validation pass that also
// forms ρ_tot = Σ m·r/μ, then both results, no allocations and no
// scratch. A slot's queue depends only on its own load and the total,
// so multiplicities enter through ρ_tot alone.
//
//ffc:hotpath
func (FIFO) ObserveWeighted(q, w, r, m []float64, mu float64, _ *Scratch) error {
	sum, _, err := validate(r, m, mu)
	if err != nil {
		return err
	}
	rho := sum / mu
	if rho >= 1 {
		for i, ri := range r {
			if ri > 0 {
				q[i] = math.Inf(1)
			} else {
				q[i] = 0
			}
			w[i] = math.Inf(1)
		}
		return nil
	}
	sojourn := 1 / (mu * (1 - rho))
	for i, ri := range r {
		q[i] = (ri / mu) / (1 - rho)
		w[i] = sojourn
	}
	return nil
}
