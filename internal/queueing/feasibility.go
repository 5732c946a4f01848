package queueing

import (
	"fmt"
	"math"
	"sort"
)

// FeasibilityReport records how a queue vector fares against the
// realizability constraints of Section 2.2: any Q(r) realized by a
// non-stalling service discipline must conserve the total queue,
// Σ Q_i = g(Σ ρ_i), and — numbering connections so Q_i/r_i is
// increasing — satisfy the prefix constraints
// Σ_{i≤k} Q_i ≥ g(Σ_{i≤k} ρ_i) for every k < N (no subset of
// connections can do better than having the server to itself).
type FeasibilityReport struct {
	ConservationErr  float64 // |ΣQ − g(ρ_tot)| (0 when both are +Inf)
	PrefixViolations []int   // prefix lengths k whose constraint fails
	Feasible         bool
}

// CheckFeasibility tests the queue vector q against the constraints
// for rates r and service rate mu, with relative tolerance tol.
func CheckFeasibility(r, q []float64, mu, tol float64) (FeasibilityReport, error) {
	sum, _, err := validate(r, nil, mu)
	if err != nil {
		return FeasibilityReport{}, err
	}
	rho := sum / mu
	if len(q) != len(r) {
		return FeasibilityReport{}, fmt.Errorf("queueing: %d queues for %d rates", len(q), len(r))
	}
	var rep FeasibilityReport

	sumQ := 0.0
	for _, qi := range q {
		sumQ += qi
	}
	want := G(rho)
	switch {
	case math.IsInf(sumQ, 1) && math.IsInf(want, 1):
		rep.ConservationErr = 0
	case math.IsInf(sumQ, 1) != math.IsInf(want, 1):
		rep.ConservationErr = math.Inf(1)
	default:
		rep.ConservationErr = math.Abs(sumQ - want)
	}

	// Prefix constraints in increasing Q_i/r_i order. Zero-rate
	// connections (Q must be 0) sort first with ratio 0.
	idx := make([]int, len(r))
	for i := range idx {
		idx[i] = i
	}
	ratio := func(i int) float64 {
		if r[i] == 0 {
			return 0
		}
		return q[i] / r[i]
	}
	sort.SliceStable(idx, func(a, b int) bool { return ratio(idx[a]) < ratio(idx[b]) })

	prefQ, prefRho := 0.0, 0.0
	for k := 0; k < len(idx)-1; k++ {
		i := idx[k]
		prefQ += q[i]
		prefRho += r[i] / mu
		bound := G(prefRho)
		if math.IsInf(bound, 1) && !math.IsInf(prefQ, 1) {
			rep.PrefixViolations = append(rep.PrefixViolations, k+1)
			continue
		}
		if prefQ < bound-tol*(1+math.Abs(bound)) {
			rep.PrefixViolations = append(rep.PrefixViolations, k+1)
		}
	}

	scale := 1.0
	if !math.IsInf(want, 1) {
		scale += math.Abs(want)
	}
	rep.Feasible = rep.ConservationErr <= tol*scale && len(rep.PrefixViolations) == 0
	return rep, nil
}
