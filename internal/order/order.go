// Package order maintains the ascending orderings the prefix-sum
// kernels of internal/queueing and internal/signal sweep: the Fair
// Share priority order (ascending rate, Table 1 of the paper) and the
// individual-feedback order (ascending queue, C_i = Σ_k min(Q_k, Q_i)).
//
// The ordering is the strict total order on slots
//
//	a before b  ⇔  v[a] < v[b], or v[a] = v[b] and a < b,
//
// which is exactly the order a stable sort of the identity permutation
// by v produces. Because the order is total, the sorted permutation is
// unique: whatever permutation a caller starts from, the result is the
// same, bit for bit. A caller may therefore keep the previous call's
// permutation and hand it back in as a starting point. In a converging
// iteration consecutive steps differ by a few swaps, and Repair then
// costs one comparison per slot plus the swaps. The retained
// permutation is only a cost hint; it cannot change a result.
package order

import (
	"cmp"
	"slices"
)

// moveBudget is the insertion pass's allowance of element moves per
// slot. Past 2n moves the input is far from sorted, and Repair
// finishes with a full O(n log n) sort instead, so the worst case is
// one sort plus O(n).
const moveBudget = 2

// Repair returns perm sorted ascending by (v[i], i). perm must hold a
// permutation of 0..len(v)-1, typically the previous call's result;
// any other length (a fresh nil slice, a gateway of another size) is
// first reset to the identity, reusing perm's capacity. v must not
// contain NaN.
//
// It runs an insertion pass from the given permutation and, if that
// pass needs more than 2·len(v) element moves, sorts the rest of the
// way with slices.SortFunc under the same comparator.
//
//ffc:hotpath
func Repair(perm []int, v []float64) []int {
	if len(perm) != len(v) {
		perm = identity(perm, len(v))
	}
	if !insertion(perm, v, moveBudget*len(v)) {
		sortAll(perm, v)
	}
	return perm
}

// insertion insertion-sorts perm by (v[i], i) from its current order
// and reports whether it finished. It gives up, leaving perm a
// partially sorted permutation, once it has moved more than budget
// elements.
//
//ffc:hotpath
func insertion(perm []int, v []float64, budget int) bool {
	for i := 1; i < len(perm); i++ {
		x := perm[i]
		vx := v[x]
		j := i
		for j > 0 {
			y := perm[j-1]
			if vy := v[y]; vy < vx || (vy == vx && y < x) {
				break
			}
			perm[j] = y
			j--
		}
		perm[j] = x
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// identity returns perm resized to n and set to 0..n-1, growing it
// only when its capacity is short.
func identity(perm []int, n int) []int {
	if cap(perm) < n {
		perm = make([]int, n)
	}
	perm = perm[:n]
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// sortAll sorts perm by (v[i], i) from scratch. The comparator is a
// strict total order, so the unstable pdqsort behind slices.SortFunc
// gives the stable sort's result.
func sortAll(perm []int, v []float64) {
	slices.SortFunc(perm, func(a, b int) int {
		if c := cmp.Compare(v[a], v[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}
