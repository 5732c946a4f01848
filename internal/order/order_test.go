package order

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stableOrder is the contract Repair must meet: the identity
// permutation stably sorted by ascending value.
func stableOrder(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(v[a], v[b]) })
	return idx
}

// valueSets draws the value shapes the kernels feed Repair: distinct
// rates, heavy ties, zero rates (which Fair Share sorts first) and
// +Inf queues (which individual feedback sorts last).
func valueSets(rng *rand.Rand, n int) map[string][]float64 {
	distinct := make([]float64, n)
	ties := make([]float64, n)
	zeros := make([]float64, n)
	inf := make([]float64, n)
	levels := []float64{0, 0.25, 0.5, 1, math.Inf(1)}
	for i := 0; i < n; i++ {
		distinct[i] = rng.Float64()
		ties[i] = levels[rng.Intn(len(levels))]
		zeros[i] = rng.Float64()
		if rng.Intn(3) == 0 {
			zeros[i] = 0
		}
		inf[i] = rng.Float64()
		if rng.Intn(4) == 0 {
			inf[i] = math.Inf(1)
		}
	}
	return map[string][]float64{"distinct": distinct, "ties": ties, "zeros": zeros, "inf": inf}
}

// startingPerms are the permutations Repair may be handed for v: the
// identity, the reverse (which exhausts the move budget), a random
// permutation, and the previous step's order, i.e. the sorted order of
// a slightly perturbed v.
func startingPerms(rng *rand.Rand, v []float64) map[string][]int {
	n := len(v)
	id := make([]int, n)
	rev := make([]int, n)
	for i := range id {
		id[i] = i
		rev[i] = n - 1 - i
	}
	prev := slices.Clone(v)
	for k := 0; k < 1+n/10; k++ {
		if n > 0 {
			i, j := rng.Intn(n), rng.Intn(n)
			prev[i], prev[j] = prev[j], prev[i]
		}
	}
	return map[string][]int{
		"identity": id,
		"reversed": rev,
		"random":   rng.Perm(n),
		"previous": stableOrder(prev),
	}
}

func TestPropRepairIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 2, 20, 513} {
		for trial := 0; trial < 20; trial++ {
			for vname, v := range valueSets(rng, n) {
				want := stableOrder(v)
				for pname, perm := range startingPerms(rng, v) {
					got := Repair(perm, v)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d %s values from %s start: got %v, want %v", n, vname, pname, got, want)
					}
				}
			}
		}
	}
}

// TestRepairTracksAnIteration hands each call the previous call's
// result, as a gateway scratch does across steps, over values that
// drift, tie and overload.
func TestRepairTracksAnIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 20, 513} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		var perm []int
		for step := 0; step < 200; step++ {
			for i := range v {
				switch rng.Intn(50) {
				case 0:
					v[i] = 0
				case 1:
					v[i] = math.Inf(1)
				case 2:
					v[i] = v[rng.Intn(n)] // a tie
				default:
					if !math.IsInf(v[i], 1) {
						v[i] += 0.01 * (rng.Float64() - 0.5)
						v[i] = math.Abs(v[i])
					}
				}
			}
			perm = Repair(perm, v)
			if want := stableOrder(v); !slices.Equal(perm, want) {
				t.Fatalf("n=%d step %d: got %v, want %v", n, step, perm, want)
			}
		}
	}
}

// TestRepairResetsOnLengthChange covers a permutation handed in at
// another length: it is replaced by the identity, reusing capacity.
func TestRepairResetsOnLengthChange(t *testing.T) {
	v5 := []float64{3, 1, 1, 0, 2}
	v3 := []float64{1, 1, 0}
	perm := Repair(nil, v5)
	if want := []int{3, 1, 2, 4, 0}; !slices.Equal(perm, want) {
		t.Fatalf("5 slots: %v, want %v", perm, want)
	}
	perm = Repair(perm, v3)
	if want := []int{2, 0, 1}; !slices.Equal(perm, want) {
		t.Fatalf("3 slots: %v, want %v", perm, want)
	}
	if cap(perm) < 5 {
		t.Fatalf("capacity %d not reused", cap(perm))
	}
	perm = Repair(perm, v5)
	if want := []int{3, 1, 2, 4, 0}; !slices.Equal(perm, want) {
		t.Fatalf("5 slots again: %v, want %v", perm, want)
	}
}

// TestRepairZeroAlloc pins the hot-path contract: once the
// permutation has its length, neither the insertion pass nor the
// full-sort fallback allocates.
func TestRepairZeroAlloc(t *testing.T) {
	const n = 513
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i)
	}
	perm := Repair(nil, v)
	sorted := slices.Clone(perm)
	rev := make([]int, n)
	for i := range rev {
		rev[i] = sorted[n-1-i]
	}
	if a := testing.AllocsPerRun(20, func() { Repair(perm, v) }); a != 0 {
		t.Fatalf("warm repair: %v allocs", a)
	}
	if a := testing.AllocsPerRun(20, func() { copy(perm, rev); Repair(perm, v) }); a != 0 {
		t.Fatalf("fallback sort: %v allocs", a)
	}
}

// BenchmarkRepair compares the warm case (the previous order, a few
// swaps away) with a full reversal, which spends the move budget and
// falls back to the sort.
func BenchmarkRepair(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	sorted := Repair(nil, v)
	warm := slices.Clone(sorted)
	for k := 0; k < 8; k++ {
		i := rng.Intn(n - 1)
		warm[i], warm[i+1] = warm[i+1], warm[i]
	}
	rev := slices.Clone(sorted)
	slices.Reverse(rev)
	perm := make([]int, n)
	for _, c := range []struct {
		name  string
		start []int
	}{{"warm", warm}, {"reversed", rev}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(perm, c.start)
				Repair(perm, v)
			}
		})
	}
}

// TestInsertionBudget pins where Repair switches to the full sort: a
// step's worth of swaps stays inside the 2n move budget, a reversal
// (n(n−1)/2 moves) does not, and a pass that gives up still leaves a
// permutation for the sort to finish.
func TestInsertionBudget(t *testing.T) {
	const n = 513
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	sorted := stableOrder(v)
	near := slices.Clone(sorted)
	for k := 0; k < 16; k++ {
		i := rng.Intn(n - 1)
		near[i], near[i+1] = near[i+1], near[i]
	}
	if !insertion(near, v, moveBudget*n) || !slices.Equal(near, sorted) {
		t.Fatal("16 adjacent swaps did not repair within the budget")
	}
	rev := slices.Clone(sorted)
	slices.Reverse(rev)
	if insertion(rev, v, moveBudget*n) {
		t.Fatal("a reversal finished within the budget")
	}
	seen := make([]bool, n)
	for _, i := range rev {
		if seen[i] {
			t.Fatalf("slot %d twice after an abandoned pass", i)
		}
		seen[i] = true
	}
}
