package queueing

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the sorted prefix-sum kernels against the naive
// O(N²) double loops they replaced. The references below are verbatim
// copies of the pre-prefix-sum implementations; the tolerance contract
// they are held to is documented in docs/PERFORMANCE.md:
//
//   - bitwise agreement whenever every intermediate sum is exactly
//     representable (dyadic rates, a power-of-two μ), because then
//     reordering the summation cannot change any bit;
//   - otherwise agreement within a relative-absolute bound
//     |Δ| ≤ tol·(1 + max(|a|,|b|)) with tol = 1e-9, for total loads
//     bounded away from 1 (the G(x) = x/(1−x) amplification makes any
//     kernel — naive included — ill-conditioned at the overload
//     boundary, so random-input comparisons skip loads within 1e-9
//     of 1; the exact-boundary behavior is pinned separately with
//     dyadic inputs).

// naiveFairShareQueues is the pre-prefix-sum FairShare.Queues: a full
// inner min-scan per connection, summing in original index order.
func naiveFairShareQueues(t *testing.T, r []float64, mu float64) []float64 {
	t.Helper()
	n := len(r)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })
	q := make([]float64, n)
	sumQ := 0.0
	for pos, i := range idx {
		ri := r[i]
		if ri == 0 {
			q[i] = 0
			continue
		}
		load := 0.0
		for _, rk := range r {
			load += math.Min(rk, ri)
		}
		load /= mu
		if load >= 1 {
			for _, j := range idx[pos:] {
				q[j] = math.Inf(1)
			}
			return q
		}
		qi := (G(load) - sumQ) / float64(n-pos)
		if qi < 0 {
			qi = 0
		}
		q[i] = qi
		sumQ += qi
	}
	return q
}

// naiveFairShareLoads returns the naive cumulative class loads
// L_i = Σ_k min(r_k, r_i)/μ in sorted order, for boundary-proximity
// checks.
func naiveFairShareLoads(r []float64, mu float64) []float64 {
	n := len(r)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })
	loads := make([]float64, 0, n)
	for _, i := range idx {
		load := 0.0
		for _, rk := range r {
			load += math.Min(rk, r[i])
		}
		loads = append(loads, load/mu)
	}
	return loads
}

// naiveNonPreemptiveQueues is the pre-prefix-sum
// NonPreemptiveFairShare.Queues: per-class min-scans and a fresh
// Little sum per connection.
func naiveNonPreemptiveQueues(t *testing.T, r []float64, mu float64) []float64 {
	t.Helper()
	n := len(r)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })

	rhoTot := 0.0
	for _, ri := range r {
		rhoTot += ri / mu
	}
	w0 := math.Min(rhoTot, 1) / mu

	q := make([]float64, n)
	classSojourn := make([]float64, n)
	prevLoad := 0.0
	for j, i := range idx {
		load := 0.0
		for _, rk := range r {
			load += math.Min(rk, r[i])
		}
		load /= mu
		if load >= 1 {
			classSojourn[j] = math.Inf(1)
		} else {
			classSojourn[j] = w0/((1-prevLoad)*(1-load)) + 1/mu
		}
		prevLoad = math.Min(load, 1)
	}
	sortedRates := make([]float64, n)
	for j, i := range idx {
		sortedRates[j] = r[i]
	}
	for pos, i := range idx {
		if r[i] == 0 {
			q[i] = 0
			continue
		}
		total := 0.0
		prev := 0.0
		for j := 0; j <= pos; j++ {
			lambda := sortedRates[j] - prev
			prev = sortedRates[j]
			if lambda == 0 {
				continue
			}
			if math.IsInf(classSojourn[j], 1) {
				total = math.Inf(1)
				break
			}
			total += lambda * classSojourn[j]
		}
		q[i] = total
	}
	return q
}

// prefixTol is the documented summation-reordering tolerance for
// random (non-dyadic) inputs with loads bounded away from 1.
const prefixTol = 1e-9

// closeEnough is the tolerance contract: +Inf must match exactly,
// finite values within a mixed relative-absolute bound.
func closeEnough(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= prefixTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// nearOverloadBoundary reports whether any cumulative class load sits
// within tol of 1, where the overload cutoff itself is the unstable
// quantity and naive-vs-prefix comparison is meaningless.
func nearOverloadBoundary(r []float64, mu float64) bool {
	for _, load := range naiveFairShareLoads(r, mu) {
		if math.Abs(load-1) <= prefixTol {
			return true
		}
	}
	return false
}

// randomRates draws a rate vector of the given class: mixes of
// uniform values, exact zeros, exact ties, and denormals, scaled to a
// target total load.
func randomRates(rng *rand.Rand, n int, mu, targetLoad float64) []float64 {
	r := make([]float64, n)
	tieVal := rng.Float64()
	for i := range r {
		switch rng.Intn(6) {
		case 0:
			r[i] = 0
		case 1:
			r[i] = tieVal // exact ties decided by sort stability
		case 2:
			r[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(9)) // ±denormal territory
		default:
			r[i] = rng.Float64()
		}
	}
	sum := 0.0
	for _, ri := range r {
		sum += ri
	}
	if sum < 1e-300 {
		// All-zero or denormal-only draws: scaling would overflow (and
		// 0·∞ would forge NaN rates). Use the vector as drawn.
		return r
	}
	scale := targetLoad * mu / sum
	for i := range r {
		r[i] *= scale
	}
	return r
}

// dyadicRates draws rates that are integer multiples of 2^-22, so
// every partial sum (and every (n−pos)·r_i product) is exactly
// representable and the prefix-sum kernel must agree bit for bit.
func dyadicRates(rng *rand.Rand, n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		switch rng.Intn(4) {
		case 0:
			r[i] = 0
		case 1:
			r[i] = float64(1<<10) * 0x1p-22 // common tie value
		default:
			r[i] = float64(rng.Intn(1<<20)) * 0x1p-22
		}
	}
	return r
}

// checkAgainstNaive compares the prefix-sum ObserveInto of d against
// the given naive reference on one input, bitwise or within the
// tolerance contract.
func checkAgainstNaive(t *testing.T, d InPlace, scr *Scratch,
	naive func(*testing.T, []float64, float64) []float64,
	r []float64, mu float64, bitwise bool) {
	t.Helper()
	want := naive(t, r, mu)
	q := make([]float64, len(r))
	w := make([]float64, len(r))
	if err := ObserveInto(d, q, w, r, mu, scr); err != nil {
		t.Fatalf("%s.ObserveInto(%v, %v): %v", d.Name(), r, mu, err)
	}
	for i := range r {
		if bitwise {
			if !sameFloat(q[i], want[i]) {
				t.Errorf("%s: dyadic r=%v mu=%v: queue[%d] = %v (bits %x), naive %v (bits %x)",
					d.Name(), r, mu, i, q[i], math.Float64bits(q[i]), want[i], math.Float64bits(want[i]))
			}
		} else if !closeEnough(q[i], want[i]) {
			t.Errorf("%s: r=%v mu=%v: queue[%d] = %v, naive %v (|Δ| = %v)",
				d.Name(), r, mu, i, q[i], want[i], math.Abs(q[i]-want[i]))
		}
	}
}

// TestPropPrefixKernelsMatchNaive sweeps randomized rate vectors —
// zeros, exact ties, denormals, underload and clear overload — through
// both prefix-sum disciplines against the naive O(N²) references.
func TestPropPrefixKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kernels := []struct {
		d     InPlace
		naive func(*testing.T, []float64, float64) []float64
	}{
		{FairShare{}, naiveFairShareQueues},
		{NonPreemptiveFairShare{}, naiveNonPreemptiveQueues},
	}
	for _, k := range kernels {
		scr := new(Scratch)
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(64)
			if trial%17 == 0 {
				n = 200 // occasional larger vector
			}
			mu := 0.5 + rng.Float64()*3
			var targetLoad float64
			if trial%3 == 2 {
				targetLoad = 1.1 + rng.Float64()*2 // clear overload
			} else {
				targetLoad = rng.Float64() * 0.95 // bounded away from 1
			}
			r := randomRates(rng, n, mu, targetLoad)
			if nearOverloadBoundary(r, mu) {
				continue // ill-conditioned cutoff; pinned exactly below
			}
			checkAgainstNaive(t, k.d, scr, k.naive, r, mu, false)
		}
	}
}

// TestPropPrefixKernelsBitwiseOnDyadic: with dyadic rates and a
// power-of-two μ every intermediate sum is exact, so reordering the
// summation must not change a single bit — including the overload
// cutoff position.
func TestPropPrefixKernelsBitwiseOnDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kernels := []struct {
		d     InPlace
		naive func(*testing.T, []float64, float64) []float64
	}{
		{FairShare{}, naiveFairShareQueues},
		{NonPreemptiveFairShare{}, naiveNonPreemptiveQueues},
	}
	mus := []float64{0.25, 0.5, 1, 2, 64}
	for _, k := range kernels {
		scr := new(Scratch)
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(48)
			mu := mus[rng.Intn(len(mus))]
			r := dyadicRates(rng, n)
			checkAgainstNaive(t, k.d, scr, k.naive, r, mu, true)
		}
	}
}

// TestFairShareOverloadBoundaryExact pins the cutoff at a load of
// exactly 1: rates and μ chosen so the top class load is 1.0 with no
// rounding anywhere. The overloaded connection must report +Inf queue
// and sojourn through every entry point — Queues, SojournTimes, and
// ObserveInto — while lower-rate connections keep finite queues.
func TestFairShareOverloadBoundaryExact(t *testing.T) {
	r := []float64{0.25, 0.25, 0.5} // L = 0.25+0.25+0.5 = 1 exactly at the top class
	mu := 1.0
	fs := FairShare{}
	q, err := fs.Queues(r, mu)
	if err != nil {
		t.Fatal(err)
	}
	w, err := fs.SojournTimes(r, mu)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(q[2], 1) || !math.IsInf(w[2], 1) {
		t.Errorf("top class at load exactly 1: q[2]=%v w[2]=%v, want +Inf", q[2], w[2])
	}
	for i := 0; i < 2; i++ {
		if math.IsInf(q[i], 1) || q[i] < 0 {
			t.Errorf("protected connection %d has q=%v, want finite non-negative", i, q[i])
		}
		if !sameFloat(w[i], q[i]/r[i]) {
			t.Errorf("w[%d] = %v, want q/r = %v", i, w[i], q[i]/r[i])
		}
	}
	// The in-place variant must agree bit for bit (shared code path).
	q2 := make([]float64, 3)
	w2 := make([]float64, 3)
	if err := ObserveInto(fs, q2, w2, r, mu, new(Scratch)); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if !sameFloat(q[i], q2[i]) || !sameFloat(w[i], w2[i]) {
			t.Errorf("ObserveInto diverges from Queues at %d: q=%v/%v w=%v/%v", i, q2[i], q[i], w2[i], w[i])
		}
	}
	// And the naive reference agrees too: all sums here are exact.
	want := naiveFairShareQueues(t, r, mu)
	for i := range r {
		if !sameFloat(q[i], want[i]) {
			t.Errorf("queue[%d] = %v, naive %v", i, q[i], want[i])
		}
	}

	// Non-preemptive variant at the same exact boundary: the top class
	// sojourn is +Inf, so the high-rate connection's queue is +Inf.
	np := NonPreemptiveFairShare{}
	qn, err := np.Queues(r, mu)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(qn[2], 1) {
		t.Errorf("non-preemptive top class at load exactly 1: q[2]=%v, want +Inf", qn[2])
	}
	for i := 0; i < 2; i++ {
		if math.IsInf(qn[i], 1) {
			t.Errorf("non-preemptive protected connection %d overloaded: q=%v", i, qn[i])
		}
	}
}

// TestFairShareTotalOverloadExact: every positive-rate connection
// overloaded when the lowest positive class already has load ≥ 1,
// zero-rate probes still protected, through both variants.
func TestFairShareTotalOverloadExact(t *testing.T) {
	r := []float64{0, 0.5, 0.5} // lowest positive class: 0 + 2·0.5 = 1
	mu := 1.0
	for _, d := range []InPlace{FairShare{}, NonPreemptiveFairShare{}} {
		q := make([]float64, 3)
		w := make([]float64, 3)
		if err := ObserveInto(d, q, w, r, mu, new(Scratch)); err != nil {
			t.Fatal(err)
		}
		if q[0] != 0 {
			t.Errorf("%s: zero-rate probe q=%v, want 0", d.Name(), q[0])
		}
		if !math.IsInf(q[1], 1) || !math.IsInf(q[2], 1) {
			t.Errorf("%s: total overload q=%v, want +Inf for both positive rates", d.Name(), q)
		}
		if !math.IsInf(w[1], 1) || !math.IsInf(w[2], 1) {
			t.Errorf("%s: total overload w=%v, want +Inf sojourns", d.Name(), w)
		}
		qq, err := d.Queues(r, mu)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r {
			if !sameFloat(q[i], qq[i]) {
				t.Errorf("%s: Queues diverges from ObserveInto at %d: %v vs %v", d.Name(), i, qq[i], q[i])
			}
		}
	}
}

// TestPrefixKernelsZeroAlloc pins the new kernels at zero allocations
// per call in steady state (same style as TestNilTracerIsZeroAlloc):
// once the scratch has grown, sorting and both sweeps run entirely in
// caller- and scratch-owned memory.
func TestPrefixKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 128
	mu := 2.0
	r := randomRates(rng, n, mu, 0.8)
	q := make([]float64, n)
	w := make([]float64, n)
	for _, d := range []InPlace{FIFO{}, FairShare{}, NonPreemptiveFairShare{}} {
		scr := new(Scratch)
		scr.Grow(n)
		if err := ObserveInto(d, q, w, r, mu, scr); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := ObserveInto(d, q, w, r, mu, scr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s.ObserveInto allocates %.1f objects per call, want 0", d.Name(), allocs)
		}
	}
}

// TestPriorityRowsMatchesDense: the streaming iterator and the dense
// PriorityDecomposition table are the same decomposition — same perm,
// same rows bit for bit — without the iterator ever holding more than
// one row.
func TestPriorityRowsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		r := make([]float64, n)
		for i := range r {
			r[i] = rng.Float64() * 5
			if rng.Intn(4) == 0 {
				r[i] = 0
			}
		}
		table, perm := PriorityDecomposition(r)
		it := NewPriorityRows(r)
		for pos := 0; ; pos++ {
			orig, row, ok := it.Next()
			if !ok {
				if pos != n {
					t.Fatalf("iterator stopped after %d of %d rows", pos, n)
				}
				break
			}
			if orig != perm[pos] || it.Perm()[pos] != perm[pos] {
				t.Fatalf("row %d original index %d, dense perm %d", pos, orig, perm[pos])
			}
			if len(row) != pos+1 {
				t.Fatalf("row %d has %d entries, want %d", pos, len(row), pos+1)
			}
			for j, v := range row {
				if !sameFloat(v, table[pos][j]) {
					t.Fatalf("row %d class %d: %v, dense %v", pos, j, v, table[pos][j])
				}
			}
			for j := pos + 1; j < n; j++ {
				if table[pos][j] != 0 {
					t.Fatalf("dense row %d class %d nonzero above the diagonal", pos, j)
				}
			}
		}
	}
}

// TestPriorityRowsStreamsLargeN exercises the streaming decomposition
// at a size where the dense table (N² floats) would be wasteful: row
// sums must reproduce each connection's rate without materializing
// anything beyond one row.
func TestPriorityRowsStreamsLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 4096
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.Float64()
	}
	it := NewPriorityRows(r)
	rows := 0
	for {
		orig, row, ok := it.Next()
		if !ok {
			break
		}
		rows++
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative substream rate %v for connection %d", v, orig)
			}
			sum += v
		}
		if math.Abs(sum-r[orig]) > 1e-9*(1+r[orig]) {
			t.Fatalf("connection %d: row sums to %v, rate is %v", orig, sum, r[orig])
		}
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}
}

// randomWeights draws integer multiplicities in [1, maxW].
func randomWeights(rng *rand.Rand, n, maxW int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = float64(1 + rng.Intn(maxW))
	}
	return m
}

// expand repeats slot k of v m[k] times, in slot order: the
// per-connection vector a weighted slot vector stands for.
func expand(v, m []float64) []float64 {
	var x []float64
	for k, vk := range v {
		for c := 0; c < int(m[k]); c++ {
			x = append(x, vk)
		}
	}
	return x
}

// scaleWeightedLoad rescales r so that Σ m·r = targetLoad·μ, leaving
// all-zero and denormal-only draws as drawn (see randomRates).
func scaleWeightedLoad(r, m []float64, mu, targetLoad float64) {
	sum := 0.0
	for i, ri := range r {
		sum += m[i] * ri
	}
	if sum < 1e-300 {
		return
	}
	for i := range r {
		r[i] *= targetLoad * mu / sum
	}
}

// checkWeightedAgainstExpanded runs d's weighted kernel on (r, m) and
// its unit-weight kernel on the expanded vector: every copy of slot k
// must carry slot k's queue, bit for bit or within the tolerance
// contract (which always demands exact +Inf agreement). Bitwise runs
// compare sojourn times too; under the tolerance they are left out,
// because both paths derive W = Q/r by the same division, which turns
// a queue's absolute rounding into an unbounded sojourn difference at
// denormal rates.
func checkWeightedAgainstExpanded(t *testing.T, d InPlace, scr *Scratch, r, m []float64, mu float64, bitwise bool) {
	t.Helper()
	x := expand(r, m)
	qx := make([]float64, len(x))
	wx := make([]float64, len(x))
	if err := ObserveInto(d, qx, wx, x, mu, scr); err != nil {
		t.Fatalf("%s expanded: %v", d.Name(), err)
	}
	q := make([]float64, len(r))
	w := make([]float64, len(r))
	if err := d.ObserveWeighted(q, w, r, m, mu, scr); err != nil {
		t.Fatalf("%s weighted: %v", d.Name(), err)
	}
	pos := 0
	for k := range r {
		for c := 0; c < int(m[k]); c++ {
			var ok bool
			if bitwise {
				ok = sameFloat(q[k], qx[pos]) && sameFloat(w[k], wx[pos])
			} else {
				ok = closeEnough(q[k], qx[pos])
			}
			if !ok {
				t.Errorf("%s r=%v m=%v mu=%v: slot %d copy %d: weighted queue/sojourn %v/%v, expanded %v/%v",
					d.Name(), r, m, mu, k, c, q[k], w[k], qx[pos], wx[pos])
			}
			pos++
		}
	}
}

// TestPropWeightedKernelsMatchExpanded sweeps random integer
// multiplicities through every discipline's weighted kernel against
// the unit-weight kernel on the expanded vector, over the same mix of
// zeros, ties, denormals, underload, and clear overload as the naive
// tables above.
func TestPropWeightedKernelsMatchExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, d := range []InPlace{FIFO{}, FairShare{}, NonPreemptiveFairShare{}} {
		scr := new(Scratch)
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			m := randomWeights(rng, n, 9)
			mu := 0.5 + rng.Float64()*3
			targetLoad := rng.Float64() * 0.95
			if trial%3 == 2 {
				targetLoad = 1.1 + rng.Float64()*2
			}
			r := randomRates(rng, n, mu, targetLoad)
			scaleWeightedLoad(r, m, mu, targetLoad)
			if nearOverloadBoundary(expand(r, m), mu) {
				continue
			}
			checkWeightedAgainstExpanded(t, d, scr, r, m, mu, false)
		}
	}
}

// TestPropWeightedKernelsBitwiseOnDyadic: with dyadic rates and a
// power-of-two μ every load and prefix sum is exact, so FIFO's and
// the non-preemptive kernel's weighted results must equal the
// expanded ones bit for bit. Fair Share is held to the tolerance
// contract even here: g(L) is not dyadic, and the expanded recursion
// divides a block's share out one member at a time where the weighted
// one divides once. Its exact loads still pin the overload cutoff,
// which the contract's exact +Inf agreement checks.
func TestPropWeightedKernelsBitwiseOnDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	mus := []float64{0.25, 0.5, 1, 2, 64}
	for _, d := range []InPlace{FIFO{}, FairShare{}, NonPreemptiveFairShare{}} {
		_, fs := d.(FairShare)
		scr := new(Scratch)
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			checkWeightedAgainstExpanded(t, d, scr, dyadicRates(rng, n), randomWeights(rng, n, 9),
				mus[rng.Intn(len(mus))], !fs)
		}
	}
}

// TestWeightedUnitColumnIsUnitKernel pins the unit case: an explicit
// column of ones gives exactly the bits of the nil column, on
// arbitrary (non-dyadic) inputs.
func TestWeightedUnitColumnIsUnitKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, d := range []InPlace{FIFO{}, FairShare{}, NonPreemptiveFairShare{}} {
		scr := new(Scratch)
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(64)
			mu := 0.5 + rng.Float64()*3
			r := randomRates(rng, n, mu, rng.Float64()*2)
			ones := make([]float64, n)
			for i := range ones {
				ones[i] = 1
			}
			q1, w1 := make([]float64, n), make([]float64, n)
			q2, w2 := make([]float64, n), make([]float64, n)
			if err := d.ObserveWeighted(q1, w1, r, nil, mu, scr); err != nil {
				t.Fatal(err)
			}
			if err := d.ObserveWeighted(q2, w2, r, ones, mu, scr); err != nil {
				t.Fatal(err)
			}
			for i := range r {
				if !sameFloat(q1[i], q2[i]) || !sameFloat(w1[i], w2[i]) {
					t.Fatalf("%s r=%v: slot %d nil column %v/%v, ones column %v/%v",
						d.Name(), r, i, q1[i], w1[i], q2[i], w2[i])
				}
			}
		}
	}
}

// TestWeightedRejectsBadMultiplicities: the column must match the
// rates and hold positive finite multiplicities.
func TestWeightedRejectsBadMultiplicities(t *testing.T) {
	q, w := make([]float64, 2), make([]float64, 2)
	for _, m := range [][]float64{{1}, {1, 0}, {1, -2}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		for _, d := range []InPlace{FIFO{}, FairShare{}, NonPreemptiveFairShare{}} {
			if err := d.ObserveWeighted(q, w, []float64{0.1, 0.2}, m, 1, new(Scratch)); err == nil {
				t.Errorf("%s accepted multiplicities %v", d.Name(), m)
			}
		}
	}
}
