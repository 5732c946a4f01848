package signal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the batched prefix-sum congestion kernels against
// the naive per-connection scans they replaced — IndividualCongestion,
// GatewaySignals and GatewaySignalsInto below are those O(N²)
// references, kept here as test oracles — under the tolerance contract
// of docs/PERFORMANCE.md: bitwise when every intermediate sum is exact
// (dyadic queues), a 1e-9 mixed relative-absolute bound otherwise, and
// exact +Inf agreement always. The weighted tables then hold the
// multiplicity column to the same contract against the unit-weight
// kernel on the expanded vector.

// IndividualCongestion returns C_i = Σ_k min(Q_k, Q_i) by a direct
// scan: the paper's definition, one connection per slot. For the
// smallest queue this equals N·Q_i; for the largest it equals the
// aggregate measure.
func IndividualCongestion(q []float64, i int) float64 {
	if i < 0 || i >= len(q) {
		panic(fmt.Sprintf("signal: connection %d out of range [0,%d)", i, len(q)))
	}
	qi := q[i]
	checkCongestion(qi)
	c := 0.0
	for _, qk := range q {
		checkCongestion(qk)
		c += math.Min(qk, qi)
	}
	return c
}

// GatewaySignals is the allocating reference for one gateway's
// per-connection signals.
func GatewaySignals(style Style, b Func, q []float64) ([]float64, error) {
	out := make([]float64, len(q))
	if err := GatewaySignalsInto(out, style, b, q); err != nil {
		return nil, err
	}
	return out, nil
}

// GatewaySignalsInto is GatewaySignals writing into a caller-provided
// buffer, with individual congestion from N independent scans.
func GatewaySignalsInto(out []float64, style Style, b Func, q []float64) error {
	if len(out) != len(q) {
		return fmt.Errorf("signal: %d-slot buffer for %d queues", len(out), len(q))
	}
	switch style {
	case Aggregate:
		s := b.Eval(AggregateCongestion(q, nil))
		for i := range out {
			out[i] = s
		}
	case Individual:
		for i := range out {
			out[i] = b.Eval(IndividualCongestion(q, i))
		}
	default:
		return fmt.Errorf("signal: unknown feedback style %d", int(style))
	}
	return nil
}

const prefixTol = 1e-9

func congestionClose(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= prefixTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// randomQueues draws a queue vector mixing uniform values, exact
// zeros, exact ties, denormals, and (when withInf) saturated +Inf
// entries.
func randomQueues(rng *rand.Rand, n int, withInf bool) []float64 {
	q := make([]float64, n)
	tieVal := rng.Float64() * 10
	for i := range q {
		switch rng.Intn(7) {
		case 0:
			q[i] = 0
		case 1:
			q[i] = tieVal
		case 2:
			q[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(9))
		case 3:
			if withInf {
				q[i] = math.Inf(1)
			} else {
				q[i] = rng.Float64() * 100
			}
		default:
			q[i] = rng.Float64() * 10
		}
	}
	return q
}

// TestPropIndividualCongestionIntoMatchesNaive sweeps randomized queue
// vectors — zeros, ties, denormals, +Inf saturation — through the
// batched kernel against N independent IndividualCongestion scans.
func TestPropIndividualCongestionIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	scr := new(Scratch)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(64)
		if trial%23 == 0 {
			n = 300
		}
		q := randomQueues(rng, n, trial%2 == 0)
		c := make([]float64, n)
		if err := IndividualCongestionInto(c, q, nil, scr); err != nil {
			t.Fatal(err)
		}
		for i := range q {
			want := IndividualCongestion(q, i)
			if !congestionClose(c[i], want) {
				t.Errorf("q=%v: C[%d] = %v, naive scan %v", q, i, c[i], want)
			}
		}
	}
}

// TestIndividualCongestionIntoBitwiseOnDyadic: queues that are integer
// multiples of 2^-20 make every partial sum exact, so the reordered
// prefix sum must agree with the naive scan bit for bit.
func TestIndividualCongestionIntoBitwiseOnDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	scr := new(Scratch)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		q := make([]float64, n)
		for i := range q {
			switch rng.Intn(5) {
			case 0:
				q[i] = 0
			case 1:
				q[i] = math.Inf(1)
			default:
				q[i] = float64(rng.Intn(1<<20)) * 0x1p-20
			}
		}
		c := make([]float64, n)
		if err := IndividualCongestionInto(c, q, nil, scr); err != nil {
			t.Fatal(err)
		}
		for i := range q {
			want := IndividualCongestion(q, i)
			if math.Float64bits(c[i]) != math.Float64bits(want) {
				t.Errorf("dyadic q=%v: C[%d] = %v (bits %x), naive %v (bits %x)",
					q, i, c[i], math.Float64bits(c[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestIndividualCongestionIntoEdgeCases pins hand-checked values: the
// smallest queue sees N·Q_i, the largest sees the aggregate, +Inf
// queues see +Inf, and an all-+Inf vector saturates every entry with
// no NaN leakage from 0·∞ or ∞−∞.
func TestIndividualCongestionIntoEdgeCases(t *testing.T) {
	scr := new(Scratch)
	inf := math.Inf(1)
	cases := []struct {
		q    []float64
		want []float64
	}{
		{[]float64{2}, []float64{2}},
		{[]float64{0, 0, 0}, []float64{0, 0, 0}},
		{[]float64{1, 2, 4}, []float64{3, 5, 7}},     // smallest: 3·1; largest: 1+2+4
		{[]float64{0, inf}, []float64{0, inf}},       // zero queue with a saturated peer: min(∞,0) = 0
		{[]float64{inf, inf}, []float64{inf, inf}},   // all saturated
		{[]float64{1, inf, 1}, []float64{3, inf, 3}}, // ties around a saturated entry
	}
	for _, tc := range cases {
		c := make([]float64, len(tc.q))
		if err := IndividualCongestionInto(c, tc.q, nil, scr); err != nil {
			t.Fatal(err)
		}
		for i := range tc.q {
			if math.Float64bits(c[i]) != math.Float64bits(tc.want[i]) {
				t.Errorf("q=%v: C[%d] = %v, want %v", tc.q, i, c[i], tc.want[i])
			}
			if math.IsNaN(c[i]) {
				t.Errorf("q=%v: C[%d] is NaN", tc.q, i)
			}
		}
	}
}

// TestGatewaySignalsBatchedMatchesInto compares the batched variant
// against the scratch-free reference for both styles and several
// signal families: aggregate must be bitwise, individual within the
// tolerance contract after the (Lipschitz-1-bounded on [0,∞)) signal
// map.
func TestGatewaySignalsBatchedMatchesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	funcs := []Func{Rational{}, Power{K: 2}, Exponential{Theta: 1.5}}
	scr := new(Scratch)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		q := randomQueues(rng, n, trial%3 == 0)
		for _, style := range []Style{Aggregate, Individual} {
			for _, b := range funcs {
				want := make([]float64, n)
				if err := GatewaySignalsInto(want, style, b, q); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, n)
				for i := range got {
					got[i] = math.NaN() // poison
				}
				if err := GatewaySignalsBatched(got, style, b, q, scr); err != nil {
					t.Fatal(err)
				}
				for i := range q {
					if style == Aggregate {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Errorf("%v/%s q=%v: signal[%d] = %v, reference %v",
								style, b.Name(), q, i, got[i], want[i])
						}
					} else if math.Abs(got[i]-want[i]) > prefixTol {
						t.Errorf("%v/%s q=%v: signal[%d] = %v, reference %v",
							style, b.Name(), q, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGatewaySignalsBatchedRejectsBadInput mirrors the reference
// path's error cases.
func TestGatewaySignalsBatchedRejectsBadInput(t *testing.T) {
	scr := new(Scratch)
	if err := GatewaySignalsBatched(make([]float64, 1), Aggregate, Rational{}, []float64{1, 2}, scr); err == nil {
		t.Error("mismatched buffer length accepted")
	}
	if err := GatewaySignalsBatched(make([]float64, 1), Style(99), Rational{}, []float64{1}, scr); err == nil {
		t.Error("unknown style accepted")
	}
	if err := IndividualCongestionInto(make([]float64, 1), []float64{1, 2}, nil, scr); err == nil {
		t.Error("mismatched congestion buffer accepted")
	}
	if err := IndividualCongestionInto(make([]float64, 2), []float64{1, 2}, []float64{1}, scr); err == nil {
		t.Error("mismatched multiplicity column accepted")
	}
	if err := GatewaySignalsWeighted(make([]float64, 2), Aggregate, Rational{}, []float64{1, 2}, []float64{1}, scr); err == nil {
		t.Error("mismatched multiplicity column accepted by the signal kernel")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: invalid queue accepted", name)
			}
		}()
		f()
	}
	mustPanic("negative queue", func() {
		_ = IndividualCongestionInto(make([]float64, 2), []float64{1, -1}, nil, scr)
	})
	mustPanic("NaN queue", func() {
		_ = IndividualCongestionInto(make([]float64, 2), []float64{math.NaN(), 1}, nil, scr)
	})
}

// TestBatchedSignalsZeroAlloc pins the batched kernels at zero
// allocations per call in steady state, for both styles.
func TestBatchedSignalsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 128
	q := randomQueues(rng, n, false)
	out := make([]float64, n)
	c := make([]float64, n)
	for _, style := range []Style{Aggregate, Individual} {
		scr := new(Scratch)
		scr.Grow(n)
		if err := GatewaySignalsBatched(out, style, Rational{}, q, scr); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := GatewaySignalsBatched(out, style, Rational{}, q, scr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("GatewaySignalsBatched(%v) allocates %.1f objects per call, want 0", style, allocs)
		}
	}
	scr := new(Scratch)
	scr.Grow(n)
	if err := IndividualCongestionInto(c, q, nil, scr); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := IndividualCongestionInto(c, q, nil, scr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("IndividualCongestionInto allocates %.1f objects per call, want 0", allocs)
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

// checkWeightedAgainstExpanded evaluates the aggregate measure, the
// individual measure, and both signal styles on (q, m) with the
// weighted kernels and on the expanded vector at unit weight: every
// copy of slot k must carry slot k's value, bit for bit or within the
// tolerance contract.
func checkWeightedAgainstExpanded(t *testing.T, scr *Scratch, q, m []float64, bitwise bool) {
	t.Helper()
	same := func(a, b float64) bool {
		if bitwise {
			return math.Float64bits(a) == math.Float64bits(b)
		}
		return congestionClose(a, b)
	}
	x := expand(q, m)
	if a, ax := AggregateCongestion(q, m), AggregateCongestion(x, nil); !same(a, ax) {
		t.Errorf("q=%v m=%v: weighted aggregate %v, expanded %v", q, m, a, ax)
	}
	c, cx := make([]float64, len(q)), make([]float64, len(x))
	if err := IndividualCongestionInto(c, q, m, scr); err != nil {
		t.Fatal(err)
	}
	if err := IndividualCongestionInto(cx, x, nil, scr); err != nil {
		t.Fatal(err)
	}
	type column struct {
		name       string
		got, unitX []float64
	}
	cols := []column{{"individual congestion", c, cx}}
	for _, style := range []Style{Aggregate, Individual} {
		s, sx := make([]float64, len(q)), make([]float64, len(x))
		if err := GatewaySignalsWeighted(s, style, Rational{}, q, m, scr); err != nil {
			t.Fatal(err)
		}
		if err := GatewaySignalsBatched(sx, style, Rational{}, x, scr); err != nil {
			t.Fatal(err)
		}
		cols = append(cols, column{style.String() + " signal", s, sx})
	}
	for _, col := range cols {
		pos := 0
		for k := range q {
			for copy := 0; copy < int(m[k]); copy++ {
				if !same(col.got[k], col.unitX[pos]) {
					t.Errorf("q=%v m=%v: %s slot %d copy %d: weighted %v, expanded %v",
						q, m, col.name, k, copy, col.got[k], col.unitX[pos])
				}
				pos++
			}
		}
	}
}

// TestPropWeightedCongestionMatchesExpanded sweeps random integer
// multiplicities over the same queue mix as the naive tables — zeros,
// ties, denormals, +Inf saturation — within the tolerance contract.
func TestPropWeightedCongestionMatchesExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	scr := new(Scratch)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(32)
		checkWeightedAgainstExpanded(t, scr, randomQueues(rng, n, trial%2 == 0), randomWeights(rng, n, 9), false)
	}
}

// TestWeightedCongestionBitwiseOnDyadic: dyadic queues keep every
// weighted product and prefix sum exact, so the weighted kernels must
// equal the expanded unit-weight ones bit for bit.
func TestWeightedCongestionBitwiseOnDyadic(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	scr := new(Scratch)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(32)
		q := make([]float64, n)
		for i := range q {
			switch rng.Intn(5) {
			case 0:
				q[i] = 0
			case 1:
				q[i] = math.Inf(1)
			default:
				q[i] = float64(rng.Intn(1<<20)) * 0x1p-20
			}
		}
		checkWeightedAgainstExpanded(t, scr, q, randomWeights(rng, n, 9), true)
	}
}

// TestWeightedUnitColumnIsUnitKernel pins the unit case: an explicit
// column of ones gives exactly the bits of the nil column, on
// arbitrary (non-dyadic) queues.
func TestWeightedUnitColumnIsUnitKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	scr := new(Scratch)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		q := randomQueues(rng, n, trial%2 == 0)
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		for _, style := range []Style{Aggregate, Individual} {
			s1, s2 := make([]float64, n), make([]float64, n)
			if err := GatewaySignalsWeighted(s1, style, Exponential{Theta: 1.5}, q, nil, scr); err != nil {
				t.Fatal(err)
			}
			if err := GatewaySignalsWeighted(s2, style, Exponential{Theta: 1.5}, q, ones, scr); err != nil {
				t.Fatal(err)
			}
			for i := range q {
				if math.Float64bits(s1[i]) != math.Float64bits(s2[i]) {
					t.Fatalf("%v q=%v: slot %d nil column %v, ones column %v", style, q, i, s1[i], s2[i])
				}
			}
		}
	}
}
