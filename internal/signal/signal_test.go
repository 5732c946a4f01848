package signal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allFuncs() []Func {
	return []Func{Rational{}, Power{K: 2}, Power{K: 0.5}, Exponential{Theta: 1}, Exponential{Theta: 3}}
}

func TestRationalKnown(t *testing.T) {
	b := Rational{}
	cases := []struct{ c, want float64 }{
		{0, 0},
		{1, 0.5},
		{3, 0.75},
		{math.Inf(1), 1},
	}
	for _, cse := range cases {
		if got := b.Eval(cse.c); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("B(%v) = %v, want %v", cse.c, got, cse.want)
		}
	}
}

func TestPowerReducesToRational(t *testing.T) {
	p := Power{K: 1}
	r := Rational{}
	for _, c := range []float64{0, 0.5, 2, 100} {
		if math.Abs(p.Eval(c)-r.Eval(c)) > 1e-12 {
			t.Errorf("Power{1}(%v) != Rational(%v)", c, c)
		}
	}
}

func TestExponentialKnown(t *testing.T) {
	e := Exponential{Theta: 2}
	if got := e.Eval(0); got != 0 {
		t.Errorf("B(0) = %v, want 0", got)
	}
	want := 1 - math.Exp(-1)
	if got := e.Eval(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("B(2) = %v, want %v", got, want)
	}
	if got := e.Eval(math.Inf(1)); got != 1 {
		t.Errorf("B(Inf) = %v, want 1", got)
	}
}

func TestEvalPanicsOnNegative(t *testing.T) {
	for _, f := range allFuncs() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Eval(-1) should panic", f.Name())
				}
			}()
			f.Eval(-1)
		}()
	}
}

func TestBadParametersPanicOrError(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Power{0}.Eval should panic")
			}
		}()
		Power{K: 0}.Eval(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Exponential{0}.Eval should panic")
			}
		}()
		Exponential{Theta: 0}.Eval(1)
	}()
	if _, err := (Power{K: -1}).Inverse(0.5); err == nil {
		t.Error("Power{-1}.Inverse should error")
	}
	if _, err := (Exponential{Theta: -1}).Inverse(0.5); err == nil {
		t.Error("Exponential{-1}.Inverse should error")
	}
}

func TestInverseEdges(t *testing.T) {
	for _, f := range allFuncs() {
		c, err := f.Inverse(1)
		if err != nil || !math.IsInf(c, 1) {
			t.Errorf("%s: Inverse(1) = %v, %v; want +Inf", f.Name(), c, err)
		}
		c, err = f.Inverse(0)
		if err != nil || c != 0 {
			t.Errorf("%s: Inverse(0) = %v, %v; want 0", f.Name(), c, err)
		}
		if _, err := f.Inverse(-0.1); err == nil {
			t.Errorf("%s: Inverse(-0.1) should error", f.Name())
		}
		if _, err := f.Inverse(1.1); err == nil {
			t.Errorf("%s: Inverse(1.1) should error", f.Name())
		}
	}
}

// Property: each Func is a strictly increasing bijection [0,∞)→[0,1)
// and Inverse inverts Eval.
func TestPropFuncBijection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, fn := range allFuncs() {
			c1 := rng.Float64() * 20
			c2 := c1 + 0.01 + rng.Float64()*5
			b1, b2 := fn.Eval(c1), fn.Eval(c2)
			if !(b1 >= 0 && b2 <= 1 && b2 > b1) {
				return false
			}
			inv, err := fn.Inverse(b1)
			if err != nil {
				return false
			}
			if math.Abs(inv-c1) > 1e-6*(1+c1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAggregateCongestion(t *testing.T) {
	if got := AggregateCongestion([]float64{1, 2, 3}, nil); got != 6 {
		t.Errorf("aggregate = %v, want 6", got)
	}
	if got := AggregateCongestion([]float64{1, math.Inf(1)}, nil); !math.IsInf(got, 1) {
		t.Errorf("aggregate with Inf = %v, want +Inf", got)
	}
}

func TestIndividualCongestion(t *testing.T) {
	q := []float64{1, 2, 4}
	// Smallest queue: C = N·Q_min = 3.
	if got := IndividualCongestion(q, 0); got != 3 {
		t.Errorf("C_0 = %v, want 3", got)
	}
	// Middle: min(1,2)+min(2,2)+min(4,2) = 1+2+2 = 5.
	if got := IndividualCongestion(q, 1); got != 5 {
		t.Errorf("C_1 = %v, want 5", got)
	}
	// Largest queue: C equals the aggregate, 7.
	if got := IndividualCongestion(q, 2); got != 7 {
		t.Errorf("C_2 = %v, want 7", got)
	}
}

func TestIndividualCongestionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range index should panic")
		}
	}()
	IndividualCongestion([]float64{1}, 3)
}

// Property: the paper's two boundary identities — the smallest queue's
// individual congestion is N·Q_min, the largest queue's equals the
// aggregate — plus monotonicity of C_i in Q_i.
func TestPropIndividualCongestionIdentities(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		q := make([]float64, n)
		for i := range q {
			q[i] = rng.Float64() * 10
		}
		minI, maxI := 0, 0
		for i := range q {
			if q[i] < q[minI] {
				minI = i
			}
			if q[i] > q[maxI] {
				maxI = i
			}
		}
		if math.Abs(IndividualCongestion(q, minI)-float64(n)*q[minI]) > 1e-9 {
			return false
		}
		if math.Abs(IndividualCongestion(q, maxI)-AggregateCongestion(q, nil)) > 1e-9 {
			return false
		}
		// Monotone: larger queue ⇒ larger (or equal) individual congestion.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if q[i] > q[j] && IndividualCongestion(q, i) < IndividualCongestion(q, j)-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGatewaySignalsAggregate(t *testing.T) {
	sig, err := GatewaySignals(Aggregate, Rational{}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := Rational{}.Eval(3)
	for i, s := range sig {
		if math.Abs(s-want) > 1e-12 {
			t.Errorf("aggregate signal[%d] = %v, want %v (identical for all)", i, s, want)
		}
	}
}

func TestGatewaySignalsIndividual(t *testing.T) {
	sig, err := GatewaySignals(Individual, Rational{}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(sig[0] < sig[1]) {
		t.Errorf("individual signals should order with queues: %v", sig)
	}
	want0 := Rational{}.Eval(2) // min(1,1)+min(4,1) = 2
	if math.Abs(sig[0]-want0) > 1e-12 {
		t.Errorf("signal[0] = %v, want %v", sig[0], want0)
	}
}

func TestGatewaySignalsUnknownStyle(t *testing.T) {
	if _, err := GatewaySignals(Style(42), Rational{}, []float64{1}); err == nil {
		t.Error("want error for unknown style")
	}
}

func TestStyleString(t *testing.T) {
	if Aggregate.String() != "aggregate" || Individual.String() != "individual" {
		t.Error("unexpected style names")
	}
	if Style(9).String() == "" {
		t.Error("unknown style should still render")
	}
}

func TestCombineBottleneck(t *testing.T) {
	b, err := CombineBottleneck([]float64{0.2, 0.9, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if b != 0.9 {
		t.Errorf("combined = %v, want 0.9", b)
	}
	if _, err := CombineBottleneck(nil); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := CombineBottleneck([]float64{1.5}); err == nil {
		t.Error("want error for out-of-range signal")
	}
}

// The identity the paper highlights: with the rational signal and
// aggregate feedback over M/M/1 totals, b = ρ exactly.
func TestRationalOfGMakesSignalEqualLoad(t *testing.T) {
	for _, rho := range []float64{0, 0.3, 0.7, 0.95} {
		c := rho / (1 - rho) // g(ρ)
		if got := (Rational{}).Eval(c); math.Abs(got-rho) > 1e-12 {
			t.Errorf("B(g(%v)) = %v, want %v", rho, got, rho)
		}
	}
}
