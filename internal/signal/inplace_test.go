package signal

import (
	"math"
	"testing"
)

// TestGatewaySignalsIntoMatchesAllocating checks the buffer-writing
// variant against GatewaySignals bit for bit, for both styles and a
// few signal families, including saturated (+Inf) queues.
func TestGatewaySignalsIntoMatchesAllocating(t *testing.T) {
	queues := [][]float64{
		{0},
		{0.5},
		{0.1, 0.4, 2.5},
		{0, 0, 0},
		{3, math.Inf(1), 0.2},
	}
	funcs := []Func{Rational{}, Power{K: 2}, Exponential{Theta: 1.5}}
	for _, style := range []Style{Aggregate, Individual} {
		for _, b := range funcs {
			for _, q := range queues {
				want, err := GatewaySignals(style, b, q)
				if err != nil {
					t.Fatalf("%v/%s: %v", style, b.Name(), err)
				}
				got := make([]float64, len(q))
				for i := range got {
					got[i] = math.NaN() // poison
				}
				if err := GatewaySignalsInto(got, style, b, q); err != nil {
					t.Fatalf("%v/%s: %v", style, b.Name(), err)
				}
				for i := range q {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%v/%s q=%v: signal[%d] = %v, allocating path %v",
							style, b.Name(), q, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGatewaySignalsIntoRejectsBadInput covers the buffer-length and
// unknown-style errors.
func TestGatewaySignalsIntoRejectsBadInput(t *testing.T) {
	if err := GatewaySignalsInto(make([]float64, 1), Aggregate, Rational{}, []float64{1, 2}); err == nil {
		t.Error("mismatched buffer length accepted")
	}
	if err := GatewaySignalsInto(make([]float64, 1), Style(99), Rational{}, []float64{1}); err == nil {
		t.Error("unknown style accepted")
	}
}

// TestScratchReuseAcrossGatewaySizes runs one Scratch over 5-, 3- and
// then 5-slot gateways, as a scratch shared between gateways sees
// them: every call must match a fresh Scratch bit for bit, whatever
// permutation the previous call left behind.
func TestScratchReuseAcrossGatewaySizes(t *testing.T) {
	calls := [][]float64{
		{3, 1, 1, 0, math.Inf(1)},
		{1, 1, 0},
		{0.5, 2, 0.5, math.Inf(1), 0},
	}
	shared := new(Scratch)
	for _, q := range calls {
		got, want := make([]float64, len(q)), make([]float64, len(q))
		if err := IndividualCongestionInto(got, q, nil, shared); err != nil {
			t.Fatal(err)
		}
		if err := IndividualCongestionInto(want, q, nil, new(Scratch)); err != nil {
			t.Fatal(err)
		}
		for i := range q {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("q=%v: slot %d got %v, fresh scratch %v", q, i, got[i], want[i])
			}
		}
	}
}
