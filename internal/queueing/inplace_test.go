package queueing

import (
	"math"
	"math/rand"
	"testing"
)

// inPlaceDisciplines are the disciplines with allocation-free paths;
// every one of them must match its own allocating methods bit for bit.
var inPlaceDisciplines = []Discipline{FIFO{}, FairShare{}, NonPreemptiveFairShare{}}

// sameFloat compares float64s treating NaN == NaN and requiring exact
// bit equality otherwise (the in-place paths promise bit-identical
// values, not merely close ones).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkObserveInto runs both the allocating and the in-place paths on
// one rate vector and fails on any bitwise difference.
func checkObserveInto(t *testing.T, d Discipline, scr *Scratch, r []float64, mu float64) {
	t.Helper()
	qWant, err := d.Queues(r, mu)
	if err != nil {
		t.Fatalf("%s.Queues(%v): %v", d.Name(), r, err)
	}
	wWant, err := d.SojournTimes(r, mu)
	if err != nil {
		t.Fatalf("%s.SojournTimes(%v): %v", d.Name(), r, err)
	}
	// Poison the buffers so stale values can't masquerade as results.
	q := make([]float64, len(r))
	w := make([]float64, len(r))
	for i := range q {
		q[i] = math.NaN()
		w[i] = math.NaN()
	}
	if err := ObserveInto(d, q, w, r, mu, scr); err != nil {
		t.Fatalf("%s.ObserveInto(%v): %v", d.Name(), r, err)
	}
	for i := range r {
		if !sameFloat(q[i], qWant[i]) {
			t.Errorf("%s: r=%v: queue[%d] = %v, allocating path %v", d.Name(), r, i, q[i], qWant[i])
		}
		if !sameFloat(w[i], wWant[i]) {
			t.Errorf("%s: r=%v: sojourn[%d] = %v, allocating path %v", d.Name(), r, i, w[i], wWant[i])
		}
	}
}

// TestObserveIntoMatchesAllocatingEdgeCases pins the corners: zero
// rates, rate ties (where sort stability decides the priority order),
// partial overload, and total overload.
func TestObserveIntoMatchesAllocatingEdgeCases(t *testing.T) {
	cases := [][]float64{
		{0.5},
		{0, 0.4},
		{0.4, 0},
		{0.3, 0.3, 0.3},          // exact ties
		{0, 0, 0.2},              // multiple zero-rate probes
		{0.1, 0.2, 0.9},          // partial overload under Fair Share (μ=1)
		{0.6, 0.6},               // ρ_tot > 1: total overload
		{2, 3, 5},                // everything overloaded
		{1e-12, 1e-12, 0.5},      // vanishing loads (rounding guard)
		{0.25, 0.25, 0.25, 0.24}, // near-symmetric
	}
	for _, d := range inPlaceDisciplines {
		scr := new(Scratch)
		for _, r := range cases {
			checkObserveInto(t, d, scr, r, 1)
		}
	}
}

// TestObserveIntoMatchesAllocatingRandom sweeps random rate vectors —
// including occasional zeros and overloads — through a single reused
// Scratch, checking that reuse never leaks state between calls.
func TestObserveIntoMatchesAllocatingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range inPlaceDisciplines {
		scr := new(Scratch)
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(12)
			mu := 0.5 + rng.Float64()*2
			r := make([]float64, n)
			for i := range r {
				switch rng.Intn(5) {
				case 0:
					r[i] = 0
				case 1:
					r[i] = mu * rng.Float64() // occasionally pushes ρ ≥ 1
				default:
					r[i] = mu * rng.Float64() / float64(n)
				}
			}
			checkObserveInto(t, d, scr, r, mu)
		}
	}
}

// TestObserveIntoRejectsInvalidInput mirrors the allocating methods'
// validation, plus buffer-length checking in the helper.
func TestObserveIntoRejectsInvalidInput(t *testing.T) {
	scr := new(Scratch)
	for _, d := range inPlaceDisciplines {
		if err := ObserveInto(d, []float64{0}, []float64{0}, []float64{-1}, 1, scr); err == nil {
			t.Errorf("%s: negative rate accepted", d.Name())
		}
		if err := ObserveInto(d, []float64{0}, []float64{0}, []float64{0.5}, 0, scr); err == nil {
			t.Errorf("%s: zero service rate accepted", d.Name())
		}
		if err := ObserveInto(d, []float64{0}, []float64{0, 0}, []float64{0.5}, 1, scr); err == nil {
			t.Errorf("%s: mismatched buffer lengths accepted", d.Name())
		}
	}
}

// TestObserveIntoFallback checks the generic copy path for a
// discipline without an in-place implementation.
func TestObserveIntoFallback(t *testing.T) {
	// An embedded FIFO would promote ObserveInto, so strip it by
	// wrapping in a struct that only forwards the base methods.
	type bare struct{ Discipline }
	d := bare{FIFO{}}
	if _, ok := Discipline(d).(InPlace); ok {
		t.Fatal("test wrapper unexpectedly implements InPlace")
	}
	r := []float64{0.2, 0.3}
	q := make([]float64, 2)
	w := make([]float64, 2)
	if err := ObserveInto(d, q, w, r, 1, new(Scratch)); err != nil {
		t.Fatal(err)
	}
	qWant, _ := FIFO{}.Queues(r, 1)
	wWant, _ := FIFO{}.SojournTimes(r, 1)
	for i := range r {
		if !sameFloat(q[i], qWant[i]) || !sameFloat(w[i], wWant[i]) {
			t.Fatalf("fallback mismatch at %d: q=%v w=%v want q=%v w=%v", i, q[i], w[i], qWant[i], wWant[i])
		}
	}
}

// TestScratchReuseAcrossGatewaySizes runs one Scratch over 5-, 3- and
// then 5-slot gateways, as a scratch shared between gateways sees
// them: every call must match a fresh Scratch bit for bit, whatever
// permutation the previous call left behind.
func TestScratchReuseAcrossGatewaySizes(t *testing.T) {
	calls := [][]float64{
		{0.3, 0.1, 0.1, 0, 0.2},
		{0.1, 0.1, 0},
		{0.05, 0.2, 0.05, 0.3, 0},
	}
	for _, d := range []InPlace{FairShare{}, NonPreemptiveFairShare{}} {
		shared := new(Scratch)
		for _, r := range calls {
			q, w := make([]float64, len(r)), make([]float64, len(r))
			qWant, wWant := make([]float64, len(r)), make([]float64, len(r))
			if err := d.ObserveWeighted(q, w, r, nil, 1, shared); err != nil {
				t.Fatal(err)
			}
			if err := d.ObserveWeighted(qWant, wWant, r, nil, 1, new(Scratch)); err != nil {
				t.Fatal(err)
			}
			for i := range r {
				if !sameFloat(q[i], qWant[i]) || !sameFloat(w[i], wWant[i]) {
					t.Fatalf("%s r=%v: slot %d got q=%v w=%v, fresh scratch q=%v w=%v",
						d.Name(), r, i, q[i], w[i], qWant[i], wWant[i])
				}
			}
		}
	}
}
