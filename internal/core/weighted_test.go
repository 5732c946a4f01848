package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// lawsOf returns sys's per-connection laws.
func lawsOf(sys *System) []control.Law {
	laws := make([]control.Law, sys.Network().NumConnections())
	for i := range laws {
		laws[i] = sys.Law(i)
	}
	return laws
}

// reportJSON renders sys's report of res.
func reportJSON(t *testing.T, sys *System, res *RunResult) []byte {
	t.Helper()
	rep, err := sys.Report(res, "weighted")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWeightedUnitColumnBitwise pins the weighted constructor's unit
// case: an all-ones weight column is NewSystem bit for bit — the run,
// the final observation and the Report JSON — on the heterogeneous
// multi-gateway shape, in all six discipline × feedback corners. Both
// runs are unhooked, so under individual feedback both extrapolate:
// the weighted inner products reduce to the unit ones exactly.
func TestWeightedUnitColumnBitwise(t *testing.T) {
	fixed := time.Unix(0, 0)
	opt := RunOptions{MaxSteps: 400, Clock: func() time.Time { return fixed }}
	for _, disc := range []queueing.Discipline{queueing.FairShare{}, queueing.FIFO{}, queueing.NonPreemptiveFairShare{}} {
		for _, style := range []signal.Style{signal.Aggregate, signal.Individual} {
			name := disc.Name() + "/" + style.String()
			plain := heteroSystem(t, disc, style)
			n := plain.Network().NumConnections()
			ones := make([]float64, n)
			r0 := make([]float64, n)
			for i := range ones {
				ones[i] = 1
				r0[i] = 0.02 * float64(1+i%7)
			}
			weighted, err := NewWeightedSystem(plain.Network(), disc, style, plain.SignalFunc(), lawsOf(plain), ones)
			if err != nil {
				t.Fatal(err)
			}
			if plain.classes != nil {
				t.Fatalf("%s: the reference system has identical connections to collapse", name)
			}
			want, err := plain.Run(r0, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := weighted.Run(r0, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, name, got, want)
			if g, w := reportJSON(t, weighted, got), reportJSON(t, plain, want); !bytes.Equal(g, w) {
				t.Fatalf("%s: weighted report\n%s\nwant\n%s", name, g, w)
			}
		}
	}
}

// plainDiscipline hides a discipline's weighted kernel, leaving only
// the allocating Discipline methods.
type plainDiscipline struct{ queueing.Discipline }

// TestNewWeightedSystemValidation covers the weight column's checks:
// one positive, finite weight per connection, and a discipline with a
// weighted kernel. Routes and gateways are topology.Builder's to
// check (topology_test.go).
func TestNewWeightedSystemValidation(t *testing.T) {
	sys := heteroSystem(t, queueing.FairShare{}, signal.Individual)
	n := sys.Network().NumConnections()
	build := func(disc queueing.Discipline, weights []float64) error {
		_, err := NewWeightedSystem(sys.Network(), disc, sys.Style(), sys.SignalFunc(), lawsOf(sys), weights)
		return err
	}
	for _, tc := range []struct {
		name string
		disc queueing.Discipline
		bad  func(w []float64) []float64
	}{
		{"zero weight", queueing.FairShare{}, func(w []float64) []float64 { w[3] = 0; return w }},
		{"negative weight", queueing.FairShare{}, func(w []float64) []float64 { w[3] = -2; return w }},
		{"nan weight", queueing.FairShare{}, func(w []float64) []float64 { w[3] = math.NaN(); return w }},
		{"inf weight", queueing.FairShare{}, func(w []float64) []float64 { w[3] = math.Inf(1); return w }},
		{"length mismatch", queueing.FairShare{}, func(w []float64) []float64 { return w[:n-1] }},
		{"no weighted kernel", plainDiscipline{queueing.FIFO{}}, func(w []float64) []float64 { return w }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := make([]float64, n)
			for i := range w {
				w[i] = 1 + float64(i%4)
			}
			if err := build(tc.disc, tc.bad(w)); err == nil {
				t.Fatalf("NewWeightedSystem accepted %s", tc.name)
			}
		})
	}

	// Unit weights need no weighted kernel: NewSystem runs a plain
	// Discipline through its allocating methods, bit for bit.
	plain, err := NewSystem(sys.Network(), plainDiscipline{queueing.FIFO{}}, sys.Style(), sys.SignalFunc(), lawsOf(sys))
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := NewSystem(sys.Network(), queueing.FIFO{}, sys.Style(), sys.SignalFunc(), lawsOf(sys))
	if err != nil {
		t.Fatal(err)
	}
	fixed := time.Unix(0, 0)
	opt := RunOptions{MaxSteps: 200, Clock: func() time.Time { return fixed }}
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.05
	}
	got, err := plain.Run(r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fifo.Run(r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "plain FIFO", got, want)
}
