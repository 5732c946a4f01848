package core_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// classDoc renders a two-class count document: n connections across
// gateways A and B, and n/2 (at least one) on A alone, every class on
// one multiplicative law of gain eta.
func classDoc(disc, feed string, eta float64, n int) string {
	return fmt.Sprintf(`{
		"name": "classes",
		"discipline": %q,
		"feedback": %q,
		"gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}, {"name": "B", "mu": 2.0, "latency": 0.1}],
		"connections": [
			{"path": ["A", "B"], "count": %d, "law": {"kind": "multiplicative", "eta": %g, "bss": 0.3}},
			{"path": ["A"], "count": %d, "law": {"kind": "multiplicative", "eta": %g, "bss": 0.4}}
		],
		"maxSteps": 3000
	}`, disc, feed, n, eta, max(1, n/2), eta)
}

func buildDoc(t *testing.T, doc []byte) (*scenario.Spec, *core.System, []float64) {
	t.Helper()
	sp, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sys, r0, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp, sys, r0
}

// perConnection runs sys over every connection: the reference.
func perConnection(t *testing.T, sys *core.System, r0 []float64, opt core.RunOptions) *core.RunResult {
	t.Helper()
	opt.Hook = core.PerConnection{}
	res, err := sys.Run(r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// closeTo reports whether got is within tol of want, relative to the
// larger magnitude; equal infinities (an overloaded path's delay)
// match.
func closeTo(got, want, tol float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

func closeRows(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i], 1e-9) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// traceRows records every tracer callback's rates and signals.
type traceRows struct{ r, b [][]float64 }

func (tr *traceRows) OnStep(_ int, r []float64, _ float64, b []float64) {
	tr.r = append(tr.r, append([]float64(nil), r...))
	tr.b = append(tr.b, append([]float64(nil), b...))
}

// TestClassRunMatchesPerConnection is the class collapse's property:
// on count documents — two classes over all four corners, stable,
// oscillating and absorbing gains, populations of 2 to 192, and
// pool-workload-shaped populations of up to 384 — an unhooked Run
// (one weighted slot per class) and the per-connection iteration
// agree on the converged flag and the step count, and on the rates,
// signals, delays, queues and bottlenecks within 1e-9 relative, with
// every trajectory row and tracer callback in connection indexing.
func TestClassRunMatchesPerConnection(t *testing.T) {
	type doc struct {
		name string
		body []byte
	}
	var docs []doc
	for _, disc := range []string{"fifo", "fairshare"} {
		for _, feed := range []string{"aggregate", "individual"} {
			for _, eta := range []float64{0.5, 1.5, 1.95, 2.5, 4, 8} {
				for _, n := range []int{2, 16, 128} {
					docs = append(docs, doc{fmt.Sprintf("%s/%s/eta=%g/N=%d", disc, feed, eta, n), []byte(classDoc(disc, feed, eta, n))})
				}
			}
		}
	}
	pools := 64
	if testing.Short() {
		pools = 8
	}
	for seed := 1; seed <= pools; seed++ {
		counts := []int64{1 << (4 + seed%5), 1 << (4 + (seed+1)%3)}
		if seed%2 == 0 {
			counts = append(counts, 1<<(4+(seed+2)%3))
		}
		docs = append(docs, doc{fmt.Sprintf("pool/%d", seed), scenariotest.Pool(int64(seed), counts...)})
	}

	converged, unconverged := 0, 0
	for _, d := range docs {
		t.Run(d.name, func(t *testing.T) {
			sp, sys, r0 := buildDoc(t, d.body)
			if got := core.NumClasses(sys); got < 2 || got > 3 {
				t.Fatalf("%d classes, want 2 or 3", got)
			}
			opt := sp.RunOptions()
			opt.Record = true
			want := perConnection(t, sys, r0, opt)
			tr := &traceRows{}
			opt.Tracer = tr
			got, err := sys.Run(r0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Converged != want.Converged || got.Steps != want.Steps {
				t.Fatalf("converged %v in %d steps, per connection %v in %d", got.Converged, got.Steps, want.Converged, want.Steps)
			}
			if got.Converged {
				converged++
			} else {
				unconverged++
			}
			closeRows(t, "rates", got.Rates, want.Rates)
			closeRows(t, "signals", got.Final.Signals, want.Final.Signals)
			closeRows(t, "delays", got.Final.Delays, want.Final.Delays)
			if len(got.Final.Queues) != len(want.Final.Queues) {
				t.Fatalf("%d queue rows, want %d", len(got.Final.Queues), len(want.Final.Queues))
			}
			for a := range want.Final.Queues {
				closeRows(t, fmt.Sprintf("queues[%d]", a), got.Final.Queues[a], want.Final.Queues[a])
			}
			for i := range want.Final.Bottlenecks {
				if fmt.Sprint(got.Final.Bottlenecks[i]) != fmt.Sprint(want.Final.Bottlenecks[i]) {
					t.Fatalf("bottlenecks[%d] = %v, want %v", i, got.Final.Bottlenecks[i], want.Final.Bottlenecks[i])
				}
			}
			if len(got.Trajectory) != len(want.Trajectory) || len(tr.r) != got.Steps {
				t.Fatalf("%d trajectory rows and %d callbacks, want %d and %d", len(got.Trajectory), len(tr.r), len(want.Trajectory), got.Steps)
			}
			for k := range want.Trajectory {
				closeRows(t, fmt.Sprintf("trajectory[%d]", k), got.Trajectory[k], want.Trajectory[k])
			}
			for k := range tr.r {
				for i := range tr.r[k] {
					if tr.r[k][i] != got.Trajectory[k][i] {
						t.Fatalf("callback %d saw r[%d] = %v, trajectory has %v", k, i, tr.r[k][i], got.Trajectory[k][i])
					}
				}
				if len(tr.b[k]) != len(r0) {
					t.Fatalf("callback %d saw %d signals for %d connections", k, len(tr.b[k]), len(r0))
				}
			}
		})
	}
	if converged+unconverged == len(docs) && (converged == 0 || unconverged == 0) {
		t.Errorf("%d converged and %d unconverged runs; the cases should cover both", converged, unconverged)
	}

	// Splitting a count=N entry into adjacent count=a and count=N−a
	// entries of the same law builds the same runs, so the report is
	// byte for byte the same.
	t.Run("split", func(t *testing.T) {
		whole := classDoc("fairshare", "individual", 1.5, 128)
		for _, a := range []int{1, 37, 127} {
			split := strings.Replace(whole, `"count": 128,`, fmt.Sprintf(`"count": %d, "law": {"kind": "multiplicative", "eta": 1.5, "bss": 0.3}},
				{"path": ["A", "B"], "count": %d,`, a, 128-a), 1)
			if split == whole {
				t.Fatal("split did not apply")
			}
			if g, w := render(t, []byte(split)), render(t, []byte(whole)); !bytes.Equal(g, w) {
				t.Fatalf("count=128 split as %d+%d: report\n%s\nwant\n%s", a, 128-a, g, w)
			}
		}
	})

	// An explicit initial vector that differs inside a run leaves
	// nothing to collapse: Run iterates every connection, bit for bit.
	t.Run("initial-splits-run", func(t *testing.T) {
		initial := make([]string, 16+8)
		for i := range initial {
			initial[i] = "0.01"
		}
		initial[3] = "0.02" // inside the first run
		doc := strings.Replace(classDoc("fifo", "individual", 1.5, 16), `"maxSteps": 3000`,
			`"initial": [`+strings.Join(initial, ", ")+`], "maxSteps": 3000`, 1)
		_, sys, r0 := buildDoc(t, []byte(doc))
		if r0[3] != 0.02 || r0[2] != 0.01 || r0[4] != 0.01 {
			t.Fatalf("initial %v, want 0.02 at connection 3 and 0.01 elsewhere", r0)
		}
		want := perConnection(t, sys, r0, core.RunOptions{Record: true})
		got, err := sys.Run(r0, core.RunOptions{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps != want.Steps || len(got.Trajectory) != len(want.Trajectory) {
			t.Fatalf("%d steps, per connection %d", got.Steps, want.Steps)
		}
		for k := range want.Trajectory {
			for i := range want.Trajectory[k] {
				if math.Float64bits(got.Trajectory[k][i]) != math.Float64bits(want.Trajectory[k][i]) {
					t.Fatalf("trajectory[%d][%d] = %v, per connection %v", k, i, got.Trajectory[k][i], want.Trajectory[k][i])
				}
			}
		}
	})
}

// TestClassRunConcurrent: a System stays safe for concurrent use on
// the class path, whose class-level system and its workspace pool are
// shared by every Run.
func TestClassRunConcurrent(t *testing.T) {
	sp, sys, r0 := buildDoc(t, scenariotest.Pool(7, 64, 32))
	want, err := sys.Run(r0, sp.RunOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				got, err := sys.Run(r0, sp.RunOptions())
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want.Rates {
					if got.Rates[i] != want.Rates[i] || got.Final.Signals[i] != want.Final.Signals[i] {
						t.Errorf("concurrent run differs at connection %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// render solves doc through Load, Build, Run and Report and renders
// the report with wall_ns zeroed.
func render(t *testing.T, doc []byte) []byte {
	t.Helper()
	sp, sys, r0 := buildDoc(t, doc)
	res, err := sys.Run(r0, sp.RunOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Report(res, sp.Name)
	if err != nil {
		t.Fatal(err)
	}
	rep.WallNS = 0
	return rep.AppendJSON(nil)
}

// wrapped is a comparable law type whose values may not be: == on two
// wrapped values holding a control.Custom panics.
type wrapped struct{ control.Law }

// TestClassPlanComparesLawsSafely: laws are merged only by ==, and
// only where == is defined on their dynamic values, so identical
// connections on an incomparable law iterate one by one instead of
// panicking, next to laws of any other type.
func TestClassPlanComparesLawsSafely(t *testing.T) {
	net, err := topology.SingleGateway(6, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	add := control.AdditiveTSI{Eta: 0.05, BSS: 0.5}
	custom := control.Custom{Label: "custom", Fn: func(r, b, d float64) float64 { return 0.05 * (0.5 - b) }}
	for _, tc := range []struct {
		name    string
		laws    []control.Law
		classes int // 0: no run of two
	}{
		{"additive", control.Uniform(add, 6), 1},
		{"pointer", control.Uniform(&add, 6), 1},
		{"custom", control.Uniform(custom, 6), 0},
		{"wrapped-custom", control.Uniform(wrapped{custom}, 6), 0},
		{"wrapped-additive", control.Uniform(wrapped{add}, 6), 1},
		{"mixed", []control.Law{add, add, custom, wrapped{add}, wrapped{custom}, wrapped{custom}}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.NewSystem(net, queueing.FairShare{}, signal.Individual, signal.Rational{}, tc.laws)
			if err != nil {
				t.Fatal(err)
			}
			if got := core.NumClasses(sys); got != tc.classes {
				t.Fatalf("%d classes, want %d", got, tc.classes)
			}
			r0 := []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
			res, err := sys.Run(r0, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := perConnection(t, sys, r0, core.RunOptions{})
			if !res.Converged || res.Steps != want.Steps {
				t.Fatalf("converged %v in %d steps, per connection in %d", res.Converged, res.Steps, want.Steps)
			}
			closeRows(t, "rates", res.Rates, want.Rates)
		})
	}
}
