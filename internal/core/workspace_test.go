package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// randomSystem draws a random topology, discipline, feedback style,
// signal family, and per-connection laws from rng.
func randomSystem(t *testing.T, rng *rand.Rand) *System {
	t.Helper()
	nGw := 1 + rng.Intn(4)
	nConn := 1 + rng.Intn(8)
	maxPath := 1 + rng.Intn(nGw)
	net, err := topology.Random(rng, nGw, nConn, maxPath, 0.5, 2.0, rng.Float64()*0.2)
	if err != nil {
		t.Fatal(err)
	}
	discs := []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}, queueing.NonPreemptiveFairShare{}}
	styles := []signal.Style{signal.Aggregate, signal.Individual}
	funcs := []signal.Func{signal.Rational{}, signal.Power{K: 2}, signal.Exponential{Theta: 1.5}}
	laws := make([]control.Law, net.NumConnections())
	for i := range laws {
		laws[i] = control.AdditiveTSI{
			Eta: 0.02 + rng.Float64()*0.3,
			BSS: 0.2 + rng.Float64()*0.6,
		}
	}
	sys, err := NewSystem(net, discs[rng.Intn(len(discs))], styles[rng.Intn(len(styles))],
		funcs[rng.Intn(len(funcs))], laws)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameObservation requires bitwise equality of every field of two
// observations.
func sameObservation(t *testing.T, trial, step int, got, want *Observation) {
	t.Helper()
	for i := range want.Signals {
		if !bitsEqual(got.Signals[i], want.Signals[i]) {
			t.Fatalf("trial %d step %d: signal[%d] = %v, want %v", trial, step, i, got.Signals[i], want.Signals[i])
		}
		if !bitsEqual(got.Delays[i], want.Delays[i]) {
			t.Fatalf("trial %d step %d: delay[%d] = %v, want %v", trial, step, i, got.Delays[i], want.Delays[i])
		}
		if len(got.Bottlenecks[i]) != len(want.Bottlenecks[i]) {
			t.Fatalf("trial %d step %d: bottlenecks[%d] = %v, want %v", trial, step, i, got.Bottlenecks[i], want.Bottlenecks[i])
		}
		for k := range want.Bottlenecks[i] {
			if got.Bottlenecks[i][k] != want.Bottlenecks[i][k] {
				t.Fatalf("trial %d step %d: bottlenecks[%d] = %v, want %v", trial, step, i, got.Bottlenecks[i], want.Bottlenecks[i])
			}
		}
	}
	for a := range want.Queues {
		for k := range want.Queues[a] {
			if !bitsEqual(got.Queues[a][k], want.Queues[a][k]) {
				t.Fatalf("trial %d step %d: queue[%d][%d] = %v, want %v", trial, step, a, k, got.Queues[a][k], want.Queues[a][k])
			}
		}
	}
}

// TestWorkspaceStepMatchesSystemStep is the workspace-reuse property
// test: over randomized topologies, disciplines, styles, and signal
// families, the allocating System.Step and the buffer-reusing
// Workspace.Step must produce bit-identical trajectories, and the
// reused Observation must stay bit-identical to the allocating one at
// every visited state — including transient overload states reached
// from aggressive initial rates.
func TestWorkspaceStepMatchesSystemStep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		sys := randomSystem(t, rng)
		n := sys.Network().NumConnections()
		ws := sys.NewWorkspace()

		rAlloc := make([]float64, n)
		rWs := make([]float64, n)
		for i := range rAlloc {
			// Occasionally start hot enough to overload gateways.
			rAlloc[i] = rng.Float64() * 1.5
			rWs[i] = rAlloc[i]
		}
		next := make([]float64, n)
		const steps = 40
		for step := 0; step < steps; step++ {
			wantObs, err := sys.Observe(rAlloc)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			gotObs, err := ws.Observe(rWs)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			sameObservation(t, trial, step, gotObs, wantObs)

			want, err := sys.Step(rAlloc)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := ws.Step(rWs, next); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for i := range want {
				if !bitsEqual(next[i], want[i]) {
					t.Fatalf("trial %d step %d: rate[%d] = %v, want %v", trial, step, i, next[i], want[i])
				}
			}
			rAlloc = want
			rWs, next = next, rWs
		}
	}
}

// TestRunMatchesRepeatedStep pins Run's internal workspace use to the
// public Step semantics: with the early stop disabled, which keeps the
// plain iteration, Run's recorded trajectory must equal the one
// generated by repeated System.Step.
func TestRunMatchesRepeatedStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		sys := randomSystem(t, rng)
		n := sys.Network().NumConnections()
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = rng.Float64()
		}
		const steps = 25
		res, err := sys.Run(r0, RunOptions{MaxSteps: steps, Tol: 1e-300, Record: true, NoEarlyStop: true})
		if err != nil {
			t.Fatal(err)
		}
		r := append([]float64(nil), r0...)
		for step := 0; step < res.Steps; step++ {
			r, err = sys.Step(r)
			if err != nil {
				t.Fatal(err)
			}
			for i := range r {
				if !bitsEqual(res.Trajectory[step+1][i], r[i]) {
					t.Fatalf("trial %d step %d: trajectory[%d] = %v, step path %v",
						trial, step, i, res.Trajectory[step+1][i], r[i])
				}
			}
		}
	}
}

// TestWorkspaceRejectsBadInput covers the workspace's validation
// paths: wrong rate-vector length and wrong output-buffer length.
func TestWorkspaceRejectsBadInput(t *testing.T) {
	net, err := topology.SingleGateway(3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(net, queueing.FairShare{}, signal.Individual, signal.Rational{},
		control.Uniform(control.AdditiveTSI{Eta: 0.1, BSS: 0.5}, 3))
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	if _, err := ws.Observe([]float64{0.1}); err == nil {
		t.Error("short rate vector accepted")
	}
	if err := ws.Step([]float64{0.1, 0.1, 0.1}, make([]float64, 2)); err == nil {
		t.Error("short output buffer accepted")
	}
	if ws.System() != sys {
		t.Error("System() does not return the owning system")
	}
}

// TestWorkspaceStepAllocationFree verifies the tentpole claim
// directly: steady-state stepping through a Workspace performs zero
// heap allocations, for every discipline with an in-place path.
func TestWorkspaceStepAllocationFree(t *testing.T) {
	for _, disc := range []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}, queueing.NonPreemptiveFairShare{}} {
		net, err := topology.ParkingLot(4, 1, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		n := net.NumConnections()
		sys, err := NewSystem(net, disc, signal.Individual, signal.Rational{},
			control.Uniform(control.AdditiveTSI{Eta: 0.1, BSS: 0.5}, n))
		if err != nil {
			t.Fatal(err)
		}
		ws := sys.NewWorkspace()
		r := make([]float64, n)
		next := make([]float64, n)
		for i := range r {
			r[i] = 0.4 / float64(n)
		}
		// Warm the workspace (first call may grow the sort scratch).
		if err := ws.Step(r, next); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := ws.Step(r, next); err != nil {
				t.Fatal(err)
			}
			r, next = next, r
		})
		if allocs != 0 {
			t.Errorf("%s: Workspace.Step allocates %.1f objects per step, want 0", disc.Name(), allocs)
		}
	}
}

// TestAcceleratedStepAllocatesNothing pins the zero-allocation
// contract of the accelerated steady state: once a workspace has run
// an extrapolated solve, an accelerated update — the plain update, the
// history push and the Anderson candidate — allocates nothing.
func TestAcceleratedStepAllocatesNothing(t *testing.T) {
	sys := heteroSystem(t, queueing.FairShare{}, signal.Individual)
	n := sys.Network().NumConnections()
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.02 * float64(1+i%7)
	}
	ws := sys.NewWorkspace()
	if _, err := ws.run(r0, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	acc := ws.acc
	if acc == nil || acc.applied == 0 {
		t.Fatal("the run did not extrapolate")
	}
	acc.reset()
	r := append([]float64(nil), r0...)
	next, spare := make([]float64, n), make([]float64, n)
	step := func() {
		if _, _, err := ws.stepInto(r, next); err != nil {
			t.Fatal(err)
		}
		acc.push(r, next)
		if acc.extrapolate(spare) {
			r, spare = spare, r
		} else {
			r, next = next, r
		}
	}
	for k := 0; k < andersonWarmup; k++ {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("an accelerated update allocates %.1f objects, want 0", allocs)
	}
	if acc.applied == 0 {
		t.Error("no update extrapolated")
	}
}

// TestAndersonBoundaryRule drives the extrapolation with the affine
// map F(x) = x* + (x − x*)/2, whose Anderson step from two iterates
// lands on x* exactly: the candidate is applied when x* is positive,
// refused — clearing the history — when it would send a positive F(x)_i
// below 0, and a connection with F(x)_i = 0 stays at 0 (where the
// clamp makes the map no longer affine).
func TestAndersonBoundaryRule(t *testing.T) {
	extrapolate := func(star, x0 []float64) ([]float64, bool, *anderson) {
		a := newAnderson(len(x0), nil)
		a.reset()
		x, g := append([]float64(nil), x0...), make([]float64, len(x0))
		for k := 0; k < 2; k++ {
			for i := range x {
				g[i] = star[i] + (x[i]-star[i])/2
				if g[i] < 0 {
					g[i] = 0
				}
			}
			a.push(x, g)
			copy(x, g)
		}
		dst := make([]float64, len(x0))
		return dst, a.extrapolate(dst), a
	}
	if dst, ok, _ := extrapolate([]float64{0.5, 2}, []float64{2, 3}); !ok || math.Abs(dst[0]-0.5) > 1e-12 || math.Abs(dst[1]-2) > 1e-12 {
		t.Fatalf("interior fixed point: candidate %v (applied %v), want [0.5 2]", dst, ok)
	}
	if dst, ok, a := extrapolate([]float64{-0.5, 2}, []float64{2, 3}); ok || a.cols != 0 {
		t.Fatalf("candidate %v below 0 applied %v with %d history columns kept", dst, ok, a.cols)
	}
	if dst, ok, _ := extrapolate([]float64{-8, 2}, []float64{1, 3}); !ok || dst[0] != 0 || !(dst[1] > 0) {
		t.Fatalf("clamped connection: candidate %v (applied %v), want 0 and a positive rate", dst, ok)
	}
}

// heteroSystem builds the heterogeneous multi-gateway shape ffcd's
// solve workloads run: 5 gateways, 60 connections on random contiguous
// paths, a distinct multiplicative gain per connection and, under
// individual feedback, a distinct target signal.
func heteroSystem(t *testing.T, disc queueing.Discipline, style signal.Style) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	const nGw, n = 5, 60
	var b topology.Builder
	for a := 0; a < nGw; a++ {
		b.AddGateway("g", (1+rng.Float64())*n/nGw, 0.05+0.1*rng.Float64())
	}
	laws := make([]control.Law, n)
	for i := range laws {
		lo := rng.Intn(nGw)
		hi := lo + rng.Intn(nGw-lo)
		path := make([]int, 0, hi-lo+1)
		for a := lo; a <= hi; a++ {
			path = append(path, a)
		}
		b.AddConnection(path...)
		bss := 0.5
		if style == signal.Individual {
			bss = 0.2 + 0.6*rng.Float64()
		}
		laws[i] = control.MultiplicativeTSI{Eta: 1.2 + 0.7*(float64(i)+rng.Float64())/n, BSS: bss}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(net, disc, style, signal.Rational{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sameRun requires two run results to agree bit for bit: rates, step
// count, convergence, the residual summary and the final observation.
func sameRun(t *testing.T, name string, got, want *RunResult) {
	t.Helper()
	if got.Steps != want.Steps || got.Converged != want.Converged {
		t.Fatalf("%s: %d steps (converged %v), want %d (%v)", name, got.Steps, got.Converged, want.Steps, want.Converged)
	}
	for i := range want.Rates {
		if !bitsEqual(got.Rates[i], want.Rates[i]) {
			t.Fatalf("%s: rate[%d] = %v, want %v", name, i, got.Rates[i], want.Rates[i])
		}
	}
	g, w := got.Stats, want.Stats
	if !bitsEqual(g.InitialResidual, w.InitialResidual) || !bitsEqual(g.FinalResidual, w.FinalResidual) ||
		!bitsEqual(g.MinResidual, w.MinResidual) || !bitsEqual(g.MaxResidual, w.MaxResidual) ||
		g.Steps != w.Steps || g.WallTime != w.WallTime {
		t.Fatalf("%s: stats %+v, want %+v", name, g, w)
	}
	sameObservation(t, 0, got.Steps, got.Final, want.Final)
}

// TestRunIndependentOfWorkspaceHistory is the order contract at the
// solver level: each workspace keeps its gateways' sort permutations
// between calls, and a run on a workspace that already solved
// something else — a capacity-halving hooked run into overload, or the
// same system from another r0 — must be bit-identical to the run on a
// fresh workspace.
func TestRunIndependentOfWorkspaceHistory(t *testing.T) {
	fixed := time.Unix(0, 0)
	opt := RunOptions{MaxSteps: 400, Clock: func() time.Time { return fixed }}
	hooked := opt
	hooked.MaxSteps = 40
	hooked.Hook = halveMu{}
	for _, disc := range []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}, queueing.NonPreemptiveFairShare{}} {
		for _, style := range []signal.Style{signal.Aggregate, signal.Individual} {
			name := disc.Name() + "/" + style.String()
			sys := heteroSystem(t, disc, style)
			n := sys.Network().NumConnections()
			rB, rA, rC := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range rB {
				rB[i] = 0.02 * float64(1+i%7)
				rA[i] = 2 * float64(n-i) // reversed order, deep overload
				rC[i] = 0.5 / float64(1+i)
			}
			want, err := sys.NewWorkspace().run(rB, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, prior := range []struct {
				label string
				r0    []float64
				opt   RunOptions
			}{{"after hooked A", rA, hooked}, {"after B from another r0", rC, opt}} {
				ws := sys.NewWorkspace()
				if _, err := ws.run(prior.r0, prior.opt); err != nil {
					t.Fatal(err)
				}
				got, err := ws.run(rB, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameRun(t, name+" "+prior.label, got, want)
			}
			// Through the pool, as ffcd's solves run.
			if _, err := sys.Run(rA, hooked); err != nil {
				t.Fatal(err)
			}
			got, err := sys.Run(rB, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, name+" pooled", got, want)
		}
	}
}

// halveMu is a StepHook that halves every gateway's capacity.
type halveMu struct{}

func (halveMu) BeginStep(_ int, mu []float64) {
	for a := range mu {
		mu[a] *= 0.5
	}
}
func (halveMu) PerturbObservation(int, []float64, *Observation) {}
func (halveMu) PerturbNext(int, []float64, []float64)           {}

// badSignal is a signal function whose values leave [0,1].
type badSignal struct{ v float64 }

func (badSignal) Name() string                     { return "bad" }
func (s badSignal) Eval(float64) float64           { return s.v }
func (badSignal) Inverse(float64) (float64, error) { return 0, nil }

// TestObserveRejectsOutOfRangeSignal: the path combine refuses a
// per-gateway signal outside [0,1], NaN included, naming the
// connection.
func TestObserveRejectsOutOfRangeSignal(t *testing.T) {
	net, err := topology.SingleGateway(2, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	laws := control.Uniform(control.AdditiveTSI{Eta: 0.1, BSS: 0.5}, 2)
	for _, v := range []float64{-0.5, 1.5, math.NaN()} {
		sys, err := NewSystem(net, queueing.FIFO{}, signal.Aggregate, badSignal{v}, laws)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Observe([]float64{0.1, 0.2}); err == nil || !strings.Contains(err.Error(), "connection 0") {
			t.Errorf("signal %v: Observe error %v, want one naming connection 0", v, err)
		}
	}
}

// TestDriftMatchesObservation pins Workspace.Drift to its definition
// over randomized systems and rates, zeros included: f_i is law i's
// adjustment at the observed signal and delay, 0 for a truncated
// connection, the returned signals are the observation's, and the
// residual is max|f_i|.
func TestDriftMatchesObservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		sys := randomSystem(t, rng)
		n := sys.Network().NumConnections()
		r := make([]float64, n)
		for i := range r {
			if rng.Intn(4) > 0 {
				r[i] = rng.Float64() * 1.5
			}
		}
		f := make([]float64, n)
		sig, err := sys.NewWorkspace().Drift(r, f)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := sys.Observe(r)
		if err != nil {
			t.Fatal(err)
		}
		resid, err := sys.Residual(r)
		if err != nil {
			t.Fatal(err)
		}
		max := 0.0
		for i := range r {
			want := sys.Law(i).Adjust(r[i], obs.Signals[i], obs.Delays[i])
			if r[i] == 0 && want < 0 {
				want = 0
			}
			if !bitsEqual(f[i], want) || !bitsEqual(sig[i], obs.Signals[i]) {
				t.Fatalf("trial %d: f[%d] = %v, b = %v; want %v, %v", trial, i, f[i], sig[i], want, obs.Signals[i])
			}
			max = math.Max(max, math.Abs(want))
		}
		if !bitsEqual(resid, max) {
			t.Fatalf("trial %d: residual %v, want max|f| = %v", trial, resid, max)
		}
	}
	if _, err := heteroSystem(t, queueing.FIFO{}, signal.Aggregate).NewWorkspace().Drift(make([]float64, 60), make([]float64, 59)); err == nil {
		t.Fatal("Drift accepted a short drift buffer")
	}
}
