package fault_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/fault"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// twoConnSystem builds the standard two-connection single-gateway
// test model: additive-increase time-and-signal laws over Fair Share
// with individual feedback, which converges to a unique fixed point.
func twoConnSystem(t *testing.T) *core.System {
	t.Helper()
	net, err := topology.SingleGateway(2, 1.0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	laws := []control.Law{
		control.AdditiveTSI{Eta: 0.1, BSS: 0.5},
		control.AdditiveTSI{Eta: 0.1, BSS: 0.5},
	}
	sys, err := core.NewSystem(net, queueing.FairShare{}, signal.Individual, signal.Rational{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustInjector(t *testing.T, cfg fault.Config, nConns, nGws int) *fault.Injector {
	t.Helper()
	inj, err := fault.NewInjector(cfg, nConns, nGws)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestZeroConfigIsIdentity is the acceptance property: across
// randomized topologies, disciplines, and styles, a run hooked with a
// zero-config injector is bit-identical to an unhooked plain run.
func TestZeroConfigIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	disciplines := []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}}
	styles := []signal.Style{signal.Aggregate, signal.Individual}
	for trial := 0; trial < 10; trial++ {
		nGws := 2 + rng.Intn(3)
		net, err := topology.Random(rng, nGws, 2+rng.Intn(4), 1+rng.Intn(nGws), 0.8, 1.5, 0.05)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := net.NumConnections()
		laws := make([]control.Law, n)
		for i := range laws {
			laws[i] = control.AdditiveTSI{Eta: 0.05 + 0.1*rng.Float64(), BSS: 0.3 + 0.4*rng.Float64()}
		}
		sys, err := core.NewSystem(net, disciplines[rng.Intn(2)], styles[rng.Intn(2)], signal.Rational{}, laws)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.01 + 0.2*rng.Float64()
		}
		// NoEarlyStop keeps the unhooked run on the plain iteration, the
		// path every hooked run takes.
		opt := core.RunOptions{MaxSteps: 250, Record: true, NoEarlyStop: true}
		plain, err := sys.Run(r0, opt)
		if err != nil {
			t.Fatalf("trial %d plain: %v", trial, err)
		}
		opt.Hook = mustInjector(t, fault.Config{}, n, nGws)
		hooked, err := sys.Run(r0, opt)
		if err != nil {
			t.Fatalf("trial %d hooked: %v", trial, err)
		}
		if plain.Steps != hooked.Steps || plain.Converged != hooked.Converged {
			t.Fatalf("trial %d: steps %d vs %d, converged %v vs %v",
				trial, plain.Steps, hooked.Steps, plain.Converged, hooked.Converged)
		}
		for k := range plain.Trajectory {
			for i := range plain.Trajectory[k] {
				if plain.Trajectory[k][i] != hooked.Trajectory[k][i] {
					t.Fatalf("trial %d: trajectory[%d][%d] = %v vs %v",
						trial, k, i, plain.Trajectory[k][i], hooked.Trajectory[k][i])
				}
			}
		}
	}
}

// TestInjectorDeterminism pins the seeding contract: equal configs
// give bit-identical perturbed trajectories; a different seed moves
// the noise.
func TestInjectorDeterminism(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	cfg, err := fault.Parse("seed=5,loss=0.3,noise=0.05")
	if err != nil {
		t.Fatal(err)
	}
	run := func(c fault.Config) *core.RunResult {
		res, err := sys.Run(r0, core.RunOptions{
			MaxSteps: 200, Record: true, NoEarlyStop: true,
			Hook: mustInjector(t, c, 2, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(cfg), run(cfg)
	for k := range a.Trajectory {
		for i := range a.Trajectory[k] {
			if a.Trajectory[k][i] != b.Trajectory[k][i] {
				t.Fatalf("same config diverged at trajectory[%d][%d]: %v vs %v",
					k, i, a.Trajectory[k][i], b.Trajectory[k][i])
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed = 6
	c := run(cfg2)
	same := true
	for k := range a.Trajectory {
		for i := range a.Trajectory[k] {
			if a.Trajectory[k][i] != c.Trajectory[k][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical perturbed trajectory")
	}
}

// TestLossHoldsLastSignal: with certain loss inside a window, sources
// keep acting on the pre-window signal, so the trajectory differs
// from the unperturbed one during the window.
func TestLossHoldsLastSignal(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	cfg := fault.Config{Seed: 1, Loss: 1, LossWindow: fault.Window{From: 5, To: 40}}
	inj := mustInjector(t, cfg, 2, 1)
	res, err := sys.Run(r0, core.RunOptions{MaxSteps: 60, Record: true, NoEarlyStop: true, Hook: inj})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Run(r0, core.RunOptions{MaxSteps: 60, Record: true, NoEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	// States up to the window open are untouched...
	for k := 0; k <= 5; k++ {
		for i := range r0 {
			if res.Trajectory[k][i] != plain.Trajectory[k][i] {
				t.Fatalf("pre-window state %d differs", k)
			}
		}
	}
	// ...and the frozen feedback moves the in-window dynamics.
	diverged := false
	for k := 6; k <= 40 && !diverged; k++ {
		for i := range r0 {
			if res.Trajectory[k][i] != plain.Trajectory[k][i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("certain loss did not change the in-window dynamics")
	}
	rep := inj.Report()
	// 2 connections × 35 window steps: the pre-window deliveries seed
	// the hold-over state, so every in-window signal counts as lost.
	if rep.SignalsLost != 2*35 {
		t.Fatalf("SignalsLost = %d, want %d", rep.SignalsLost, 2*35)
	}
}

// TestDelayShiftsFeedback: a delayed signal line must deliver the
// observation from Delay steps earlier once primed.
func TestDelayShiftsFeedback(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	inj := mustInjector(t, fault.Config{Seed: 1, Delay: 3}, 2, 1)
	res, err := sys.Run(r0, core.RunOptions{MaxSteps: 80, Record: true, NoEarlyStop: true, Hook: inj})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Run(r0, core.RunOptions{MaxSteps: 80, Record: true, NoEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for k := range res.Trajectory {
		for i := range r0 {
			if res.Trajectory[k][i] != plain.Trajectory[k][i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("delayed feedback did not change the dynamics")
	}
	if got, want := inj.Report().SignalsDelayed, int64(2*(80-3)); got != want {
		t.Fatalf("SignalsDelayed = %d, want %d", got, want)
	}
}

// TestOutageOverloadsGateway: during an outage window the effective
// capacity collapses, so queues and delays blow up to +Inf.
func TestOutageOverloadsGateway(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	inj := mustInjector(t, fault.Config{
		Seed:    1,
		Degrade: []fault.GatewayFault{{Gateway: 0, Factor: 0, Window: fault.Window{From: 10, To: 20}}},
	}, 2, 1)
	inj.RecordQueues = true
	_, err := sys.Run(r0, core.RunOptions{MaxSteps: 40, NoEarlyStop: true, Hook: inj})
	if err != nil {
		t.Fatal(err)
	}
	queues := inj.Queues()
	if len(queues) != 40 {
		t.Fatalf("recorded %d queue samples, want 40", len(queues))
	}
	sawInf := false
	for k := 10; k < 20; k++ {
		if math.IsInf(queues[k], 1) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("outage never produced an infinite queue")
	}
	for k := 0; k < 10; k++ {
		if math.IsInf(queues[k], 1) {
			t.Fatalf("pre-outage step %d already overloaded", k)
		}
	}
	rep := inj.Report()
	if rep.OutageSteps != 10 || rep.DegradedSteps != 0 {
		t.Fatalf("outage/degraded steps = %d/%d, want 10/0", rep.OutageSteps, rep.DegradedSteps)
	}
}

// TestChurnLeavesAndRejoins: a churned connection is pinned to zero
// for the window, restarts at the rejoin rate, and climbs back.
func TestChurnLeavesAndRejoins(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	cfg := fault.Config{Seed: 1, RejoinRate: 0.05, Churn: []fault.ConnFault{{Conn: 1, Window: fault.Window{From: 10, To: 30}}}}
	inj := mustInjector(t, cfg, 2, 1)
	res, err := sys.Run(r0, core.RunOptions{MaxSteps: 400, Record: true, NoEarlyStop: true, Hook: inj})
	if err != nil {
		t.Fatal(err)
	}
	for k := 11; k <= 30; k++ {
		if res.Trajectory[k][1] != 0 {
			t.Fatalf("state %d: churned connection at rate %v, want 0", k, res.Trajectory[k][1])
		}
	}
	if got := res.Trajectory[31][1]; got < 0.05 {
		t.Fatalf("rejoin state rate %v, want at least the rejoin rate 0.05", got)
	}
	if end := res.Rates[1]; end < 0.2 {
		t.Fatalf("churned connection never recovered: final rate %v", end)
	}
	if got := inj.Report().ChurnedSteps; got != 20 {
		t.Fatalf("ChurnedSteps = %d, want 20", got)
	}
}

// TestStuckFreezesRate: a stuck source holds its rate through the
// window no matter what the feedback says.
func TestStuckFreezesRate(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	inj := mustInjector(t, fault.Config{Seed: 1, Stuck: []fault.ConnFault{{Conn: 0, Window: fault.Window{From: 0, To: 25}}}}, 2, 1)
	res, err := sys.Run(r0, core.RunOptions{MaxSteps: 50, Record: true, NoEarlyStop: true, Hook: inj})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 25; k++ {
		if res.Trajectory[k][0] != 0.2 {
			t.Fatalf("state %d: stuck connection at %v, want 0.2", k, res.Trajectory[k][0])
		}
	}
	if res.Trajectory[50][0] == 0.2 {
		t.Fatal("stuck connection never moved after the window closed")
	}
}

// TestGreedyRefusesDecreases: a greedy source's rate is monotone
// non-decreasing inside its window.
func TestGreedyRefusesDecreases(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.6, 0.6} // overloaded start: the laws want decreases
	inj := mustInjector(t, fault.Config{Seed: 1, Greedy: []fault.ConnFault{{Conn: 0, Window: fault.Window{From: 0, To: 100}}}}, 2, 1)
	res, err := sys.Run(r0, core.RunOptions{MaxSteps: 100, Record: true, NoEarlyStop: true, Hook: inj})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 100; k++ {
		if res.Trajectory[k][0] < res.Trajectory[k-1][0] {
			t.Fatalf("greedy connection decreased at state %d: %v -> %v",
				k, res.Trajectory[k-1][0], res.Trajectory[k][0])
		}
	}
	if inj.Report().GreedySteps == 0 {
		t.Fatal("no decrease was ever refused despite the overloaded start")
	}
	// The well-behaved peer pays for it.
	if !(res.Rates[1] < res.Rates[0]) {
		t.Fatalf("well-behaved rate %v not below greedy rate %v", res.Rates[1], res.Rates[0])
	}
}

// TestRunPerturbedReconverges is the end-to-end tentpole check: after
// a transient outage plus a lossy-feedback window, Fair Share with
// individual feedback returns to its unperturbed fixed point, and the
// report says so.
func TestRunPerturbedReconverges(t *testing.T) {
	sys := twoConnSystem(t)
	r0 := []float64{0.2, 0.3}
	cfg, err := fault.Parse("seed=3,loss=0.5@50-120,outage=0@150-170")
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.RunPerturbed(sys, r0, cfg, core.RunOptions{MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.Converged {
		t.Fatal("baseline did not converge")
	}
	if res.Perturbed.Steps != 2000 {
		t.Fatalf("perturbed run took %d steps, want the full horizon", res.Perturbed.Steps)
	}
	rec := res.Recovery
	if !rec.Reconverged {
		t.Fatalf("did not reconverge: final distance %v", rec.FinalDistance)
	}
	if rec.ReconvergeStep < 170 {
		t.Fatalf("reconverged at %d, inside the fault horizon", rec.ReconvergeStep)
	}
	if rec.MaxRateExcursion <= 0 {
		t.Fatal("no rate excursion recorded despite an outage")
	}
	if !math.IsInf(rec.MaxQueueExcursion, 1) {
		t.Fatalf("MaxQueueExcursion = %v, want +Inf from the outage", rec.MaxQueueExcursion)
	}
	if res.Fault.OutageSteps != 20 || res.Fault.SignalsLost == 0 {
		t.Fatalf("fault accounting: outage %d, lost %d", res.Fault.OutageSteps, res.Fault.SignalsLost)
	}
	if res.Fault.Spec != cfg.String() {
		t.Fatalf("report spec %q, want %q", res.Fault.Spec, cfg.String())
	}
}

// TestRunPerturbedAttach wires the result into a RunReport.
func TestRunPerturbedAttach(t *testing.T) {
	sys := twoConnSystem(t)
	cfg, err := fault.Parse("seed=2,noise=0.02@10-30")
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.RunPerturbed(sys, []float64{0.2, 0.3}, cfg, core.RunOptions{MaxSteps: 600})
	if err != nil {
		t.Fatal(err)
	}
	report := &obs.RunReport{Schema: obs.RunReportSchema}
	res.Attach(report)
	if report.Fault == nil || report.Fault.Spec != cfg.String() {
		t.Fatal("fault section not attached")
	}
	if report.Recovery == nil || !report.Recovery.Reconverged {
		t.Fatal("recovery section not attached or not reconverged")
	}
}

// TestNewInjectorRejectsBadShapes pins index validation against the
// model shape.
func TestNewInjectorRejectsBadShapes(t *testing.T) {
	if _, err := fault.NewInjector(fault.Config{}, 0, 1); err == nil {
		t.Error("zero connections accepted")
	}
	if _, err := fault.NewInjector(fault.Config{Degrade: []fault.GatewayFault{{Gateway: 2, Factor: 0.5}}}, 2, 2); err == nil {
		t.Error("out-of-range gateway accepted")
	}
	if _, err := fault.NewInjector(fault.Config{Churn: []fault.ConnFault{{Conn: 5}}}, 2, 1); err == nil {
		t.Error("out-of-range connection accepted")
	}
	if _, err := fault.NewInjector(fault.Config{Loss: 1.5}, 2, 1); err == nil {
		t.Error("out-of-range loss probability accepted")
	}
}
