package fluid

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/scenario"
)

// specJSON renders a two-gateway scenario with two connection groups
// (a shared-path class and a single-hop class) for the given design
// corner and per-group counts.
func specJSON(discipline, feedback string, eta float64, nShared, nLocal int64) string {
	return fmt.Sprintf(`{
		"name": "corner",
		"discipline": %q,
		"feedback": %q,
		"gateways": [
			{"name": "A", "mu": 1.0, "latency": 0.1},
			{"name": "B", "mu": 2.0, "latency": 0.1}
		],
		"connections": [
			{"path": ["A", "B"], "count": %d, "law": {"kind": "additive", "eta": %g, "bss": 0.3}},
			{"path": ["A"], "count": %d, "law": {"kind": "additive", "eta": %g, "bss": 0.4}}
		],
		"maxSteps": 8000
	}`, discipline, feedback, nShared, eta, nLocal, eta)
}

func loadSpec(t *testing.T, doc string) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return sp
}

// expandRates maps the fluid per-class rate vector onto the discrete
// per-connection index space using the class weights.
func expandRates(sys *System, rates []float64) []float64 {
	var out []float64
	for c, w := range sys.Weights() {
		for k := 0; k < int(w); k++ {
			out = append(out, rates[c])
		}
	}
	return out
}

func supDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// classLevel returns the class-level core system behind fsys — one
// connection per class, weighted by class size — under discipline d,
// together with the expanded discrete system under d. The scenario
// format only names the paper's fifo and fairshare, so the
// non-preemptive ablation is swapped in here. Stepped by core.Run,
// the class-level system is explicit Euler at step 1: the discrete
// map on the collapsed population.
func classLevel(t *testing.T, dsys *core.System, fsys *System, d queueing.Discipline) (expanded, classes *core.System) {
	t.Helper()
	rebuild := func(sys *core.System, weights []float64) *core.System {
		laws := make([]control.Law, sys.Network().NumConnections())
		for i := range laws {
			laws[i] = sys.Law(i)
		}
		out, err := core.NewWeightedSystem(sys.Network(), d, sys.Style(), sys.SignalFunc(), laws, weights)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return rebuild(dsys, nil), rebuild(fsys.sys, fsys.Weights())
}

// expandedRun runs a discrete system over every connection. It is the
// reference side of the lockstep tests: an unhooked Run would collapse
// each count=N entry into one weighted slot, the very mechanism the
// class-level side is built on, and so check it against itself.
func expandedRun(sys *core.System, r0 []float64, opt core.RunOptions) (*core.RunResult, error) {
	opt.Hook = core.PerConnection{}
	return sys.Run(r0, opt)
}

// lockstepDisciplines are the disciplines the lockstep tests cover:
// the paper's two plus the non-preemptive ablation, which the
// class-level system runs through the same weighted-kernel interface.
var lockstepDisciplines = []queueing.Discipline{
	queueing.FairShare{}, queueing.FIFO{}, queueing.NonPreemptiveFairShare{},
}

// TestDegenerateBitwise pins the degenerate case: one class of one
// member, stepped by the class-level core system, is the discrete
// iteration itself — trajectory and steady state bit-identical, step
// counts equal — under every discipline.
func TestDegenerateBitwise(t *testing.T) {
	sp := loadSpec(t, specJSON("fairshare", "individual", 0.05, 1, 0))
	sp.Connections = sp.Connections[:1] // single connection, single class
	dsys0, dr0, err := sp.Build()
	if err != nil {
		t.Fatalf("discrete build: %v", err)
	}
	fsys0, fr0, err := FromSpec(sp)
	if err != nil {
		t.Fatalf("fluid build: %v", err)
	}
	if fsys0.NumClasses() != 1 {
		t.Fatalf("NumClasses = %d, want 1", fsys0.NumClasses())
	}
	for _, disc := range lockstepDisciplines {
		t.Run(disc.Name(), func(t *testing.T) {
			dsys, csys := classLevel(t, dsys0, fsys0, disc)
			opt := sp.RunOptions()
			opt.Record = true
			dres, err := expandedRun(dsys, dr0, opt)
			if err != nil {
				t.Fatalf("discrete run: %v", err)
			}
			fres, err := csys.Run(fr0, opt)
			if err != nil {
				t.Fatalf("class-level run: %v", err)
			}
			if dres.Steps != fres.Steps || dres.Converged != fres.Converged {
				t.Fatalf("steps/converged: discrete (%d, %v) vs class-level (%d, %v)",
					dres.Steps, dres.Converged, fres.Steps, fres.Converged)
			}
			if len(dres.Trajectory) != len(fres.Trajectory) {
				t.Fatalf("trajectory lengths %d vs %d", len(dres.Trajectory), len(fres.Trajectory))
			}
			for step := range dres.Trajectory {
				if dres.Trajectory[step][0] != fres.Trajectory[step][0] {
					t.Fatalf("step %d: discrete %x vs class-level %x", step,
						dres.Trajectory[step][0], fres.Trajectory[step][0])
				}
			}
			if dres.Rates[0] != fres.Rates[0] {
				t.Fatalf("final rate: discrete %x vs class-level %x", dres.Rates[0], fres.Rates[0])
			}
			if dres.Stats.FinalResidual != fres.Stats.FinalResidual {
				t.Fatalf("final residual: %v vs %v", dres.Stats.FinalResidual, fres.Stats.FinalResidual)
			}
		})
	}
}

// TestCorners2x2 pins the fluid backend against the discrete kernel on
// the paper's whole design space — {FIFO, Fair Share} × {aggregate,
// individual} — with weighted multi-member classes. The class-level
// core system in lockstep must track the expanded discrete trajectory
// (the class collapse is exact, so only summation-order noise
// separates them), and the adaptive integrator must land on the
// same steady state.
func TestCorners2x2(t *testing.T) {
	for _, disc := range []string{"fifo", "fairshare"} {
		for _, feed := range []string{"aggregate", "individual"} {
			t.Run(disc+"/"+feed, func(t *testing.T) {
				sp := loadSpec(t, specJSON(disc, feed, 0.02, 8, 4))
				dsys, dr0, err := sp.Build()
				if err != nil {
					t.Fatalf("discrete build: %v", err)
				}
				fsys, fr0, err := FromSpec(sp)
				if err != nil {
					t.Fatalf("fluid build: %v", err)
				}
				if got := fsys.NumClasses(); got != 2 {
					t.Fatalf("NumClasses = %d, want 2", got)
				}
				if pop := fsys.Population(); pop != 12 {
					t.Fatalf("Population = %v, want 12", pop)
				}
				opt := sp.RunOptions()
				dres, err := expandedRun(dsys, dr0, opt)
				if err != nil {
					t.Fatalf("discrete run: %v", err)
				}
				if !dres.Converged {
					t.Fatalf("discrete run did not converge")
				}

				// Lockstep: the collapsed dynamics expanded back out.
				fres, err := fsys.sys.Run(fr0, opt)
				if err != nil {
					t.Fatalf("class-level lockstep run: %v", err)
				}
				if !fres.Converged {
					t.Fatalf("class-level lockstep run did not converge")
				}
				if d := supDiff(dres.Rates, expandRates(fsys, fres.Rates)); d > 1e-9 {
					t.Errorf("lockstep steady-state rates differ by %v (> 1e-9)", d)
				}

				// Adaptive integration: same fixed point by a different route.
				ares, err := fsys.Run(fr0, opt)
				if err != nil {
					t.Fatalf("fluid adaptive run: %v", err)
				}
				if !ares.Converged {
					t.Fatalf("fluid adaptive run did not converge")
				}
				if d := supDiff(dres.Rates, expandRates(fsys, ares.Rates)); d > 1e-6 {
					t.Errorf("adaptive steady-state rates differ by %v (> 1e-6)", d)
				}
			})
		}
	}
}

// TestLockstepTrajectoryTracksExpanded compares whole trajectories,
// not just fixed points: for a few hundred synchronous rounds the
// class-level system must reproduce what the expanded discrete
// population does, member for member, under every discipline.
func TestLockstepTrajectoryTracksExpanded(t *testing.T) {
	sp := loadSpec(t, specJSON("fairshare", "individual", 0.05, 5, 3))
	sp.MaxSteps = 300
	dsys0, dr0, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	fsys, fr0, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, disc := range lockstepDisciplines {
		t.Run(disc.Name(), func(t *testing.T) {
			dsys, csys := classLevel(t, dsys0, fsys, disc)
			opt := sp.RunOptions()
			opt.Record = true
			opt.NoEarlyStop = true
			dres, err := expandedRun(dsys, dr0, opt)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := csys.Run(fr0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(dres.Trajectory) != len(fres.Trajectory) {
				t.Fatalf("trajectory lengths %d vs %d", len(dres.Trajectory), len(fres.Trajectory))
			}
			worst := 0.0
			for step := range dres.Trajectory {
				if d := supDiff(dres.Trajectory[step], expandRates(fsys, fres.Trajectory[step])); d > worst {
					worst = d
				}
			}
			if worst > 1e-9 {
				t.Fatalf("worst per-step member deviation %v exceeds 1e-9", worst)
			}
		})
	}
}

// TestClassCollapse checks the grouping rule end to end: same
// canonical law + same path + same initial ⇒ one class; differing
// initial rates split a count group; law aliases and unused
// parameters do not split.
func TestClassCollapse(t *testing.T) {
	sp := loadSpec(t, `{
		"name": "collapse",
		"gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}],
		"connections": [
			{"path": ["A"], "count": 3, "law": {"kind": "additive", "eta": 0.05, "bss": 0.3}},
			{"path": ["A"], "law": {"kind": "", "eta": 0.05, "bss": 0.3, "p": 99}},
			{"path": ["A"], "law": {"kind": "additive", "eta": 0.05, "bss": 0.4}}
		]
	}`)
	classes, err := sp.FluidClasses()
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2 (alias kind and stray p must not split)", len(classes))
	}
	if classes[0].Count != 4 || classes[1].Count != 1 {
		t.Fatalf("class counts %d/%d, want 4/1", classes[0].Count, classes[1].Count)
	}

	// An explicit Initial vector that separates members of one count
	// group must split it.
	sp.Connections = sp.Connections[:1]
	sp.Initial = []float64{0.01, 0.02, 0.01}
	classes, err = sp.FluidClasses()
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || classes[0].Count != 2 || classes[1].Count != 1 {
		t.Fatalf("initial-split classes = %+v, want counts 2 and 1", classes)
	}
}

// TestAdaptiveLargeN is the backend's reason to exist: a 10⁷-member
// class converges in a bounded number of accepted steps, where the
// discrete backend would need 10⁷ slots per observation just to start.
func TestAdaptiveLargeN(t *testing.T) {
	sys, r0 := largeNSystem(t, 1e7)
	res, err := sys.Run(r0, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("large-N run did not converge in %d steps (final residual %v)",
			res.Steps, res.Stats.FinalResidual)
	}
	if res.Steps > 2000 {
		t.Errorf("adaptive run took %d accepted steps; the step control is not scaling", res.Steps)
	}
	// The fixed point must keep the gateway below saturation:
	// 10⁷ members cannot each hold more than μ/W.
	if load := 1e7 * res.Rates[0]; load >= 1.0 || load <= 0 {
		t.Errorf("steady-state aggregate load %v outside (0, μ)", load)
	}
}

// largeNSystem builds the single-gateway, single-class population used
// by the large-N test and benchmark. The per-member gain follows the
// paper's stability scaling η = η₀/N (Theorem 4's eigenvalue is
// 1 − O(ηN): gains must shrink as populations grow or the discrete
// system itself is unstable), which is also what keeps the fluid
// dynamics non-stiff: the aggregate relaxation rate stays O(η₀)
// however large N gets.
func largeNSystem(t testing.TB, n float64) (*System, []float64) {
	sys, r0, err := FromSpec(largeNSpec(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return sys, r0
}

// largeNSpec renders the scenario behind largeNSystem; the benchmarks
// also expand it through Build for the discrete half of the wall-time
// ladder.
func largeNSpec(t testing.TB, n float64) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Load(strings.NewReader(fmt.Sprintf(`{
		"name": "large-n",
		"discipline": "fairshare",
		"feedback": "individual",
		"gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}],
		"connections": [
			{"path": ["A"], "count": %d, "law": {"kind": "additive", "eta": %g, "bss": 0.3}}
		]
	}`, int64(n), 0.05/n)))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestHookRejected(t *testing.T) {
	sys, r0 := largeNSystem(t, 100)
	_, err := sys.Run(r0, core.RunOptions{Hook: rejectHook{}})
	if err == nil || !strings.Contains(err.Error(), "discrete backend") {
		t.Fatalf("Run with hook = %v, want a discrete-backend error", err)
	}
}

type rejectHook struct{}

func (rejectHook) BeginStep(step int, mu []float64)                              {}
func (rejectHook) PerturbObservation(step int, r []float64, o *core.Observation) {}
func (rejectHook) PerturbNext(step int, r, next []float64)                       {}

func TestReportShape(t *testing.T) {
	sp := loadSpec(t, specJSON("fairshare", "individual", 0.02, 8, 4))
	sys, r0, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(0, 0)
	res, err := sys.Run(r0, core.RunOptions{Clock: func() time.Time {
		clock = clock.Add(time.Millisecond)
		return clock
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Report(res, "corner")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "fluid" || rep.Population != 12 {
		t.Fatalf("backend/population = %q/%d, want fluid/12", rep.Backend, rep.Population)
	}
	if len(rep.ClassWeights) != 2 || float64(rep.ClassWeights[0]) != 8 || float64(rep.ClassWeights[1]) != 4 {
		t.Fatalf("class weights = %v", rep.ClassWeights)
	}
	if len(rep.Rates) != 2 || len(rep.Gateways) != 2 {
		t.Fatalf("rates/gateways = %d/%d entries, want 2/2", len(rep.Rates), len(rep.Gateways))
	}
	// Gateway A serves both classes: represented population 12 and a
	// population-weighted utilization 8·r₀ + 4·r₁ over μ = 1.
	if rep.Gateways[0].Connections != 12 {
		t.Fatalf("gateway A connections = %d, want 12", rep.Gateways[0].Connections)
	}
	wantUtil := 8*res.Rates[0] + 4*res.Rates[1]
	if got := float64(rep.Gateways[0].Utilization); math.Abs(got-wantUtil) > 1e-12 {
		t.Fatalf("utilization = %v, want %v", got, wantUtil)
	}
	if rep.WallNS <= 0 {
		t.Fatalf("wall time not recorded")
	}
}

// TestValidation checks that FromSpec, fluid's request-time
// validation gate, rejects malformed populations through
// scenario.FluidClasses, topology.Builder and core.NewWeightedSystem,
// an idle gateway included, as Build does. NaN weights cannot be
// written in a scenario; core's TestNewWeightedSystemValidation covers
// them and a discipline without a weighted kernel.
func TestValidation(t *testing.T) {
	for name, mutate := range map[string]func(*scenario.Spec){
		"no gateways": func(sp *scenario.Spec) { sp.Gateways = nil },
		"no classes":  func(sp *scenario.Spec) { sp.Connections = nil },
		"no signal":   func(sp *scenario.Spec) { sp.Signal.Kind = "nope" },
		"bad mu":      func(sp *scenario.Spec) { sp.Gateways[0].Mu = 0 },
		"bad latency": func(sp *scenario.Spec) { sp.Gateways[0].Latency = -1 },
		"bad weight":  func(sp *scenario.Spec) { sp.Connections[0].Count = -1 },
		"huge weight": func(sp *scenario.Spec) { sp.Connections[0].Count = scenario.MaxCount + 1 },
		"gateway total": func(sp *scenario.Spec) {
			sp.Connections[0].Count = scenario.MaxCount
			sp.Connections = append(sp.Connections, sp.Connections[0])
		},
		"no discipline":   func(sp *scenario.Spec) { sp.Discipline = "nope" },
		"empty route":     func(sp *scenario.Spec) { sp.Connections[0].Path = nil },
		"unknown gateway": func(sp *scenario.Spec) { sp.Connections[0].Path = []string{"Z"} },
		"dup gateway":     func(sp *scenario.Spec) { sp.Connections[0].Path = []string{"A", "A"} },
		"idle gateway": func(sp *scenario.Spec) {
			sp.Gateways = append(sp.Gateways, scenario.GatewaySpec{Name: "B", Mu: 1})
		},
	} {
		t.Run(name, func(t *testing.T) {
			sp := largeNSpec(t, 1e5)
			mutate(sp)
			if _, _, err := FromSpec(sp); err == nil {
				t.Fatalf("FromSpec accepted an invalid scenario (%s)", name)
			}
		})
	}

	sys, r0 := largeNSystem(t, 4)
	t.Run("bad step", func(t *testing.T) {
		if err := sys.SetStep(math.NaN()); err == nil {
			t.Fatal("SetStep accepted NaN")
		}
	})
	if _, err := sys.Run([]float64{1, 2}, core.RunOptions{}); err == nil {
		t.Fatal("Run accepted a wrong-length rate vector")
	}
	r0[0] = math.Inf(1)
	if _, err := sys.Run(r0, core.RunOptions{}); err == nil {
		t.Fatal("Run accepted an infinite rate")
	}
}
