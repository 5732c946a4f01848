package core_test

import (
	"math/rand"
	"testing"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// noopHook mutates nothing: the hooked step must then be
// bit-identical to the unhooked one.
type noopHook struct{ begins, observes, nexts int }

func (h *noopHook) BeginStep(step int, mu []float64)                              { h.begins++ }
func (h *noopHook) PerturbObservation(step int, r []float64, o *core.Observation) { h.observes++ }
func (h *noopHook) PerturbNext(step int, r, next []float64)                       { h.nexts++ }

// muScaleHook halves every gateway's capacity: queues must grow
// relative to the unhooked run, proving BeginStep's mu copy reaches
// the queueing models.
type muScaleHook struct{ noopHook }

func (h *muScaleHook) BeginStep(step int, mu []float64) {
	for a := range mu {
		mu[a] *= 0.5
	}
}

// TestNoopHookBitIdentical is the acceptance property: across
// randomized topologies, disciplines, and feedback styles, a run with
// a hook that perturbs nothing produces bitwise-equal trajectories,
// final rates, and observations to an unhooked plain run.
func TestNoopHookBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	disciplines := []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}}
	styles := []signal.Style{signal.Aggregate, signal.Individual}
	for trial := 0; trial < 12; trial++ {
		nGws := 2 + rng.Intn(3)
		net, err := topology.Random(rng, nGws, 2+rng.Intn(4), 1+rng.Intn(nGws), 0.8, 1.5, 0.05)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		disc := disciplines[rng.Intn(len(disciplines))]
		style := styles[rng.Intn(len(styles))]
		n := net.NumConnections()
		laws := make([]control.Law, n)
		for i := range laws {
			laws[i] = control.AdditiveTSI{Eta: 0.05 + 0.1*rng.Float64(), BSS: 0.3 + 0.4*rng.Float64()}
		}
		sys, err := core.NewSystem(net, disc, style, signal.Rational{}, laws)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = 0.01 + 0.2*rng.Float64()
		}
		// NoEarlyStop keeps the unhooked run on the plain iteration, the
		// path every hooked run takes.
		opt := core.RunOptions{MaxSteps: 300, Record: true, NoEarlyStop: true}
		plain, err := sys.Run(r0, opt)
		if err != nil {
			t.Fatalf("trial %d plain: %v", trial, err)
		}
		hook := &noopHook{}
		opt.Hook = hook
		hooked, err := sys.Run(r0, opt)
		if err != nil {
			t.Fatalf("trial %d hooked: %v", trial, err)
		}
		if hook.begins == 0 || hook.observes == 0 || hook.nexts == 0 {
			t.Fatalf("trial %d: hook never invoked (%d/%d/%d)", trial, hook.begins, hook.observes, hook.nexts)
		}
		if plain.Steps != hooked.Steps || plain.Converged != hooked.Converged {
			t.Fatalf("trial %d: outcome differs: steps %d vs %d, converged %v vs %v",
				trial, plain.Steps, hooked.Steps, plain.Converged, hooked.Converged)
		}
		if len(plain.Trajectory) != len(hooked.Trajectory) {
			t.Fatalf("trial %d: trajectory length %d vs %d", trial, len(plain.Trajectory), len(hooked.Trajectory))
		}
		for k := range plain.Trajectory {
			for i := range plain.Trajectory[k] {
				if plain.Trajectory[k][i] != hooked.Trajectory[k][i] {
					t.Fatalf("trial %d: trajectory[%d][%d] = %v vs %v",
						trial, k, i, plain.Trajectory[k][i], hooked.Trajectory[k][i])
				}
			}
		}
		for i := range plain.Rates {
			if plain.Rates[i] != hooked.Rates[i] {
				t.Fatalf("trial %d: rates[%d] = %v vs %v", trial, i, plain.Rates[i], hooked.Rates[i])
			}
			if plain.Final.Signals[i] != hooked.Final.Signals[i] ||
				plain.Final.Delays[i] != hooked.Final.Delays[i] {
				t.Fatalf("trial %d: final observation differs at connection %d", trial, i)
			}
		}
	}
}

// TestMuScaleHookReachesQueues proves BeginStep's capacity scaling is
// not cosmetic: halving mu at a fixed rate vector must raise queues.
func TestMuScaleHookReachesQueues(t *testing.T) {
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
	r0 := []float64{0.2, 0.2}
	opt := core.RunOptions{MaxSteps: 1, NoEarlyStop: true}
	plain, err := sys.Run(r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Hook = &muScaleHook{}
	degraded, err := sys.Run(r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	// One step from the same r0: the degraded gateway signals more
	// congestion, so the additive law pulls rates down harder.
	for i := range plain.Rates {
		if !(degraded.Rates[i] < plain.Rates[i]) {
			t.Fatalf("rates[%d]: degraded %v not below plain %v", i, degraded.Rates[i], plain.Rates[i])
		}
	}
}

// TestNoEarlyStopRunsFullHorizon pins the NoEarlyStop contract: the
// run applies exactly MaxSteps updates yet still reports convergence
// when the calm-window criterion held at the end.
func TestNoEarlyStopRunsFullHorizon(t *testing.T) {
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
	const steps = 5000
	res, err := sys.Run([]float64{0.2, 0.3}, core.RunOptions{MaxSteps: steps, NoEarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps {
		t.Fatalf("ran %d steps, want the full horizon %d", res.Steps, steps)
	}
	if !res.Converged {
		t.Fatal("calm at the horizon but Converged is false")
	}
}
