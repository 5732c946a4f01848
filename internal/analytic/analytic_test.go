package analytic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

func TestSteadyStateValidation(t *testing.T) {
	if _, err := SteadyState(queueing.FairShare{}, nil, signal.Rational{}, 1); err == nil {
		t.Error("want error for no connections")
	}
	if _, err := SteadyState(queueing.FairShare{}, []float64{0.5}, signal.Rational{}, 0); err == nil {
		t.Error("want error for bad mu")
	}
	for _, bad := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := SteadyState(queueing.FairShare{}, []float64{bad}, signal.Rational{}, 1); err == nil {
			t.Errorf("want error for bss=%v", bad)
		}
	}
}

func TestSteadyStateHomogeneous(t *testing.T) {
	// Equal targets: everyone gets bss·μ/N under either discipline
	// (with the rational signal making b = load at the bottleneck).
	for _, disc := range []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}} {
		r, err := SteadyState(disc, []float64{0.6, 0.6, 0.6}, signal.Rational{}, 2)
		if err != nil {
			t.Fatalf("%s: %v", disc.Name(), err)
		}
		for i, ri := range r {
			if math.Abs(ri-0.4) > 1e-9 {
				t.Errorf("%s: r[%d] = %v, want 0.4", disc.Name(), i, ri)
			}
		}
	}
}

func TestSteadyStateKnownHeterogeneous(t *testing.T) {
	// The E9 instance: bss = (0.7, 0.4), μ = 1. Analytic solutions:
	// FIFO (0.6, 0.1), Fair Share (0.5, 0.2).
	r, err := SteadyState(queueing.FIFO{}, []float64{0.7, 0.4}, signal.Rational{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-0.6) > 1e-6 || math.Abs(r[1]-0.1) > 1e-6 {
		t.Errorf("FIFO solution %v, want (0.6, 0.1)", r)
	}
	r, err = SteadyState(queueing.FairShare{}, []float64{0.7, 0.4}, signal.Rational{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-0.5) > 1e-9 || math.Abs(r[1]-0.2) > 1e-9 {
		t.Errorf("FairShare solution %v, want (0.5, 0.2)", r)
	}
}

func TestSteadyStatePreservesInputOrder(t *testing.T) {
	// Unsorted targets come back in input order.
	r, err := SteadyState(queueing.FairShare{}, []float64{0.4, 0.7}, signal.Rational{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(r[0] < r[1]) {
		t.Errorf("lower target should get lower rate: %v", r)
	}
}

func TestSteadyStateUnsupportedDiscipline(t *testing.T) {
	if _, err := SteadyState(fakeDisc{}, []float64{0.5}, signal.Rational{}, 1); err == nil {
		t.Error("want error for unsupported discipline")
	}
}

type fakeDisc struct{}

func (fakeDisc) Name() string { return "fake" }
func (fakeDisc) Queues([]float64, float64) ([]float64, error) {
	return nil, nil
}
func (fakeDisc) SojournTimes([]float64, float64) ([]float64, error) {
	return nil, nil
}

// Property: the closed form agrees with the iterated dynamics and is
// a zero-residual steady state, for random heterogeneous targets,
// both disciplines, and a non-rational signal function.
func TestPropAnalyticMatchesIteration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		mu := 0.5 + rng.Float64()*2
		bss := make([]float64, n)
		for i := range bss {
			bss[i] = 0.15 + 0.7*rng.Float64()
		}
		var b signal.Func = signal.Rational{}
		if seed%2 == 0 {
			b = signal.Exponential{Theta: 2}
		}
		disc := queueing.Discipline(queueing.FIFO{})
		if seed%3 == 0 {
			disc = queueing.FairShare{}
		}
		want, err := SteadyState(disc, bss, b, mu)
		if err != nil {
			// Infeasible draws are allowed; just skip them.
			return true
		}
		net, err := topology.SingleGateway(n, mu, 0.1)
		if err != nil {
			return false
		}
		laws := make([]control.Law, n)
		for i := range laws {
			laws[i] = control.AdditiveTSI{Eta: 0.03 * mu, BSS: bss[i]}
		}
		sys, err := core.NewSystem(net, disc, signal.Individual, b, laws)
		if err != nil {
			return false
		}
		// Closed form must be an exact rest point.
		resid, err := sys.Residual(want)
		if err != nil || resid > 1e-7*mu {
			return false
		}
		// And the iteration must find it.
		r0 := make([]float64, n)
		for i := range r0 {
			r0[i] = (0.02 + 0.2*rng.Float64()) * mu / float64(n)
		}
		out, err := sys.Run(r0, core.RunOptions{MaxSteps: 400000, Tol: 1e-12})
		if err != nil || !out.Converged {
			return false
		}
		for i := range want {
			if math.Abs(out.Rates[i]-want[i]) > 1e-4*(1+want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the analytic solution's queues really do hit the
// congestion targets C*_i = B⁻¹(b_SS,i).
func TestPropAnalyticHitsTargets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		bss := make([]float64, n)
		for i := range bss {
			bss[i] = 0.2 + 0.6*rng.Float64()
		}
		for _, disc := range []queueing.Discipline{queueing.FIFO{}, queueing.FairShare{}} {
			r, err := SteadyState(disc, bss, signal.Rational{}, 1)
			if err != nil {
				continue
			}
			q, err := disc.Queues(r, 1)
			if err != nil {
				return false
			}
			c := make([]float64, len(q))
			if err := signal.IndividualCongestionInto(c, q, nil, new(signal.Scratch)); err != nil {
				return false
			}
			for i, ci := range c {
				got := (signal.Rational{}).Eval(ci)
				if math.Abs(got-bss[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
