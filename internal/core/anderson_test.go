package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// scaledDoc builds doc with every law's gain multiplied by gain.
func scaledDoc(t *testing.T, doc []byte, gain float64) (*scenario.Spec, *core.System, []float64) {
	t.Helper()
	sp, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	for k := range sp.Connections {
		sp.Connections[k].Law.Eta *= gain
	}
	sys, r0, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sp, sys, r0
}

// benchHetero is the system and initial rates of the repository's
// BenchmarkRunHeterogeneous: 96 connections on random contiguous
// paths over a 4-gateway line, each with its own multiplicative gain
// and target signal, under individual feedback.
func benchHetero(t *testing.T, disc queueing.Discipline) (*core.System, []float64) {
	t.Helper()
	const gw, n = 4, 96
	rng := rand.New(rand.NewSource(1))
	var b topology.Builder
	for a := 0; a < gw; a++ {
		b.AddGateway(fmt.Sprintf("g%d", a), (1+rng.Float64())*float64(n)/float64(gw), 0.05+0.1*rng.Float64())
	}
	laws := make([]control.Law, n)
	for i := range laws {
		lo := rng.Intn(gw)
		hi := lo + rng.Intn(gw-lo)
		path := make([]int, 0, hi-lo+1)
		for a := lo; a <= hi; a++ {
			path = append(path, a)
		}
		b.AddConnection(path...)
		eta := 1.2 + 0.7*(float64(i)+rng.Float64())/float64(n)
		laws[i] = control.MultiplicativeTSI{Eta: eta, BSS: 0.2 + 0.6*rng.Float64()}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, disc, signal.Individual, signal.Rational{}, laws)
	if err != nil {
		t.Fatal(err)
	}
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.1
	}
	return sys, r0
}

// plainRun is the paper's plain iteration of sys from r0.
func plainRun(t *testing.T, sys *core.System, r0 []float64, opt core.RunOptions) *core.RunResult {
	t.Helper()
	opt.Hook = core.PerConnection{}
	res, err := sys.Run(r0, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameBits requires two runs to agree bit for bit: steps, flag,
// rates, residual summary and final signals and delays.
func sameBits(t *testing.T, got, want *core.RunResult) {
	t.Helper()
	g, w := got.Stats, want.Stats
	if got.Steps != want.Steps || got.Converged != want.Converged {
		t.Fatalf("%d steps (converged %v), plain %d (%v)", got.Steps, got.Converged, want.Steps, want.Converged)
	}
	for _, pair := range [][2]float64{
		{g.InitialResidual, w.InitialResidual}, {g.FinalResidual, w.FinalResidual},
		{g.MinResidual, w.MinResidual}, {g.MaxResidual, w.MaxResidual},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("residual summary %+v, plain %+v", g, w)
		}
	}
	for i := range want.Rates {
		if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) ||
			math.Float64bits(got.Final.Signals[i]) != math.Float64bits(want.Final.Signals[i]) ||
			math.Float64bits(got.Final.Delays[i]) != math.Float64bits(want.Final.Delays[i]) {
			t.Fatalf("connection %d: rate %v, plain %v", i, got.Rates[i], want.Rates[i])
		}
	}
}

// TestAcceleratedRunMatchesPlain: on the individual-feedback documents
// of scenariotest.Hetero(16) and on BenchmarkRunHeterogeneous's
// systems, an unhooked Run, which extrapolates, reads the same
// converged flag and the same set of connections at exactly 0 as the
// plain iteration, in fewer steps, with rates within 1e-8·(1 + max r)
// of a plain solve to Tol = 1e-14. The aggregate-feedback documents
// are never extrapolated, so there the two runs are one, bit for bit,
// over a 500-step budget that keeps their slow solves cheap.
func TestAcceleratedRunMatchesPlain(t *testing.T) {
	type system struct {
		name string
		sys  *core.System
		r0   []float64
		opt  core.RunOptions
	}
	var systems []system
	for i, doc := range scenariotest.Hetero(16) {
		sp, sys, r0 := scaledDoc(t, doc, 1)
		systems = append(systems, system{fmt.Sprintf("hetero-%d/%s/%s", i, sp.Discipline, sp.Feedback), sys, r0, sp.RunOptions()})
	}
	for _, disc := range []queueing.Discipline{queueing.FairShare{}, queueing.FIFO{}} {
		sys, r0 := benchHetero(t, disc)
		systems = append(systems, system{"bench/" + disc.Name(), sys, r0, core.RunOptions{}})
	}
	for _, s := range systems {
		t.Run(s.name, func(t *testing.T) {
			if s.sys.Style() == signal.Aggregate {
				s.opt.MaxSteps = 500
				got, err := s.sys.Run(s.r0, s.opt)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, got, plainRun(t, s.sys, s.r0, s.opt))
				return
			}
			got, err := s.sys.Run(s.r0, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			want := plainRun(t, s.sys, s.r0, s.opt)
			if got.Converged != want.Converged || !want.Converged {
				t.Fatalf("converged %v, plain %v", got.Converged, want.Converged)
			}
			if got.Steps >= want.Steps {
				t.Errorf("%d steps, plain %d", got.Steps, want.Steps)
			}
			tight := s.opt
			tight.Tol, tight.MaxSteps = 1e-14, 200000
			ref := plainRun(t, s.sys, s.r0, tight)
			if !ref.Converged {
				t.Fatal("the Tol = 1e-14 reference did not converge")
			}
			maxRate := 0.0
			for _, v := range ref.Rates {
				maxRate = math.Max(maxRate, v)
			}
			for i, v := range ref.Rates {
				if (got.Rates[i] == 0) != (want.Rates[i] == 0) {
					t.Fatalf("connection %d: rate %v, plain %v", i, got.Rates[i], want.Rates[i])
				}
				if d := math.Abs(got.Rates[i] - v); d > 1e-8*(1+maxRate) {
					t.Fatalf("connection %d: rate %v is %.3g from the tight solve's %v", i, got.Rates[i], d, v)
				}
			}
		})
	}
}

// countingTracer records the step index of every callback.
type countingTracer struct{ steps []int }

func (c *countingTracer) OnStep(step int, _ []float64, _ float64, _ []float64) {
	c.steps = append(c.steps, step)
}

// TestAccelerationRefusesUnstable: where the plain iteration does not
// settle, the stability guard refuses the extrapolated answer and Run
// returns the plain iteration's, bit for bit. The cases are Hetero(16)'s
// FIFO/individual documents with every gain scaled by 1.5 and 2.5 and
// its Fair Share/individual document 4 scaled by 2.5; each plain run
// oscillates, while the extrapolated attempt settles on an unstable
// fixed point within a few hundred steps, so a 3000-step budget tests
// the guard as the default one would. A traced and recorded refused
// run sees one callback and one row per plain update. An
// aggregate-feedback run and a NoEarlyStop run are never extrapolated.
func TestAccelerationRefusesUnstable(t *testing.T) {
	docs := scenariotest.Hetero(16)
	for _, c := range []struct {
		doc  int
		gain float64
	}{{1, 1.5}, {5, 1.5}, {9, 1.5}, {13, 1.5}, {1, 2.5}, {5, 2.5}, {9, 2.5}, {13, 2.5}, {4, 2.5}} {
		t.Run(fmt.Sprintf("hetero-%d/x%g", c.doc, c.gain), func(t *testing.T) {
			sp, sys, r0 := scaledDoc(t, docs[c.doc], c.gain)
			if sp.Feedback != "individual" {
				t.Fatalf("document %d has %s feedback", c.doc, sp.Feedback)
			}
			opt := sp.RunOptions()
			opt.MaxSteps = 3000
			want := plainRun(t, sys, r0, opt)
			if want.Converged {
				t.Fatal("the plain iteration converged; the case should not settle")
			}
			got, err := sys.Run(r0, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, got, want)
			if c.doc != 1 || c.gain != 1.5 {
				return
			}
			tr := &countingTracer{}
			opt.Tracer, opt.Record = tr, true
			traced, err := sys.Run(r0, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, traced, want)
			if len(tr.steps) != traced.Steps || len(traced.Trajectory) != traced.Steps+1 {
				t.Fatalf("%d callbacks and %d rows for %d steps", len(tr.steps), len(traced.Trajectory), traced.Steps)
			}
			for k, step := range tr.steps {
				if step != k {
					t.Fatalf("callback %d has step %d", k, step)
				}
			}
		})
	}
	t.Run("aggregate", func(t *testing.T) {
		sp, sys, r0 := scaledDoc(t, docs[2], 1)
		opt := sp.RunOptions()
		opt.MaxSteps = 500
		got, err := sys.Run(r0, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, got, plainRun(t, sys, r0, opt))
	})
	t.Run("no-early-stop", func(t *testing.T) {
		sp, sys, r0 := scaledDoc(t, docs[0], 1)
		opt := sp.RunOptions()
		opt.MaxSteps, opt.NoEarlyStop = 300, true
		got, err := sys.Run(r0, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, got, plainRun(t, sys, r0, opt))
	})
}
