package core

import (
	"math"
	"reflect"
	"slices"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// classPlan is the class view of a discrete system. Each maximal run
// of consecutive connections with the same route and an equal law is
// one connection of a class-level weighted system, weighted by the
// run's length: the paper's N identical connections, which stay on
// the diagonal r₁ = … = r_N once started from a common rate, and
// which the weighted kernels then evaluate as one slot.
type classPlan struct {
	sys *System
	// start[c] is the first connection of run c; start[C] = nConns.
	start []int
}

// compileClasses returns the class plan of a unit-weight system, or
// nil when no run has two members or the discipline has no weighted
// kernel: such a system has nothing to collapse, and Run iterates it
// as is.
func (s *System) compileClasses() *classPlan {
	net, laws := s.net, s.laws
	if _, ok := s.disc.(queueing.InPlace); !ok {
		return nil
	}
	n := net.NumConnections()
	cp := &classPlan{start: []int{0}}
	// Laws are compared with ==, which panics when both sides hold the
	// same incomparable dynamic type (a control.Custom holds a func,
	// and a struct law may hold one in an interface field). So a law
	// joins a run only when the run's law is comparable, and a law ==
	// to a comparable one is comparable too: only run starts are
	// checked.
	canEq := reflect.ValueOf(laws[0]).Comparable()
	for i := 1; i < n; i++ {
		if canEq && slices.Equal(net.Route(i), net.Route(i-1)) && laws[i] == laws[i-1] {
			continue
		}
		cp.start = append(cp.start, i)
		canEq = reflect.ValueOf(laws[i]).Comparable()
	}
	runs := len(cp.start)
	if runs == n {
		return nil
	}
	cp.start = append(cp.start, n)

	var bld topology.Builder
	for a := 0; a < net.NumGateways(); a++ {
		g := net.Gateway(a)
		bld.AddGateway(g.Name, g.Mu, g.Latency)
	}
	classLaws := make([]control.Law, runs)
	weights := make([]float64, runs)
	for c := range classLaws {
		bld.AddConnection(net.Route(cp.start[c])...)
		classLaws[c] = laws[cp.start[c]]
		weights[c] = float64(cp.start[c+1] - cp.start[c])
	}
	cnet, err := bld.Build()
	if err != nil {
		return nil // unreachable: the runs cover every route of a valid network
	}
	if cp.sys, err = NewWeightedSystem(cnet, s.disc, s.style, s.b, classLaws, weights); err != nil {
		return nil
	}
	return cp
}

// run solves the class-level system from r0 and hands back the result
// in connection indexing: rates, the final observation, every
// trajectory row and every tracer callback. ok is false when r0 is
// not bit-equal within every run, or when the class-level run fails;
// the caller then iterates every connection, which gives the
// per-connection answer or error.
func (cp *classPlan) run(r0 []float64, opt RunOptions) (*RunResult, bool) {
	n := cp.start[len(cp.start)-1]
	if len(r0) != n {
		return nil, false
	}
	cr0 := make([]float64, len(cp.start)-1)
	for c := range cr0 {
		v := math.Float64bits(r0[cp.start[c]])
		for _, x := range r0[cp.start[c]+1 : cp.start[c+1]] {
			if math.Float64bits(x) != v {
				return nil, false
			}
		}
		cr0[c] = r0[cp.start[c]]
	}
	if opt.Tracer != nil {
		opt.Tracer = &spreadTracer{cp: cp, next: opt.Tracer, r: make([]float64, n), b: make([]float64, n)}
	}
	res, err := cp.sys.Run(cr0, opt)
	if err != nil {
		return nil, false
	}
	res.Rates = cp.spread(make([]float64, n), res.Rates)
	res.Final = cp.expand(res.Final)
	for k, row := range res.Trajectory {
		res.Trajectory[k] = cp.spread(make([]float64, n), row)
	}
	return res, true
}

// spread writes each run's class value into every member's slot of
// dst and returns dst.
func (cp *classPlan) spread(dst, classes []float64) []float64 {
	for c, v := range classes {
		for i := cp.start[c]; i < cp.start[c+1]; i++ {
			dst[i] = v
		}
	}
	return dst
}

// expand returns the connection-indexed observation that a class-level
// observation stands for, laid out like Observation.clone: one flat
// allocation backs the signals, the delays and every queue row, in
// Γ(a) order, another every bottleneck row.
func (cp *classPlan) expand(co *Observation) *Observation {
	n := cp.start[len(cp.start)-1]
	nq, nb := 0, 0
	for a := range co.Queues {
		for _, c := range cp.sys.plan.conns[a] {
			nq += cp.start[c+1] - cp.start[c]
		}
	}
	for c, row := range co.Bottlenecks {
		nb += len(row) * (cp.start[c+1] - cp.start[c])
	}
	f := make([]float64, 2*n+nq)
	bn := make([]int, nb)
	o := &Observation{
		Signals:     cp.spread(f[:n:n], co.Signals),
		Delays:      cp.spread(f[n:2*n:2*n], co.Delays),
		Queues:      make([][]float64, len(co.Queues)),
		Bottlenecks: make([][]int, n),
	}
	f = f[2*n:]
	for a, crow := range co.Queues {
		k := 0
		for kc, c := range cp.sys.plan.conns[a] {
			for m := cp.start[c]; m < cp.start[c+1]; m++ {
				f[k] = crow[kc]
				k++
			}
		}
		o.Queues[a] = f[:k:k]
		f = f[k:]
	}
	for c, row := range co.Bottlenecks {
		for i := cp.start[c]; i < cp.start[c+1]; i++ {
			o.Bottlenecks[i] = bn[:len(row):len(row)]
			copy(o.Bottlenecks[i], row)
			bn = bn[len(row):]
		}
	}
	return o
}

// spreadTracer hands each class-level callback to next in connection
// indexing, through two buffers reused by every step.
type spreadTracer struct {
	cp   *classPlan
	next obs.StepTracer
	r, b []float64
}

// OnStep implements obs.StepTracer.
func (t *spreadTracer) OnStep(step int, r []float64, residual float64, signals []float64) {
	t.next.OnStep(step, t.cp.spread(t.r, r), residual, t.cp.spread(t.b, signals))
}
