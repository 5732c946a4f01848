// Package core composes the pieces of the paper's feedback flow
// control model — a network topology, a gateway service discipline, a
// congestion signalling scheme, and per-source rate adjustment laws —
// into the synchronous iterative procedure r' = F(r) of Section 2.3,
// and provides steady-state detection on top of it.
//
// The model's two standing approximations are implemented exactly as
// stated in the paper: queue lengths equilibrate instantly (Q^a(r)
// always reflects the current rate vector), and each connection's
// stream remains Poisson at every gateway on its path.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/finite"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// System is a fully specified feedback flow control model. All fields
// are fixed at construction; the iteration state is the rate vector
// passed to the methods, so a System is safe for concurrent use.
type System struct {
	net  *topology.Network
	disc queueing.Discipline
	// kernel is disc's weighted kernel, or an adapter over its
	// allocating methods when disc has none (unit weights only).
	kernel queueing.InPlace
	style  signal.Style
	b      signal.Func
	laws   []control.Law
	// weights[i] is the number of identical connections connection i
	// stands for; nil means one each (every discrete system).
	weights []float64
	plan    plan
	// classes, when non-nil, collapses each run of identical
	// connections into one weighted slot for Run (see classPlan).
	classes *classPlan
	// pool recycles Workspaces for the transient fast paths (Step,
	// Residual, Run); it keeps those entry points allocation-free in
	// steady state without compromising concurrent use.
	pool sync.Pool
}

// plan is the topology compiled into flat index arrays at NewSystem
// time, so the per-step hot path does no map lookups and can address
// all per-gateway scratch as contiguous slices. Slot p.off[a]+k in the
// flat buffers belongs to the k'th connection of Γ(a).
type plan struct {
	nConns, nGws int
	conns        [][]int   // conns[a]: Γ(a), shared with the Network
	mu           []float64 // mu[a]: gateway a's service rate
	off          []int     // off[a]: first flat slot of gateway a; off[nGws] = total
	slots        [][]int   // slots[i][p]: flat slot of connection i at its p'th hop
	hopLat       [][]float64
	routes       [][]int // routes[i]: γ(i), shared with the Network
	connOff      []int   // connOff[i]: first flat hop slot of connection i; connOff[nConns] = total

	// m[off[a]+k] is the weight of the k'th connection of Γ(a): the
	// kernels' multiplicity column, nil for unit weights.
	m []float64
}

// compilePlan precomputes the flat connection-index arrays that
// replace the per-step local-index maps the iteration used to build,
// and lays the connection weights (nil: unit) out as the kernels'
// per-slot multiplicity column.
func compilePlan(net *topology.Network, weights []float64) plan {
	nGws, nConns := net.NumGateways(), net.NumConnections()
	p := plan{
		nConns:  nConns,
		nGws:    nGws,
		conns:   make([][]int, nGws),
		mu:      make([]float64, nGws),
		off:     make([]int, nGws+1),
		slots:   make([][]int, nConns),
		hopLat:  make([][]float64, nConns),
		routes:  make([][]int, nConns),
		connOff: make([]int, nConns+1),
	}
	total := 0
	for a := 0; a < nGws; a++ {
		conns := net.Connections(a)
		p.conns[a] = conns
		p.mu[a] = net.Gateway(a).Mu
		p.off[a] = total
		total += len(conns)
	}
	p.off[nGws] = total
	hopTotal := 0
	for i := 0; i < nConns; i++ {
		p.routes[i] = net.Route(i)
		p.connOff[i] = hopTotal
		hopTotal += len(p.routes[i])
	}
	p.connOff[nConns] = hopTotal
	// Γ(a) lists its connections in ascending order, so visiting the
	// connections in order meets each gateway's in its Γ(a) order:
	// next[a] is the slot of the next connection to reach gateway a.
	next := append([]int(nil), p.off[:nGws]...)
	slots, lat := make([]int, hopTotal), make([]float64, hopTotal)
	for i, route := range p.routes {
		lo, hi := p.connOff[i], p.connOff[i+1]
		p.slots[i], p.hopLat[i] = slots[lo:hi:hi], lat[lo:hi:hi]
		for hop, a := range route {
			slots[lo+hop] = next[a]
			next[a]++
			lat[lo+hop] = net.Gateway(a).Latency
		}
	}
	if weights != nil {
		p.m = make([]float64, total)
		for a, conns := range p.conns {
			for k, i := range conns {
				p.m[p.off[a]+k] = weights[i]
			}
		}
	}
	return p
}

// NewSystem validates and assembles a System. laws must contain one
// rate adjustment law per connection (use control.Uniform for the
// homogeneous case).
//
// As a taint sink, NewSystem must never see raw network or file input:
// untrusted scenarios reach it only through scenario.Load + Build.
//
//ffc:taint sink
func NewSystem(net *topology.Network, disc queueing.Discipline, style signal.Style, b signal.Func, laws []control.Law) (*System, error) {
	return NewWeightedSystem(net, disc, style, b, laws, nil)
}

// NewWeightedSystem is NewSystem for a class-weighted network:
// connection i stands for weights[i] identical connections — same
// law, same route, same rate — which the weighted kernels evaluate as
// one slot of multiplicity weights[i] (Kelly–Williams' class-level
// fluid model). Weights must be positive and finite, one per
// connection, and disc must implement queueing.InPlace. Observations
// and the iteration are per class; Report weights gateway
// utilization, total queue and connection counts by the class sizes.
// A nil weights is NewSystem, bit for bit.
//
//ffc:taint sink
func NewWeightedSystem(net *topology.Network, disc queueing.Discipline, style signal.Style, b signal.Func, laws []control.Law, weights []float64) (*System, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if disc == nil {
		return nil, fmt.Errorf("core: nil discipline")
	}
	if b == nil {
		return nil, fmt.Errorf("core: nil signal function")
	}
	if len(laws) != net.NumConnections() {
		return nil, fmt.Errorf("core: %d laws for %d connections", len(laws), net.NumConnections())
	}
	for i, l := range laws {
		if l == nil {
			return nil, fmt.Errorf("core: law %d is nil", i)
		}
	}
	if style != signal.Aggregate && style != signal.Individual {
		return nil, fmt.Errorf("core: unknown feedback style %v", style)
	}
	kernel, ok := disc.(queueing.InPlace)
	if weights != nil {
		if !ok {
			return nil, fmt.Errorf("core: discipline %s has no weighted kernel", disc.Name())
		}
		if len(weights) != net.NumConnections() {
			return nil, fmt.Errorf("core: %d weights for %d connections", len(weights), net.NumConnections())
		}
		for i, w := range weights {
			if finite.IsBad(w) || w <= 0 {
				return nil, fmt.Errorf("core: weight %d = %v must be positive and finite", i, w)
			}
		}
		weights = append([]float64(nil), weights...)
	} else if !ok {
		kernel = unweighted{disc}
	}
	s := &System{net: net, disc: disc, kernel: kernel, style: style, b: b, laws: laws, weights: weights}
	s.plan = compilePlan(net, weights)
	if weights == nil {
		s.classes = s.compileClasses()
	}
	s.pool.New = func() interface{} { return s.NewWorkspace() }
	return s, nil
}

// unweighted adapts a Discipline without a weighted kernel to the
// InPlace call the step kernel makes; NewWeightedSystem admits it
// only at unit weights, where the allocating methods are exact.
type unweighted struct{ queueing.Discipline }

func (d unweighted) ObserveWeighted(q, w, r, _ []float64, mu float64, scr *queueing.Scratch) error {
	return queueing.ObserveInto(d.Discipline, q, w, r, mu, scr)
}

// acquire takes a pooled Workspace for a transient internal call.
func (s *System) acquire() *Workspace { return s.pool.Get().(*Workspace) }

// release returns a pooled Workspace. Nothing borrowed from the
// workspace (in particular its Observation) may be retained past this
// point.
func (s *System) release(w *Workspace) { s.pool.Put(w) }

// Network returns the topology.
func (s *System) Network() *topology.Network { return s.net }

// Discipline returns the gateway service discipline.
func (s *System) Discipline() queueing.Discipline { return s.disc }

// Style returns the feedback style.
func (s *System) Style() signal.Style { return s.style }

// SignalFunc returns the congestion signal function B.
func (s *System) SignalFunc() signal.Func { return s.b }

// Law returns connection i's rate adjustment law.
func (s *System) Law(i int) control.Law { return s.laws[i] }

// Weight returns how many identical connections connection i stands
// for: 1 unless the system was built by NewWeightedSystem.
func (s *System) Weight(i int) float64 {
	if s.weights == nil {
		return 1
	}
	return s.weights[i]
}

// Observation is everything the model computes from a rate vector:
// per-gateway queues, the combined congestion signals, and round-trip
// delays.
type Observation struct {
	// Signals[i] is b_i = max_a b^a_i, the bottleneck-combined signal.
	Signals []float64
	// Delays[i] is d_i = Σ_a (l_a + W^a_i): propagation plus queueing
	// delay along the path. +Inf when a path gateway is overloaded.
	Delays []float64
	// Queues[a][k] is the queue of the k'th connection of Γ(a) at
	// gateway a (indexing parallels Network.Connections(a)).
	Queues [][]float64
	// Bottlenecks[i] lists the gateways a on i's path with b^a_i = b_i
	// (within a small tolerance): the gateways the paper deems
	// bottlenecks for i.
	Bottlenecks [][]int
}

// Observe computes the Observation at rate vector r. The returned
// Observation is freshly allocated and owned by the caller; its float
// columns and queue rows share one backing array. Hot loops that
// observe repeatedly should hold a Workspace and use Workspace.Observe
// instead.
func (s *System) Observe(r []float64) (*Observation, error) {
	w := s.acquire()
	defer s.release(w)
	return w.observeCopy(r)
}

// Step applies one synchronous update r' = max(0, r + f(r, b, d)).
// The update itself runs through a pooled workspace, so the only
// steady-state allocation is the returned slice.
func (s *System) Step(r []float64) ([]float64, error) {
	next := make([]float64, len(r))
	w := s.acquire()
	_, _, err := w.stepInto(r, next)
	s.release(w)
	if err != nil {
		return nil, err
	}
	return next, nil
}

// Residual returns max_i |f_i(r, b_i, d_i)| — the distance from the
// steady-state condition f ≡ 0 — at rate vector r. Truncated
// connections (r_i = 0 with f_i < 0) contribute zero: they are at rest
// by the truncation rule, exactly the mechanism behind the Section 3.4
// starvation steady state.
func (s *System) Residual(r []float64) (float64, error) {
	w := s.acquire()
	defer s.release(w)
	if err := w.observe(r); err != nil {
		return 0, err
	}
	return s.residualFrom(r, &w.obs), nil
}

// residualFrom computes the steady-state residual at r from an
// observation already taken there.
func (s *System) residualFrom(r []float64, obs *Observation) float64 {
	res := 0.0
	for i := range r {
		f := s.laws[i].Adjust(r[i], obs.Signals[i], obs.Delays[i])
		if r[i] == 0 && f < 0 {
			continue
		}
		if a := math.Abs(f); a > res {
			res = a
		}
	}
	return res
}

// RunOptions controls Run.
type RunOptions struct {
	// MaxSteps bounds the iteration count (default 20000).
	MaxSteps int
	// Tol is the convergence tolerance on the sup-norm rate change
	// (default 1e-10, relative to 1 + max rate).
	Tol float64
	// Window is how many consecutive sub-tolerance steps constitute
	// convergence (default 3).
	Window int
	// Record retains the full trajectory in the result.
	Record bool
	// Tracer, when non-nil, receives one callback per applied update
	// with the pre-update state (see obs.StepTracer for the exact
	// contract). A nil Tracer adds no work and no allocations to the
	// iteration (guarded by BenchmarkStepNoTracer).
	Tracer obs.StepTracer
	// Clock supplies the wall-clock readings behind RunStats.WallTime
	// (default time.Now). Like entropy, time enters the deterministic
	// kernels only through explicit inputs — the detsource analyzer
	// forbids direct time.Now calls inside them — and injecting the
	// clock also lets tests pin WallTime exactly.
	Clock func() time.Time
	// Hook, when non-nil, interposes on every update: it may degrade
	// gateway capacity, perturb the observation before the laws see
	// it, and override the post-law rates (see StepHook). A nil Hook
	// leaves the iteration bit-identical to an unhooked run. The
	// fault-injection layer (internal/fault) is the intended user.
	Hook StepHook
	// NoEarlyStop disables the convergence early-exit so the run
	// always executes exactly MaxSteps updates. Perturbed runs use it:
	// recovery analysis needs the full horizon even though the system
	// sits still between disturbances (the calm-window criterion would
	// otherwise end the run before the next injected fault fires).
	NoEarlyStop bool
}

// WithDefaults fills every unset option with its documented default.
// Every solver backend applies it, so a scenario runs under the same
// step budget and convergence contract whichever backend solves it.
func (o RunOptions) WithDefaults() RunOptions {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 20000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.Window <= 0 {
		o.Window = 3
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// RunStats is the telemetry a run records about itself: step count,
// wall time, and a summary of the residual trajectory (the distance
// max|f_i| from steady state at each visited rate vector). It is
// collected unconditionally — the residuals fall out of the updates
// already being computed — so every run is measurable after the fact.
type RunStats struct {
	// Steps is the number of updates applied (same as RunResult.Steps).
	Steps int
	// WallTime is the elapsed wall-clock time of the run.
	WallTime time.Duration
	// InitialResidual is the residual at the initial rate vector.
	InitialResidual float64
	// FinalResidual is the residual at the final rate vector.
	FinalResidual float64
	// MinResidual and MaxResidual are the extremes over every visited
	// rate vector (including initial and final). A converging run has
	// FinalResidual ≈ MinResidual; an oscillating one does not.
	MinResidual, MaxResidual float64
}

// Observe folds one residual sample into the summary; first marks the
// initial sample, which seeds every extreme.
func (st *RunStats) Observe(resid float64, first bool) {
	if first {
		st.InitialResidual = resid
		st.MinResidual, st.MaxResidual = resid, resid
		return
	}
	if resid < st.MinResidual {
		st.MinResidual = resid
	}
	if resid > st.MaxResidual {
		st.MaxResidual = resid
	}
}

// RunResult reports the outcome of an iteration run.
type RunResult struct {
	// Rates is the final rate vector.
	Rates []float64
	// Steps is the number of updates applied.
	Steps int
	// Converged reports whether the convergence criterion was met
	// before MaxSteps; oscillatory and chaotic runs report false.
	Converged bool
	// Final is the observation at the final rates.
	Final *Observation
	// Stats holds the run's telemetry: wall time and the residual
	// trajectory summary.
	Stats RunStats
	// Trajectory holds every visited rate vector (including the
	// initial one) when RunOptions.Record is set, and is nil otherwise.
	Trajectory [][]float64
}

// Run iterates the synchronous procedure from r0 until convergence or
// the step budget is exhausted.
//
// On a discrete system, each maximal run of consecutive connections
// with the same route and an equal law is iterated as one weighted
// slot when there is no Hook and r0 is bit-equal within every run:
// such connections stay equal, so the class-level system describes
// them exactly, up to the summation order of the kernels. The result,
// every trajectory row and every tracer callback are still indexed by
// connection. A hooked run, and a system with no such run, iterate
// every connection.
//
//ffc:taint sink
func (s *System) Run(r0 []float64, opt RunOptions) (*RunResult, error) {
	if s.classes != nil && opt.Hook == nil {
		if res, ok := s.classes.run(r0, opt); ok {
			return res, nil
		}
	}
	ws := s.acquire()
	defer s.release(ws)
	return ws.run(r0, opt)
}

// run is Run on this workspace. Its result is owned by the caller and
// does not depend on what the workspace computed before.
func (w *Workspace) run(r0 []float64, opt RunOptions) (*RunResult, error) {
	s := w.sys
	opt = opt.WithDefaults()
	start := opt.Clock()
	if len(r0) != s.net.NumConnections() {
		return nil, fmt.Errorf("core: %d initial rates for %d connections", len(r0), s.net.NumConnections())
	}
	r := append([]float64(nil), r0...)
	next := make([]float64, len(r))
	res := &RunResult{}
	if opt.Record {
		res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
	}
	calm := 0
	for step := 0; step < opt.MaxSteps; step++ {
		var (
			obs   *Observation
			resid float64
			err   error
		)
		if opt.Hook == nil {
			obs, resid, err = w.stepInto(r, next)
		} else {
			obs, resid, err = w.hookedStep(step, r, next, opt.Hook)
		}
		if err != nil {
			return nil, err
		}
		res.Stats.Observe(resid, step == 0)
		if opt.Tracer != nil {
			opt.Tracer.OnStep(step, r, resid, obs.Signals)
		}
		maxChange, maxRate := 0.0, 0.0
		for i := range r {
			if c := math.Abs(next[i] - r[i]); c > maxChange {
				maxChange = c
			}
			if next[i] > maxRate {
				maxRate = next[i]
			}
		}
		r, next = next, r
		res.Steps = step + 1
		if opt.Record {
			res.Trajectory = append(res.Trajectory, append([]float64(nil), r...))
		}
		if maxChange <= opt.Tol*(1+maxRate) {
			calm++
			if calm >= opt.Window {
				res.Converged = true
				if !opt.NoEarlyStop {
					break
				}
			}
		} else {
			calm = 0
			res.Converged = false
		}
	}
	res.Rates = r
	final, err := w.observeCopy(r)
	if err != nil {
		return nil, err
	}
	res.Final = final
	finalResid := s.residualFrom(r, final)
	res.Stats.Observe(finalResid, res.Steps == 0)
	res.Stats.FinalResidual = finalResid
	res.Stats.Steps = res.Steps
	res.Stats.WallTime = opt.Clock().Sub(start)
	return res, nil
}

// StepFunc returns F as a plain function r ↦ F(r) for use by the
// stability package's numerical differentiation. The returned function
// panics on model errors, which cannot occur for non-negative finite
// rate vectors of the right length.
func (s *System) StepFunc() func([]float64) []float64 {
	return func(r []float64) []float64 {
		next, err := s.Step(r)
		if err != nil {
			panic(fmt.Sprintf("core: step failed: %v", err))
		}
		return next
	}
}
