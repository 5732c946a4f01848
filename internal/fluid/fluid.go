// Package fluid is the second solver backend: the fluid (N→∞) limit
// of the discrete synchronous iteration in internal/core, solved in
// O(#classes) instead of O(#connections).
//
// The collapse that makes it work: connections with the same feedback
// law and the same gateway path are exchangeable — the discrete kernel
// gives them identical queues, signals, and delays whenever their
// rates agree, so a homogeneous population of N such connections stays
// on the diagonal r_1 = … = r_N for all time and is fully described by
// one representative rate plus the weight N. A scenario with 10⁷
// sources in three behavioral groups is a 3-dimensional ODE
//
//	dr_c/dt = f_c(r_c, b_c(r), d_c(r)),
//
// where the per-gateway observations come from the same kernels the
// discrete solver uses — internal/queueing's disciplines and
// internal/signal's congestion measures — called with the class
// weights as their multiplicity column: every sum over connections
// becomes a sum over classes with multiplicity w_c. A class of weight w
// gets the queue, signal, and delay w discrete members at the same
// rate would get (up to summation order; a one-member class is the
// discrete computation itself), so the fluid trajectory is the exact
// population dynamics, not an approximation of the per-gateway
// mechanics; this package only integrates it. The only approximation
// is in time: the discrete map r' = max(0, r + f) is the
// explicit-Euler discretization of the ODE with step h = 1, so fluid
// and discrete trajectories agree to O(h·λ) and converge as the paper's
// per-connection gains shrink like η ~ 1/N (experiment E23 measures
// exactly this).
//
// Two stepping regimes:
//
//   - Lockstep (Config.Step > 0, Method Euler): reproduces the
//     discrete iteration exactly — step 1.0 with Euler is the discrete
//     map itself, including the max(0, ·) projection. Cross-validation
//     and the N=1 degenerate case use this.
//   - Adaptive (Config.Step == 0): step-doubling error control on top
//     of RK4 (or the configured method). The integrator finds its own
//     stable step, so steady states that take the discrete solver ~N
//     synchronous rounds (gains η ~ 1/N) resolve in tens of accepted
//     steps regardless of N. This is what makes BenchmarkFluid/N=1e7
//     a sub-10ms solve.
//
// The Run/Report surface mirrors core.System's, reusing its option,
// result, and observation types, so obs tracing and scenario
// canonicalization work unchanged. The one deliberate gap:
// core.StepHook (fault injection) is per-connection and per-step by
// construction and has no fluid counterpart, so Run rejects hooks and
// the serving layer routes faulted requests to the discrete backend.
package fluid

import (
	"fmt"
	"math"
	"sync"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/finite"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// DefaultThreshold is the population at or above which backend "auto"
// (internal/serve, cmd/ffc, cmd/ffcd) switches from the discrete to
// the fluid solver. Below it the discrete kernel solves in well under
// a second and its per-connection output is strictly more informative;
// above it the discrete cost grows like N log N per step while the
// fluid cost stays flat in N.
const DefaultThreshold = 65536

// Gateway is one service point: rate μ and propagation latency.
type Gateway struct {
	Mu      float64
	Latency float64
}

// Class is one equivalence class of connections: Weight members, all
// following Law along Route (gateway indices, in path order).
type Class struct {
	Weight float64
	Law    control.Law
	Route  []int
}

// Method selects the integration stage scheme.
type Method int

const (
	// RK4 is the classical fourth-order Runge–Kutta scheme (default).
	RK4 Method = iota
	// Midpoint is the second-order explicit midpoint scheme.
	Midpoint
	// Euler is explicit Euler — with Step 1 it reproduces the discrete
	// map bit-for-bit on collapsed populations.
	Euler
)

func (m Method) String() string {
	switch m {
	case RK4:
		return "rk4"
	case Midpoint:
		return "midpoint"
	case Euler:
		return "euler"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Config assembles a fluid system.
type Config struct {
	Gateways []Gateway
	Classes  []Class
	// Discipline is the gateway service discipline. It must implement
	// queueing.InPlace, whose weighted kernel evaluates a gateway's
	// classes directly; every discipline in internal/queueing does.
	Discipline queueing.Discipline
	// Style and Signal select the congestion signalling, as in core.
	Style  signal.Style
	Signal signal.Func
	// Method is the stage scheme (default RK4).
	Method Method
	// Step fixes the integration step: one Run step advances the ODE
	// by Step time units (one discrete time unit each at Step 1). A
	// zero Step selects adaptive step-doubling control, which picks —
	// and re-picks — its own stable step.
	Step float64
}

// System is a compiled fluid model, safe for concurrent use; Run and
// Observe draw scratch from an internal pool.
type System struct {
	// Per-class columns.
	weights []float64
	laws    []control.Law
	routes  [][]int
	// Per-gateway columns.
	mu, lat  []float64
	gwWeight []float64 // Σ weights of classes through the gateway

	disc   queueing.InPlace
	style  signal.Style
	b      signal.Func
	method Method
	step   float64 // 0 = adaptive

	// members[a] lists the classes through gateway a; slot[c][hop] is
	// the flat scratch index of class c's entry at its hop'th gateway,
	// so per-gateway results land once and are read per-class without
	// searching. off[a] is gateway a's first flat slot, and slotW is
	// the kernels' multiplicity column: the weight of the class in
	// each flat slot.
	members [][]int
	slots   [][]int
	off     []int
	slotW   []float64
	total   int // Σ_a len(members[a])
	maxGw   int // largest single-gateway class count

	pool sync.Pool // *workspace
}

// New validates and compiles a fluid system.
func New(cfg Config) (*System, error) {
	if len(cfg.Gateways) == 0 {
		return nil, fmt.Errorf("fluid: no gateways")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("fluid: no classes")
	}
	if cfg.Signal == nil {
		return nil, fmt.Errorf("fluid: no signal function")
	}
	switch cfg.Style {
	case signal.Aggregate, signal.Individual:
	default:
		return nil, fmt.Errorf("fluid: unknown feedback style %v", cfg.Style)
	}
	if cfg.Discipline == nil {
		return nil, fmt.Errorf("fluid: no discipline")
	}
	disc, ok := cfg.Discipline.(queueing.InPlace)
	if !ok {
		return nil, fmt.Errorf("fluid: discipline %s has no weighted kernel", cfg.Discipline.Name())
	}
	switch cfg.Method {
	case RK4, Midpoint, Euler:
	default:
		return nil, fmt.Errorf("fluid: unknown method %v", cfg.Method)
	}
	if finite.IsBad(cfg.Step) || cfg.Step < 0 {
		return nil, fmt.Errorf("fluid: step %v must be positive (or 0 for adaptive)", cfg.Step)
	}

	const maxWeight = float64(scenario.MaxCount)
	nGws, nCls := len(cfg.Gateways), len(cfg.Classes)
	s := &System{
		weights:  make([]float64, nCls),
		laws:     make([]control.Law, nCls),
		routes:   make([][]int, nCls),
		mu:       make([]float64, nGws),
		lat:      make([]float64, nGws),
		gwWeight: make([]float64, nGws),
		disc:     disc,
		style:    cfg.Style,
		b:        cfg.Signal,
		method:   cfg.Method,
		step:     cfg.Step,
		members:  make([][]int, nGws),
		slots:    make([][]int, nCls),
		off:      make([]int, nGws+1),
	}
	for a, g := range cfg.Gateways {
		if finite.IsBad(g.Mu) || g.Mu <= 0 {
			return nil, fmt.Errorf("fluid: gateway %d service rate %v must be positive and finite", a, g.Mu)
		}
		if finite.IsBad(g.Latency) || g.Latency < 0 {
			return nil, fmt.Errorf("fluid: gateway %d latency %v must be non-negative and finite", a, g.Latency)
		}
		s.mu[a] = g.Mu
		s.lat[a] = g.Latency
	}
	for c, cl := range cfg.Classes {
		// A weight is a member count: the report prints it as an
		// integer, and scenario.MaxCount keeps every count and gateway
		// total exact in float64.
		if finite.IsBad(cl.Weight) || cl.Weight < 1 || cl.Weight > maxWeight || cl.Weight != math.Trunc(cl.Weight) {
			return nil, fmt.Errorf("fluid: class %d weight %v must be a whole member count in [1, %d]", c, cl.Weight, scenario.MaxCount)
		}
		if cl.Law == nil {
			return nil, fmt.Errorf("fluid: class %d has no law", c)
		}
		if len(cl.Route) == 0 {
			return nil, fmt.Errorf("fluid: class %d has an empty route", c)
		}
		seen := make(map[int]bool, len(cl.Route))
		for _, a := range cl.Route {
			if a < 0 || a >= nGws {
				return nil, fmt.Errorf("fluid: class %d routes through unknown gateway %d", c, a)
			}
			if seen[a] {
				return nil, fmt.Errorf("fluid: class %d visits gateway %d twice", c, a)
			}
			seen[a] = true
		}
		s.weights[c] = cl.Weight
		s.laws[c] = cl.Law
		s.routes[c] = append([]int(nil), cl.Route...)
	}
	// Flat slot layout: gateway a's block is [off[a], off[a+1]), and a
	// class remembers its local position at insertion time so slots
	// need only an offset fix-up once the blocks are sized.
	for c, route := range s.routes {
		s.slots[c] = make([]int, len(route))
		for hop, a := range route {
			s.slots[c][hop] = len(s.members[a])
			s.members[a] = append(s.members[a], c)
			s.gwWeight[a] += s.weights[c]
		}
	}
	for a := 0; a < nGws; a++ {
		if s.gwWeight[a] > maxWeight {
			return nil, fmt.Errorf("fluid: gateway %d carries %v members, more than %d", a, s.gwWeight[a], scenario.MaxCount)
		}
		s.off[a+1] = s.off[a] + len(s.members[a])
		if len(s.members[a]) > s.maxGw {
			s.maxGw = len(s.members[a])
		}
	}
	s.total = s.off[nGws]
	s.slotW = make([]float64, s.total)
	for a, mem := range s.members {
		for k, c := range mem {
			s.slotW[s.off[a]+k] = s.weights[c]
		}
	}
	for c, route := range s.routes {
		for hop, a := range route {
			s.slots[c][hop] += s.off[a]
		}
	}
	s.pool.New = func() any { return s.newWorkspace() }
	return s, nil
}

// SetStepping reconfigures the stage scheme and step size (0 selects
// adaptive control); FromSpec compiles systems with the adaptive RK4
// default, and cross-validation callers flip them to Euler lockstep
// with this. Not safe concurrently with Run.
func (s *System) SetStepping(m Method, step float64) error {
	switch m {
	case RK4, Midpoint, Euler:
	default:
		return fmt.Errorf("fluid: unknown method %v", m)
	}
	if finite.IsBad(step) || step < 0 {
		return fmt.Errorf("fluid: step %v must be positive (or 0 for adaptive)", step)
	}
	s.method = m
	s.step = step
	return nil
}

// NumClasses returns the number of classes (the dimension of the rate
// vector Run takes and returns).
func (s *System) NumClasses() int { return len(s.weights) }

// Weights returns a copy of the per-class member counts.
func (s *System) Weights() []float64 { return append([]float64(nil), s.weights...) }

// Population returns the total represented population Σ w_c.
func (s *System) Population() float64 {
	t := 0.0
	for _, w := range s.weights {
		t += w
	}
	return t
}

func (s *System) acquire() *workspace {
	w := s.pool.Get().(*workspace)
	w.err = nil
	return w
}

func (s *System) release(w *workspace) { s.pool.Put(w) }
