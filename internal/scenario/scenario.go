// Package scenario loads declarative JSON descriptions of feedback
// flow control experiments — topology, service discipline, signalling,
// and per-connection rate adjustment laws — and builds runnable
// systems from them. It exists so that the workbench CLI (cmd/ffc) and
// downstream users can define reproducible scenarios as data rather
// than code.
//
// A minimal scenario:
//
//	{
//	  "name": "two-bottleneck",
//	  "discipline": "fairshare",
//	  "feedback": "individual",
//	  "gateways": [
//	    {"name": "A", "mu": 1.0, "latency": 0.1},
//	    {"name": "B", "mu": 2.0, "latency": 0.1}
//	  ],
//	  "connections": [
//	    {"path": ["A", "B"], "law": {"kind": "additive", "eta": 0.05, "bss": 0.5}},
//	    {"path": ["A"],      "law": {"kind": "additive", "eta": 0.05, "bss": 0.5}}
//	  ]
//	}
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/finite"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// Spec is a declarative scenario.
type Spec struct {
	// Name labels the scenario in output.
	Name string `json:"name"`
	// Discipline selects the gateway service discipline: "fifo" or
	// "fairshare" (default "fairshare").
	Discipline string `json:"discipline"`
	// Feedback selects the congestion signalling style: "aggregate"
	// or "individual" (default "individual").
	Feedback string `json:"feedback"`
	// Signal selects the signal function B (default rational).
	Signal SignalSpec `json:"signal"`
	// Gateways lists the logical gateways.
	Gateways []GatewaySpec `json:"gateways"`
	// Connections lists the connections with their routes and laws.
	Connections []ConnectionSpec `json:"connections"`
	// Initial optionally fixes the initial rate vector; when empty,
	// every connection starts at 1% of its first gateway's rate.
	Initial []float64 `json:"initial"`
	// MaxSteps bounds the iteration (default core's 20000).
	MaxSteps int `json:"maxSteps"`
}

// GatewaySpec describes one gateway.
type GatewaySpec struct {
	Name    string  `json:"name"`
	Mu      float64 `json:"mu"`
	Latency float64 `json:"latency"`
}

// ConnectionSpec describes one connection, or — with Count — a
// homogeneous population of them.
type ConnectionSpec struct {
	// Path is the ordered list of gateway names the connection
	// traverses.
	Path []string `json:"path"`
	// Law is the connection's rate adjustment law.
	Law LawSpec `json:"law"`
	// Count replicates the entry: the scenario behaves exactly as if
	// it appeared Count times in a row (0 and 1 both mean one
	// connection). This is how large homogeneous populations are
	// declared without one JSON entry per source; the discrete backend
	// expands them, the fluid backend (internal/fluid) solves each
	// class in O(1) regardless of Count.
	Count int64 `json:"count,omitempty"`
}

// MaxCount bounds one entry's Count, and MaxDiscreteConnections bounds
// the expanded population Build will materialize — past that the
// per-connection representation itself is the problem and the caller
// is pointed at the fluid backend. Counts up to MaxCount still stay
// exactly representable as float64 class weights (< 2^53).
const (
	MaxCount               = int64(1) << 40
	MaxDiscreteConnections = int64(1) << 24
)

// count resolves the entry's replication factor (0 and 1 both mean
// one) and rejects the values no backend can honor.
func (c ConnectionSpec) count() (int64, error) {
	if c.Count < 0 {
		return 0, fmt.Errorf("count %d is negative", c.Count)
	}
	if c.Count > MaxCount {
		return 0, fmt.Errorf("count %d exceeds the maximum %d", c.Count, MaxCount)
	}
	if c.Count == 0 {
		return 1, nil
	}
	return c.Count, nil
}

// LawSpec describes a rate adjustment law.
type LawSpec struct {
	// Kind: "additive", "multiplicative", "power", "fairrate",
	// "window".
	Kind string  `json:"kind"`
	Eta  float64 `json:"eta"`
	Beta float64 `json:"beta"`
	BSS  float64 `json:"bss"`
	P    float64 `json:"p"`
}

// SignalSpec describes the signal function B.
type SignalSpec struct {
	// Kind: "rational" (default), "power", "exponential", "binary".
	Kind      string  `json:"kind"`
	K         float64 `json:"k"`         // power exponent
	Theta     float64 `json:"theta"`     // exponential scale
	Threshold float64 `json:"threshold"` // binary threshold
}

// Load parses a scenario from JSON. Unknown fields are rejected so
// typos fail loudly, and the document must be exactly one JSON value:
// anything after it besides whitespace — a second document, stray
// bytes from a truncated upload — is an error rather than silently
// ignored (json.Decoder.Decode alone stops after the first value).
//
//ffc:taint sanitizer
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("scenario: trailing data after JSON document (unexpected %v)", tok)
		}
		return nil, fmt.Errorf("scenario: trailing data after JSON document: %v", err)
	}
	return &s, nil
}

// Build validates the spec and assembles the system plus the initial
// rate vector.
//
//ffc:taint sanitizer
func (s *Spec) Build() (*core.System, []float64, error) {
	if len(s.Gateways) == 0 {
		return nil, nil, fmt.Errorf("scenario: no gateways")
	}
	if len(s.Connections) == 0 {
		return nil, nil, fmt.Errorf("scenario: no connections")
	}
	if s.MaxSteps < 0 {
		return nil, nil, fmt.Errorf("scenario: maxSteps %d is negative (0 means the default)", s.MaxSteps)
	}
	var bld topology.Builder
	byName := make(map[string]int, len(s.Gateways))
	for _, g := range s.Gateways {
		if g.Name == "" {
			return nil, nil, fmt.Errorf("scenario: gateway with empty name")
		}
		if _, dup := byName[g.Name]; dup {
			return nil, nil, fmt.Errorf("scenario: duplicate gateway name %q", g.Name)
		}
		byName[g.Name] = bld.AddGateway(g.Name, g.Mu, g.Latency)
	}
	total, err := s.TotalConnections()
	if err != nil {
		return nil, nil, err
	}
	if total > MaxDiscreteConnections {
		return nil, nil, fmt.Errorf("scenario: %d connections exceed the discrete backend's limit %d; use the fluid backend", total, MaxDiscreteConnections)
	}
	laws := make([]control.Law, 0, total)
	for ci, c := range s.Connections {
		path := make([]int, 0, len(c.Path))
		for _, name := range c.Path {
			idx, ok := byName[name]
			if !ok {
				return nil, nil, fmt.Errorf("scenario: connection %d references unknown gateway %q", ci, name)
			}
			path = append(path, idx)
		}
		law, err := buildLaw(c.Law)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		n, err := c.count()
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		for k := int64(0); k < n; k++ {
			bld.AddConnection(path...)
			laws = append(laws, law)
		}
	}
	net, err := bld.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}

	disc, err := buildDiscipline(s.Discipline)
	if err != nil {
		return nil, nil, err
	}
	style, err := buildFeedback(s.Feedback)
	if err != nil {
		return nil, nil, err
	}
	sigFn, err := buildSignal(s.Signal)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(net, disc, style, sigFn, laws)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}

	r0 := s.Initial
	if len(r0) == 0 {
		r0 = make([]float64, net.NumConnections())
		for i := range r0 {
			first := net.Route(i)[0]
			r0[i] = 0.01 * net.Gateway(first).Mu
		}
	} else if len(r0) != net.NumConnections() {
		return nil, nil, fmt.Errorf("scenario: %d initial rates for %d connections", len(r0), net.NumConnections())
	} else {
		// The initial vector is the only numeric input the length check
		// above does not constrain: NaN poisons every downstream sum,
		// and the model has no meaning for negative or infinite rates.
		for i, v := range r0 {
			if finite.IsBad(v) || v < 0 {
				return nil, nil, fmt.Errorf("scenario: initial[%d] = %v: initial rates must be finite and non-negative", i, v)
			}
		}
	}
	return sys, r0, nil
}

// RunOptions returns the core options implied by the spec.
func (s *Spec) RunOptions() core.RunOptions {
	return core.RunOptions{MaxSteps: s.MaxSteps}
}

func buildDiscipline(kind string) (queueing.Discipline, error) {
	switch name, err := canonDiscipline(kind); name {
	case "fairshare":
		return queueing.FairShare{}, nil
	case "fifo":
		return queueing.FIFO{}, nil
	default:
		return nil, err
	}
}

func buildFeedback(kind string) (signal.Style, error) {
	switch name, err := canonFeedback(kind); name {
	case "individual":
		return signal.Individual, nil
	case "aggregate":
		return signal.Aggregate, nil
	default:
		return 0, err
	}
}

func buildSignal(sp SignalSpec) (signal.Func, error) {
	switch name, err := canonSignal(sp.Kind); name {
	case "rational":
		return signal.Rational{}, nil
	case "power":
		// The positivity comparisons alone would wave NaN (and, for k,
		// +Inf) through: !(NaN <= 0) and Inf > 0 both hold.
		if err := finiteParam("signal k", sp.K); err != nil {
			return nil, err
		}
		if sp.K <= 0 {
			return nil, fmt.Errorf("scenario: power signal needs k > 0")
		}
		return signal.Power{K: sp.K}, nil
	case "exponential":
		if err := finiteParam("signal theta", sp.Theta); err != nil {
			return nil, err
		}
		if sp.Theta <= 0 {
			return nil, fmt.Errorf("scenario: exponential signal needs theta > 0")
		}
		return signal.Exponential{Theta: sp.Theta}, nil
	case "binary":
		if err := finiteParam("signal threshold", sp.Threshold); err != nil {
			return nil, err
		}
		if sp.Threshold <= 0 {
			return nil, fmt.Errorf("scenario: binary signal needs threshold > 0")
		}
		return signal.Binary{Threshold: sp.Threshold}, nil
	default:
		return nil, err
	}
}

// lawParam is one named law parameter.
type lawParam struct {
	name string
	v    float64
}

// lawParams names the parameters a law of the given canonical kind
// (see canonLaw) actually consumes, in canonical order, as a fixed
// array and its length so the canonical encoder reads them without
// allocating; the canonicalizer (see Canonical) drops the rest, so
// validation and canonicalization agree on what is significant.
func lawParams(kind string, sp LawSpec) ([3]lawParam, int) {
	switch kind {
	case "additive", "multiplicative":
		return [3]lawParam{{"eta", sp.Eta}, {"bss", sp.BSS}}, 2
	case "power":
		return [3]lawParam{{"eta", sp.Eta}, {"bss", sp.BSS}, {"p", sp.P}}, 3
	case "fairrate", "window":
		return [3]lawParam{{"eta", sp.Eta}, {"beta", sp.Beta}}, 2
	}
	return [3]lawParam{}, 0
}

func buildLaw(sp LawSpec) (control.Law, error) {
	kind, err := canonLaw(sp.Kind)
	if err != nil {
		return nil, err
	}
	params, n := lawParams(kind, sp)
	for _, p := range params[:n] {
		if err := finiteParam("law "+p.name, p.v); err != nil {
			return nil, err
		}
	}
	switch kind {
	default: // "additive"
		return control.AdditiveTSI{Eta: sp.Eta, BSS: sp.BSS}, nil
	case "multiplicative":
		return control.MultiplicativeTSI{Eta: sp.Eta, BSS: sp.BSS}, nil
	case "power":
		return control.PowerTSI{Eta: sp.Eta, BSS: sp.BSS, P: sp.P}, nil
	case "fairrate":
		return control.FairRateLIMD{Eta: sp.Eta, Beta: sp.Beta}, nil
	case "window":
		return control.WindowLIMD{Eta: sp.Eta, Beta: sp.Beta}, nil
	}
}

// finiteParam rejects NaN and ±Inf parameter values with a message
// naming the parameter; the comparison-based range checks downstream
// would silently accept them. It delegates to internal/finite so this
// package, analytic, and fluid all reject exactly the same value set.
func finiteParam(name string, v float64) error {
	return finite.Check("scenario", name, v)
}
