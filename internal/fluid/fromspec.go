package fluid

import (
	"fmt"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/topology"
)

// FromSpec compiles a scenario into a fluid system plus the per-class
// initial rate vector, the backend counterpart of scenario.Spec.Build.
// The population is never materialized: a single count=10⁷ connection
// entry becomes one connection of weight 10⁷ in the class-level
// network, so both the compile and every subsequent Run step cost
// O(#classes). FromSpec validates everything the fluid path consumes
// — counts, gateway parameters, routes and idle gateways (through
// topology.Builder, with Build's messages), law kinds and parameters,
// initial rates — which makes it the request-time validation gate for
// fluid-routed serving just as Build is for discrete.
func FromSpec(sp *scenario.Spec) (*System, []float64, error) {
	if sp.MaxSteps < 0 {
		return nil, nil, fmt.Errorf("scenario: maxSteps %d is negative (0 means the default)", sp.MaxSteps)
	}
	classes, err := sp.FluidClasses()
	if err != nil {
		return nil, nil, err
	}
	var bld topology.Builder
	byName := make(map[string]int, len(sp.Gateways))
	for _, g := range sp.Gateways {
		byName[g.Name] = bld.AddGateway(g.Name, g.Mu, g.Latency)
	}
	laws := make([]control.Law, len(classes))
	weights := make([]float64, len(classes))
	r0 := make([]float64, len(classes))
	for c, cs := range classes {
		if laws[c], err = scenario.BuildLaw(cs.Law); err != nil {
			return nil, nil, fmt.Errorf("scenario: class %d: %w", c, err)
		}
		route := make([]int, len(cs.Path))
		for hop, name := range cs.Path {
			route[hop] = byName[name] // FluidClasses already rejected unknown names
		}
		bld.AddConnection(route...)
		weights[c] = float64(cs.Count)
		r0[c] = cs.Initial
	}
	net, err := bld.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	disc, err := scenario.BuildDiscipline(sp.Discipline)
	if err != nil {
		return nil, nil, err
	}
	style, err := scenario.BuildFeedback(sp.Feedback)
	if err != nil {
		return nil, nil, err
	}
	sigFn, err := scenario.BuildSignal(sp.Signal)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewWeightedSystem(net, disc, style, sigFn, laws, weights)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	s := &System{sys: sys}
	s.pool.New = func() any { return s.newWorkspace() }
	return s, r0, nil
}
