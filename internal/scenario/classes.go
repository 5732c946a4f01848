package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/nettheory/feedbackflow/internal/control"
	"github.com/nettheory/feedbackflow/internal/finite"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// TotalConnections returns the expanded connection population —
// Σ max(1, Count) over the entries — without building anything.
// Backend selection (internal/serve, cmd/ffc) reads it to decide
// discrete vs fluid before committing to either representation.
func (s *Spec) TotalConnections() (int64, error) {
	var total int64
	for ci, c := range s.Connections {
		n, err := c.count()
		if err != nil {
			return 0, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		total += n
		if total > MaxCount {
			return 0, fmt.Errorf("scenario: total connection count exceeds the maximum %d", MaxCount)
		}
	}
	return total, nil
}

// ClassSpec is one collapsed equivalence class of a spec's expanded
// connection population: every member shares a canonically-equal law
// (alias kinds resolved, unconsumed parameters dropped), the same
// gateway path, and the same initial rate, so the fluid backend
// integrates a single ODE for the whole class.
type ClassSpec struct {
	// Path is the ordered gateway-name route, as written in the spec.
	Path []string
	// Law is a representative member's law spec (canonically equal
	// across the class).
	Law LawSpec
	// Count is the number of members — the class weight.
	Count int64
	// Initial is the per-member starting rate with Build's default
	// already applied (1% of the first gateway's service rate when the
	// spec does not fix one).
	Initial float64
}

// FluidClasses collapses the spec's expanded population into classes,
// in first-appearance order, validating exactly the inputs the
// grouping touches (counts, gateway references, law kinds and
// parameters, initial rates). It never materializes the population:
// a single count=10⁷ entry costs one class. Members group together
// when their canonical law rendering, path, and initial-rate bits
// (negative zero collapsed — the kernels cannot tell -0 from +0)
// all agree.
func (s *Spec) FluidClasses() ([]ClassSpec, error) {
	if len(s.Gateways) == 0 {
		return nil, fmt.Errorf("scenario: no gateways")
	}
	if len(s.Connections) == 0 {
		return nil, fmt.Errorf("scenario: no connections")
	}
	byName := make(map[string]int, len(s.Gateways))
	for _, g := range s.Gateways {
		if g.Name == "" {
			return nil, fmt.Errorf("scenario: gateway with empty name")
		}
		if _, dup := byName[g.Name]; dup {
			return nil, fmt.Errorf("scenario: duplicate gateway name %q", g.Name)
		}
		byName[g.Name] = len(byName)
	}
	total, err := s.TotalConnections()
	if err != nil {
		return nil, err
	}
	if n := int64(len(s.Initial)); n > 0 && n != total {
		return nil, fmt.Errorf("scenario: %d initial rates for %d connections", n, total)
	}

	var (
		classes []ClassSpec
		index   = make(map[string]int)
		member  int64 // expanded index, addresses s.Initial
	)
	for ci, c := range s.Connections {
		n, err := c.count()
		if err != nil {
			return nil, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		if len(c.Path) == 0 {
			return nil, fmt.Errorf("scenario: connection %d has an empty path", ci)
		}
		var key strings.Builder
		for _, name := range c.Path {
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("scenario: connection %d references unknown gateway %q", ci, name)
			}
			key.WriteString(strconv.Quote(name))
			key.WriteByte(',')
		}
		lawKey, err := appendLaw(nil, c.Law)
		if err != nil {
			return nil, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		key.WriteByte('|')
		key.Write(lawKey)
		prefix := key.String()

		// Default initial: 1% of the first gateway's service rate,
		// mirroring Build. With an explicit Initial vector the members
		// of one entry may start at different rates, so each member is
		// classed individually; without one, the whole entry shares the
		// default and collapses in a single step.
		defInit := 0.01 * s.Gateways[byName[c.Path[0]]].Mu
		addMembers := func(init float64, count int64) error {
			if finite.IsBad(init) || init < 0 {
				return fmt.Errorf("scenario: initial[%d] = %v: initial rates must be finite and non-negative", member, init)
			}
			init = finite.Norm(init)
			k := prefix + "|" + string(appendFloat(nil, init))
			if at, ok := index[k]; ok {
				classes[at].Count += count
			} else {
				index[k] = len(classes)
				classes = append(classes, ClassSpec{Path: c.Path, Law: c.Law, Count: count, Initial: init})
			}
			return nil
		}
		if len(s.Initial) == 0 {
			if err := addMembers(defInit, n); err != nil {
				return nil, err
			}
			member += n
		} else {
			for k := int64(0); k < n; k++ {
				if err := addMembers(s.Initial[member], 1); err != nil {
					return nil, err
				}
				member++
			}
		}
	}
	return classes, nil
}

// The Build* wrappers export the spec-fragment compilers so the fluid
// backend (internal/fluid) can assemble a system from FluidClasses
// without routing through Build's per-connection expansion.

// BuildLaw compiles one validated law spec into its control.Law.
func BuildLaw(sp LawSpec) (control.Law, error) { return buildLaw(sp) }

// BuildDiscipline resolves a discipline kind ("", "fairshare", "fs",
// "fifo").
func BuildDiscipline(kind string) (queueing.Discipline, error) { return buildDiscipline(kind) }

// BuildFeedback resolves a feedback style kind ("", "individual",
// "aggregate").
func BuildFeedback(kind string) (signal.Style, error) { return buildFeedback(kind) }

// BuildSignal compiles one validated signal spec into its
// signal.Func.
func BuildSignal(sp SignalSpec) (signal.Func, error) { return buildSignal(sp) }
