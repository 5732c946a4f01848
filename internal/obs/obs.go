// Package obs is the repository's zero-dependency telemetry layer:
// counters, gauges, log-bucketed histograms, a per-step tracer
// contract for the iterative core, and the machine-readable run-report
// schema emitted by the CLIs' -metrics-json flags.
//
// The package is deliberately free of model knowledge — it operates on
// names and float64s — so the analytic core, the packet-level
// simulator, and the experiment harness can all report through it
// without import cycles. All instruments are safe for concurrent use
// (expvar-style debug handlers read them while a run mutates them) and
// the hot-path operations (Counter.Inc, Gauge.Set, Histogram.Observe)
// perform no allocations.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 measurement.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value (zero before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is an ordered collection of named instruments. Lookups
// create on first use, so packages can share one registry without
// coordinating initialization order.
type Registry struct {
	mu    sync.Mutex
	names []string
	vars  map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: map[string]interface{}{}}
}

// Counter returns the counter with the given name, creating it on
// first use. It panics if the name is already bound to a different
// instrument kind.
func (r *Registry) Counter(name string) *Counter {
	c, _ := r.lookup(name, func() interface{} { return new(Counter) }).(*Counter)
	if c == nil {
		panic("obs: " + name + " is not a counter")
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use. It panics if the name is already bound to a different
// instrument kind.
func (r *Registry) Gauge(name string) *Gauge {
	g, _ := r.lookup(name, func() interface{} { return new(Gauge) }).(*Gauge)
	if g == nil {
		panic("obs: " + name + " is not a gauge")
	}
	return g
}

// gaugeFunc is a gauge derived from live state: Snapshot reports its
// value at the time of the call.
type gaugeFunc func() float64

// GaugeFunc binds name to a gauge whose value is f(), evaluated at each
// Snapshot, outside the registry's lock. It suits an aggregate of
// state that lives elsewhere, which no event site then has to keep in
// step. It panics if the name is already bound.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	bound := false
	r.lookup(name, func() interface{} { bound = true; return gaugeFunc(f) })
	if !bound {
		panic("obs: " + name + " is already bound")
	}
}

// Histogram returns the histogram with the given name, creating it
// with the given bucket layout on first use. It panics if the name is
// already bound to a different instrument kind.
func (r *Registry) Histogram(name string, lo, hi float64, perDecade int) *Histogram {
	h, _ := r.lookup(name, func() interface{} { return NewHistogram(lo, hi, perDecade) }).(*Histogram)
	if h == nil {
		panic("obs: " + name + " is not a histogram")
	}
	return h
}

func (r *Registry) lookup(name string, mk func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		return v
	}
	v := mk()
	r.vars[name] = v
	r.names = append(r.names, name)
	return v
}

// Snapshot returns the current value of every instrument keyed by
// name, in a form that encoding/json can marshal: int64 for counters,
// float64 for gauges (a GaugeFunc evaluated at the call),
// HistogramSnapshot for histograms. The map is freshly allocated;
// mutating it does not affect the registry.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	vars := make(map[string]interface{}, len(r.vars))
	for k, v := range r.vars {
		vars[k] = v
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make(map[string]interface{}, len(names))
	for _, name := range names {
		switch v := vars[name].(type) {
		case *Counter:
			out[name] = v.Value()
		case *Gauge:
			out[name] = v.Value()
		case gaugeFunc:
			out[name] = v()
		case *Histogram:
			out[name] = v.Snapshot()
		}
	}
	return out
}
