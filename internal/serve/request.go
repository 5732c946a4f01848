package serve

import (
	"fmt"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/fault"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/runcache"
	"github.com/nettheory/feedbackflow/internal/scenario"
)

// Backend selection values for Config.Backend and the -backend flags.
const (
	BackendAuto     = "auto"
	BackendDiscrete = "discrete"
	BackendFluid    = "fluid"
)

// runRequest is one fully parsed, content-addressed run: the
// validated document, the optional fault spec, the backend the server
// resolved for it, and the cache key derived from their canonical
// forms. The scenario has not been built yet: that happens once, on a
// cache miss (see build).
//
// The scenario is held as the *scenario.Validated itself, never as a
// bare *scenario.Spec: a populated Validated comes only from
// scenario.DecodeRequest, so a runRequest built by parseRunRequest
// has passed the strict decoder and carries canonical bytes. The type
// constrains this field only; see docs/ANALYSIS.md for what it does
// not cover.
type runRequest struct {
	doc     *scenario.Validated
	fault   fault.Config
	backend string // BackendDiscrete or BackendFluid, already resolved
	key     runcache.Key
}

// CanonicalKey decodes body exactly as POST /run does — bare scenario
// or {"scenario","fault"} envelope, strict JSON, a canonicalizable
// spec, a parseable fault spec — and returns the content address a
// default-config daemon would cache the result under, without building
// or solving anything: one decode and one hash. It is how an ffcgw
// computes a request's home replica: gateway and replicas derive the
// key from the same canonical bytes, so requests for the same scenario
// always land on the same replica. A document that has a key but does
// not build is rejected by that replica (400), not by the gateway. The
// key also folds in the resolved backend label; a replica running a
// non-default -backend/-fluid-threshold may therefore cache under a
// different key than the gateway computes, which affects nothing —
// ring placement only needs the gateway's own keys to be consistent,
// and the replica's cache is addressed by the replica's keys.
func CanonicalKey(body []byte) (runcache.Key, error) {
	req, err := parseRunRequest(body, nil, BackendAuto, fluid.DefaultThreshold)
	if err != nil {
		return runcache.Key{}, err
	}
	return req.key, nil
}

// parseRunRequest is the whole front end of a cache hit: one strict
// decode with the scenario's canonical bytes (scenario.DecodeRequest),
// the fault spec, the backend choice, and one hash. It does not build
// the spec: a key enters the cache only after its spec has built and
// solved (runcache never caches errors), and specs with equal
// canonical bytes build alike, so a hit needs no Build.
//
// sp may be nil (tracing disabled, or a batch item); the parse and
// canonicalize phases are recorded on it when present.
//
// backend is the server's Config.Backend (BackendAuto routes
// populations of at least threshold connections to the fluid solver)
// and threshold its Config.FluidThreshold; the resolved choice is
// recorded in the request and its cache key, so the two backends'
// differently-shaped reports never share a cache entry. Fault
// injection is discrete-only: auto falls back to discrete for faulted
// requests, while an explicit fluid backend rejects them.
func parseRunRequest(body []byte, sp *obs.Span, backend string, threshold int64) (*runRequest, error) {
	sp.Phase("parse")
	v, err := scenario.DecodeRequest(body)
	if err != nil {
		return nil, err
	}
	cfg, err := fault.Parse(v.Fault())
	if err != nil {
		return nil, err
	}
	resolved, err := resolveBackend(v.Spec(), cfg, backend, threshold)
	if err != nil {
		return nil, err
	}

	sp.Phase("canonicalize")
	// The fault spec participates in the content address through its
	// canonical round-trip form, so "loss=0.5,seed=3" and
	// "seed=3,loss=0.5" share an entry; the backend label keeps the
	// class-indexed fluid report and the connection-indexed discrete
	// report of the same scenario under distinct entries.
	return &runRequest{
		doc:     v,
		fault:   cfg,
		backend: resolved,
		key:     runcache.KeyOf(v.Canonical(), []byte(cfg.String()), []byte(resolved)),
	}, nil
}

// buildError marks a request whose spec decoded and canonicalized but
// does not build on its backend: the client's mistake, answered 400
// like any other invalid document, never 422 or 429.
type buildError struct{ err error }

func (e *buildError) Error() string { return e.err.Error() }
func (e *buildError) Unwrap() error { return e.err }

// compiled is a request's spec built on its resolved backend: exactly
// one of sys and fsys is set, and r0 is its initial rate vector.
type compiled struct {
	sys  *core.System
	fsys *fluid.System
	r0   []float64
}

// build compiles the request on its resolved backend — Build for
// discrete, fluid.FromSpec for fluid, whose class collapse never
// materializes a 10⁷-connection population. It runs once per miss;
// its failure is a *buildError.
func (req *runRequest) build() (*compiled, error) {
	var (
		c   compiled
		err error
	)
	if req.backend == BackendFluid {
		c.fsys, c.r0, err = fluid.FromSpec(req.doc.Spec())
	} else {
		c.sys, c.r0, err = req.doc.Spec().Build()
	}
	if err != nil {
		return nil, &buildError{err}
	}
	return &c, nil
}

// resolveBackend turns the configured backend choice into a concrete
// one for this request.
func resolveBackend(spec *scenario.Spec, fc fault.Config, backend string, threshold int64) (string, error) {
	total, err := spec.TotalConnections()
	if err != nil {
		return "", err
	}
	switch backend {
	case BackendDiscrete:
		return BackendDiscrete, nil
	case BackendFluid:
		if fc.Enabled() {
			return "", fmt.Errorf("request: fault injection is per-connection and requires the discrete backend")
		}
		return BackendFluid, nil
	case BackendAuto, "":
		if threshold <= 0 {
			threshold = fluid.DefaultThreshold
		}
		if total >= threshold && !fc.Enabled() {
			return BackendFluid, nil
		}
		return BackendDiscrete, nil
	}
	return "", fmt.Errorf("request: unknown backend %q (want auto, discrete, or fluid)", backend)
}
