package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// Doer issues one HTTP request; *http.Client satisfies it, tests
// substitute fakes.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// Clock injects every time source the gateway reads: Now anchors
// latency measurements, breaker cooldowns, and retry budgets; Sleep
// waits out backoff and probe intervals (honoring ctx); After arms the
// hedge timer. The package is a deterministic kernel under ffcvet, so
// there are no wall-clock defaults here — cmd/ffcgw passes the real
// clock, tests pass fakes.
type Clock struct {
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
	After func(d time.Duration) <-chan time.Time
}

func (c Clock) complete() bool { return c.Now != nil && c.Sleep != nil && c.After != nil }

// Config sizes the gateway and its robustness stack.
type Config struct {
	// Replicas are the pool members' base URLs (e.g.
	// "http://10.0.0.1:8080"); required, order fixes replica indices.
	Replicas []string
	// Client issues every upstream request (probes included); required.
	Client Doer
	// Clock injects all time sources; required.
	Clock Clock
	// Seed drives retry jitter; equal seeds give equal backoff
	// schedules (default 1).
	Seed uint64
	// VNodes is the ring points per replica (default 64).
	VNodes int

	// ProbeInterval spaces active /healthz probe rounds (default
	// 250ms); ProbeTimeout bounds one probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter consecutive health failures take a replica out of
	// rotation (default 2); ReadmitAfter consecutive probe successes
	// put it back (default 2).
	EjectAfter   int
	ReadmitAfter int

	// BreakerThreshold consecutive request failures open a replica's
	// circuit (default 3); BreakerCooldown is the open → half-open
	// delay (default 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// MaxAttempts bounds retries across replicas per request (default
	// 3, counting the first attempt; a hedge rides on top). BaseDelay/
	// MaxDelay/Jitter shape the capped exponential backoff between
	// attempts (defaults 10ms/1s/0.2).
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
	Jitter      float64
	// HedgeAfter is the latency threshold past which the request is
	// additionally sent to the next replica on the ring, first answer
	// wins (default 100ms; <= 0 disables hedging).
	HedgeAfter time.Duration
	// RequestTimeout is the whole-request deadline across all attempts
	// and hedges (default 30s).
	RequestTimeout time.Duration

	// MaxBodyBytes bounds a request body (default 8 MiB); MaxBatch
	// bounds the items in one /batch request (default 256).
	MaxBodyBytes int64
	MaxBatch     int
	// MaxResponseBytes bounds how much of an upstream response body
	// the gateway will read — or drain before closing on discard
	// paths, so a misbehaving replica cannot hold a forward goroutine
	// on an unbounded stream while still letting well-behaved
	// connections be reused (default 64 MiB).
	MaxResponseBytes int64

	// Tracer, when non-nil, records one span per request (phases
	// route → probe → dispatch → retry → render) whose ID is forwarded
	// to the replica in X-FFCD-Trace-ID, so gateway and replica span
	// streams join on one identity.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxResponseBytes <= 0 {
		c.MaxResponseBytes = 64 << 20
	}
	return c
}

// Request outcome labels keying the gateway.latency.<endpoint>.<...>
// histogram families: the cache verdict for proxied successes, the
// HTTP status for everything else ("ok" labels a /batch whose items
// ran — each item carries its own cache verdict in the envelope).
// "other" is the catch-all family for proxied statuses with no
// dedicated histogram (a replica replying e.g. 500 or 404), so every
// request's latency is recorded somewhere.
const (
	outHit   = "hit"
	outMiss  = "miss"
	outOK    = "ok"
	out400   = "400"
	out405   = "405"
	out413   = "413"
	out422   = "422"
	out429   = "429"
	out502   = "502"
	out503   = "503"
	out504   = "504"
	outOther = "other"
)

var outcomes = []string{outHit, outMiss, outOK, out400, out405, out413, out422, out429, out502, out503, out504, outOther}

func latencyFamily(reg *obs.Registry, endpoint string) map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram, len(outcomes))
	for _, o := range outcomes {
		m[o] = reg.Histogram("gateway.latency."+endpoint+"."+o, 1e-6, 100, 5)
	}
	return m
}

// observeLatency records one request's latency under its outcome
// label, falling back to the "other" family when the label has no
// dedicated histogram (a proxied status outside the enumerated set).
func observeLatency(fam map[string]*obs.Histogram, outcome string, seconds float64) {
	h := fam[outcome]
	if h == nil {
		h = fam[outOther]
	}
	h.Observe(seconds)
}

// errPoolUnhealthy is the load-shedding sentinel: no replica is
// admitted (all ejected or breaker-open), so the request is refused
// with 503 + Retry-After instead of queued without bound.
var errPoolUnhealthy = errors.New("cluster: no healthy replica (pool ejected or breakers open)")

// Gateway is the routing fabric: ring, replica pool, robustness state,
// and the HTTP surface (/run, /batch, /healthz, /metrics).
type Gateway struct {
	cfg      Config
	ring     *Ring
	replicas []*replica
	client   Doer
	clock    Clock
	tracer   *obs.Tracer
	mux      *http.ServeMux

	// jitter is the seeded backoff-jitter source; mu serializes draws
	// (dispatches run concurrently).
	jmu    sync.Mutex
	jitter *rand.Rand

	draining atomic.Bool

	reg          *obs.Registry
	requests     *obs.Counter
	batchReqs    *obs.Counter
	batchItems   *obs.Counter
	hits         *obs.Counter
	misses       *obs.Counter
	retries      *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	ejections    *obs.Counter
	readmissions *obs.Counter
	shed         *obs.Counter
	upstreamErrs *obs.Counter
	badReqs      *obs.Counter
	probes       *obs.Counter
	probeFails   *obs.Counter
	brOpened     *obs.Counter
	brHalfOpen   *obs.Counter
	brClosed     *obs.Counter
	healthyG     *obs.Gauge
	latRun       map[string]*obs.Histogram
	latBatch     map[string]*obs.Histogram
}

// New builds a gateway over the configured replica pool. It does not
// start probing — run Run alongside the HTTP server for that.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: Config.Replicas is required")
	}
	if cfg.Client == nil {
		return nil, fmt.Errorf("cluster: Config.Client is required")
	}
	if !cfg.Clock.complete() {
		return nil, fmt.Errorf("cluster: Config.Clock needs Now, Sleep, and After (pass the real clock outside tests)")
	}
	// Duplicate base URLs (easy to produce via a comma-separated flag)
	// would silently give the higher-index copy zero ring share while
	// Order() still lists it, doubling probes and dispatches against
	// one backend — reject them outright.
	seen := make(map[string]int, len(cfg.Replicas))
	for i, base := range cfg.Replicas {
		b := strings.TrimRight(base, "/")
		if j, dup := seen[b]; dup {
			return nil, fmt.Errorf("cluster: Config.Replicas[%d] %q duplicates Replicas[%d]", i, base, j)
		}
		seen[b] = i
	}
	cfg = cfg.withDefaults()

	reg := obs.NewRegistry()
	g := &Gateway{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas, cfg.VNodes),
		client: cfg.Client,
		clock:  cfg.Clock,
		tracer: cfg.Tracer,
		mux:    http.NewServeMux(),
		jitter: rand.New(rand.NewSource(int64(cfg.Seed))),

		reg:          reg,
		requests:     reg.Counter("gateway.requests"),
		batchReqs:    reg.Counter("gateway.batch_requests"),
		batchItems:   reg.Counter("gateway.batch_items"),
		hits:         reg.Counter("gateway.hits"),
		misses:       reg.Counter("gateway.misses"),
		retries:      reg.Counter("gateway.retries"),
		hedges:       reg.Counter("gateway.hedges"),
		hedgeWins:    reg.Counter("gateway.hedge_wins"),
		ejections:    reg.Counter("gateway.ejections"),
		readmissions: reg.Counter("gateway.readmissions"),
		shed:         reg.Counter("gateway.shed"),
		upstreamErrs: reg.Counter("gateway.upstream_errors"),
		badReqs:      reg.Counter("gateway.bad_requests"),
		probes:       reg.Counter("gateway.probes"),
		probeFails:   reg.Counter("gateway.probe_failures"),
		brOpened:     reg.Counter("gateway.breaker_opened"),
		brHalfOpen:   reg.Counter("gateway.breaker_half_open"),
		brClosed:     reg.Counter("gateway.breaker_closed"),
		healthyG:     reg.Gauge("gateway.healthy_replicas"),
		latRun:       latencyFamily(reg, "run"),
		latBatch:     latencyFamily(reg, "batch"),
	}

	shares := g.ring.Ownership()
	g.replicas = make([]*replica, len(cfg.Replicas))
	for i, base := range cfg.Replicas {
		r := &replica{
			idx:  i,
			base: strings.TrimRight(base, "/"),
			br: breaker{
				threshold: cfg.BreakerThreshold,
				cooldown:  cfg.BreakerCooldown,
			},
			lat:      reg.Histogram("gateway.replica."+strconv.Itoa(i)+".latency", 1e-6, 100, 5),
			healthyG: reg.Gauge("gateway.replica." + strconv.Itoa(i) + ".healthy"),
			breakerG: reg.Gauge("gateway.replica." + strconv.Itoa(i) + ".breaker"),
			shareG:   reg.Gauge("gateway.replica." + strconv.Itoa(i) + ".ring_share"),
		}
		r.healthyG.Set(1)
		r.shareG.Set(shares[i])
		r.br.onTransition = func(state int) {
			r.breakerG.Set(float64(state))
			switch state {
			case breakerOpen:
				g.brOpened.Inc()
			case breakerHalfOpen:
				g.brHalfOpen.Inc()
			case breakerClosed:
				g.brClosed.Inc()
			}
		}
		g.replicas[i] = r
	}
	g.healthyG.Set(float64(len(g.replicas)))

	g.mux.HandleFunc("/run", g.handleRun)
	g.mux.HandleFunc("/batch", g.handleBatch)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Snapshot returns the gateway telemetry keyed by instrument name.
func (g *Gateway) Snapshot() map[string]interface{} { return g.reg.Snapshot() }

// Ring returns the routing ring (read-only).
func (g *Gateway) Ring() *Ring { return g.ring }

// HealthyReplicas counts replicas currently in rotation.
func (g *Gateway) HealthyReplicas() int {
	n := 0
	for _, r := range g.replicas {
		if !r.st.isEjected() {
			n++
		}
	}
	g.healthyG.Set(float64(n))
	return n
}

// BeginDrain flips /healthz to 503, mirroring the replica-side
// convention, so a front balancer stops routing to a gateway that is
// about to stop.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// ListenAndServe serves on addr until ctx is cancelled, then drains
// in-flight requests for up to drain before returning. onReady, if
// non-nil, receives the bound address once the listener is up.
func (g *Gateway) ListenAndServe(ctx context.Context, addr string, drain time.Duration, onReady func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: g.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if onReady != nil {
		onReady(ln.Addr())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	g.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	return nil
}

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	start := g.clock.Now()
	sp := g.tracer.Start("gateway.run")
	if sp != nil {
		w.Header().Set("X-FFCD-Trace-ID", sp.ID().String())
	}
	outcome := g.serveRun(w, r, sp)
	sp.Outcome(outcome)
	sp.End()
	observeLatency(g.latRun, outcome, g.clock.Now().Sub(start).Seconds())
}

// readBody reads the capped request body. On failure it writes the
// error response and returns its outcome label: exceeding the cap is
// 413, any other read error — a client disconnect or transport fault
// mid-body — is a plain 400, so bad_requests and the 413 family count
// only what they name.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err == nil {
		return body, ""
	}
	g.badReqs.Inc()
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		g.error(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body: %v", err))
		return nil, out413
	}
	g.error(w, http.StatusBadRequest, fmt.Errorf("request body: %v", err))
	return nil, out400
}

func (g *Gateway) serveRun(w http.ResponseWriter, r *http.Request, sp *obs.Span) string {
	g.requests.Inc()
	if r.Method != http.MethodPost {
		g.error(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a scenario document to /run"))
		return out405
	}
	body, failed := g.readBody(w, r)
	if failed != "" {
		return failed
	}

	// Route: derive the content address exactly as the replica will,
	// so the ring placement and the replica's cache entry agree. The
	// key costs one decode and one hash, no Build. A body without an
	// address (malformed JSON, unknown fields or kinds, a bad fault
	// spec) is refused here, no dispatch spent; one that has an address
	// but does not build is its replica's to reject, and that 400 is
	// proxied verbatim below like any other final answer.
	sp.Phase("route")
	key, err := serve.CanonicalKey(body)
	if err != nil {
		g.badReqs.Inc()
		g.error(w, http.StatusBadRequest, err)
		return out400
	}

	u := g.dispatch(r.Context(), "/run", body, g.ring.Order(key), sp.ID(), sp)
	sp.Phase("render")
	switch {
	case u.err != nil && errors.Is(u.err, errPoolUnhealthy):
		w.Header().Set("Retry-After", "1")
		g.error(w, http.StatusServiceUnavailable, u.err)
		return out503
	case u.err != nil && (errors.Is(u.err, context.DeadlineExceeded) || errors.Is(u.err, context.Canceled)):
		g.upstreamErrs.Inc()
		g.error(w, http.StatusGatewayTimeout, fmt.Errorf("cluster: request deadline exceeded: %w", u.err))
		return out504
	case u.err != nil:
		g.upstreamErrs.Inc()
		w.Header().Set("Retry-After", "1")
		g.error(w, http.StatusBadGateway, fmt.Errorf("cluster: all attempts failed: %w", u.err))
		return out502
	}

	// Proxy the replica's answer verbatim — headers the clients key on
	// (cache verdict, trace identity) included — plus which replica
	// served it, for the pool-level observability story.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-FFCD-Replica", strconv.Itoa(u.replica))
	if u.cache != "" {
		w.Header().Set("X-FFCD-Cache", u.cache)
	}
	if sp == nil && u.trace != "" {
		w.Header().Set("X-FFCD-Trace-ID", u.trace)
	}
	if u.status != http.StatusOK {
		if u.retryAfter != "" {
			w.Header().Set("Retry-After", u.retryAfter)
		}
		w.WriteHeader(u.status)
		w.Write(u.body)
		return strconv.Itoa(u.status)
	}
	w.Write(u.body)
	if u.cache == "hit" {
		g.hits.Inc()
		return outHit
	}
	g.misses.Inc()
	return outMiss
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := g.HealthyReplicas()
	w.Header().Set("Content-Type", "application/json")
	status, code := "ok", http.StatusOK
	switch {
	case g.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case healthy == 0:
		status, code = "unhealthy", http.StatusServiceUnavailable
	}
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(code)
	}
	fmt.Fprintf(w, "{\"status\":%q,\"replicas\":%d,\"healthy\":%d}\n",
		status, len(g.replicas), healthy)
}

// handleMetrics mirrors the replica convention: Prometheus text under
// Accept: text/plain / openmetrics / ?format=prometheus, expvar-style
// JSON otherwise.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, g.reg.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(g.reg.Snapshot())
	if err != nil {
		b = []byte(`"unmarshalable"`)
	}
	fmt.Fprintf(w, "{\n%q: %s\n}\n", "feedbackflow.gateway", b)
}

func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

func (g *Gateway) error(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	resp := struct {
		Error string `json:"error"`
	}{err.Error()}
	json.NewEncoder(w).Encode(resp)
}
