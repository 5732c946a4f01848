// Package serve is the HTTP layer of cmd/ffcd, the scenario-serving
// daemon: it accepts declarative scenario JSON (the internal/scenario
// format, optionally wrapped in an envelope carrying a fault spec) and
// serves versioned run reports from a content-addressed result cache
// (internal/runcache), solving each distinct scenario at most once.
//
// Endpoints:
//
//	POST /run     one scenario → one run report (X-FFCD-Cache: hit|miss)
//	POST /batch   {"runs": [...]} → one report or error per item
//	GET  /healthz liveness and queue occupancy
//	GET  /metrics expvar-style JSON: serve, cache, and pool counters;
//	              Prometheus text format under Accept: text/plain
//	              (or ?format=prometheus)
//
// Every request is observable: per-endpoint × per-outcome latency
// histograms (hit/miss/400/405/413/422/429/503) and a sampled
// queue-depth gauge are always on, and when Config.Tracer is set each
// request additionally carries a span — phases parse → canonicalize →
// cache → queue → solve → render — whose trace ID is returned in the
// X-FFCD-Trace-ID header and whose completed event goes to the
// tracer's sink. With tracing disabled (nil Tracer) the
// instrumentation adds zero allocations per request on the cache-hit
// path.
//
// Concurrency is bounded: at most Workers solves run at once (each
// rides the internal/parallel pool, so pool telemetry and
// panic-to-error conversion apply), at most Queue more may wait, and
// beyond that /run answers 429 — backpressure instead of collapse.
// Cache hits and single-flight waiters bypass admission entirely: a
// full queue never refuses work that costs no solve. Shutdown is
// graceful: ListenAndServe stops accepting on context cancellation
// and drains in-flight runs before returning.
//
// docs/SERVING.md documents the endpoints, cache semantics, and
// capacity knobs.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nettheory/feedbackflow/internal/fault"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/parallel"
	"github.com/nettheory/feedbackflow/internal/runcache"
)

// BatchReportSchema identifies the /batch response JSON schema.
const BatchReportSchema = "feedbackflow/batch-report/v1"

// Config sizes the daemon.
type Config struct {
	// Workers bounds concurrent solves (0 = one per CPU, the
	// parallel.Workers convention).
	Workers int
	// Queue is how many solves may wait beyond the workers before /run
	// answers 429 (default 64).
	Queue int
	// CacheEntries bounds the result cache by entry count (default
	// 1024; <= 0 with CacheBytes also <= 0 still defaults both).
	CacheEntries int
	// CacheBytes bounds the result cache by total report bytes
	// (default 256 MiB).
	CacheBytes int64
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds the number of runs in one /batch request
	// (default 256).
	MaxBatch int
	// Tracer, when non-nil, records one span per request (phases,
	// monotonic durations, outcome) and returns its trace ID in the
	// X-FFCD-Trace-ID header. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Backend selects the solver: BackendDiscrete, BackendFluid, or
	// BackendAuto (the default), which solves populations of at least
	// FluidThreshold connections with the fluid backend and everything
	// else — including every faulted request — with the discrete one.
	Backend string
	// FluidThreshold is the population at which BackendAuto switches to
	// the fluid solver (default fluid.DefaultThreshold).
	FluidThreshold int64
}

func (c Config) withDefaults() Config {
	c.Workers = parallel.Workers(c.Workers)
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheEntries <= 0 && c.CacheBytes <= 0 {
		c.CacheEntries = 1024
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Backend == "" {
		c.Backend = BackendAuto
	}
	if c.FluidThreshold <= 0 {
		c.FluidThreshold = fluid.DefaultThreshold
	}
	return c
}

// errBusy is the admission-rejection sentinel mapped to 429.
var errBusy = errors.New("serve: all workers busy and queue full")

// Request outcome labels: the cache verdict for successful runs, the
// HTTP status for everything else. They key the per-endpoint latency
// histogram families (serve.latency.<endpoint>.<outcome>) and label
// the spans, and they are constants so the hot path never builds a
// string.
const (
	outHit  = "hit"
	outMiss = "miss"
	out400  = "400"
	out405  = "405"
	out413  = "413"
	out422  = "422"
	out429  = "429"
	out503  = "503"
)

// outcomes is every label above, in histogram-registration order.
var outcomes = []string{outHit, outMiss, out400, out405, out413, out422, out429, out503}

// latencyFamily pre-creates one latency histogram per outcome for an
// endpoint, so recording a latency is a constant-key map read plus an
// allocation-free Observe. The log-bucket layout spans 1µs–100s at
// five buckets per decade, so quantile estimates resolve to one
// bucket ratio, 10^(1/5) ≈ 1.58×.
func latencyFamily(reg *obs.Registry, endpoint string) map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram, len(outcomes))
	for _, o := range outcomes {
		m[o] = reg.Histogram("serve.latency."+endpoint+"."+o, 1e-6, 100, 5)
	}
	return m
}

// Server is the daemon: cache, admission control, and handlers.
type Server struct {
	cfg   Config
	cache *runcache.Cache
	mux   *http.ServeMux
	start time.Time

	// draining flips once graceful shutdown begins; from then on
	// /healthz answers 503 so pool-level health checks (an ffcgw
	// routing to this replica) stop sending new work while the drain
	// window runs out. In-flight and still-arriving /run traffic is
	// unaffected — the drain itself is the HTTP server's business.
	draining atomic.Bool

	// Admission: every solver holds a queue ticket for its whole
	// wait+run; at most Workers of them additionally hold a run slot.
	// Tickets are therefore bounded by Workers+Queue, and acquiring
	// one is non-blocking — failure is the 429 backpressure signal.
	queue chan struct{}
	slots chan struct{}

	reg       *obs.Registry
	requests  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	rejected  *obs.Counter
	badReqs   *obs.Counter
	runErrors *obs.Counter
	batchRuns *obs.Counter

	// Request-level observability: optional spans (nil tracer = off),
	// per-endpoint × per-outcome latency histograms, and a queue-depth
	// gauge sampled at every request arrival.
	tracer      *obs.Tracer
	latRun      map[string]*obs.Histogram
	latBatch    map[string]*obs.Histogram
	queueDepthG *obs.Gauge

	// testHookSolve, when non-nil, runs inside every solve while its
	// run slot is held — the seam the backpressure and drain tests use
	// to hold the server at a known occupancy.
	testHookSolve func()
}

// New returns a ready-to-serve daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		cache:     runcache.New(cfg.CacheEntries, cfg.CacheBytes),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		queue:     make(chan struct{}, cfg.Workers+cfg.Queue),
		slots:     make(chan struct{}, cfg.Workers),
		reg:       reg,
		requests:  reg.Counter("serve.requests"),
		hits:      reg.Counter("serve.cache_hits"),
		misses:    reg.Counter("serve.cache_misses"),
		rejected:  reg.Counter("serve.rejected"),
		badReqs:   reg.Counter("serve.bad_requests"),
		runErrors: reg.Counter("serve.run_errors"),
		batchRuns: reg.Counter("serve.batch_runs"),

		tracer:      cfg.Tracer,
		latRun:      latencyFamily(reg, "run"),
		latBatch:    latencyFamily(reg, "batch"),
		queueDepthG: reg.Gauge("serve.queue_depth"),
	}
	// Occupancy is read from the admission queue when scraped, so it
	// falls back to 0 as a burst drains.
	reg.GaugeFunc("serve.queue_occupancy", func() float64 { return float64(len(s.queue)) })
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler (also usable under
// httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the server's own telemetry (the /metrics endpoint
// also carries the cache's and the worker pool's).
func (s *Server) Snapshot() map[string]interface{} { return s.reg.Snapshot() }

// CacheSnapshot returns the result cache telemetry.
func (s *Server) CacheSnapshot() map[string]interface{} { return s.cache.Snapshot() }

// ListenAndServe serves on addr until ctx is cancelled, then drains
// in-flight requests for up to drain before returning. onReady, if
// non-nil, receives the bound address once the listener is up (addr
// may end in ":0").
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration, onReady func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.mux}
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
	// Flip health before the listener closes: a probe racing the
	// shutdown sees "draining" instead of "ok", so a gateway ejects
	// this replica rather than routing to a socket about to vanish.
	s.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// solve resolves one parsed request through the cache: a hit or a
// coalesced wait is free; a miss builds the spec, passes admission
// control and runs the scenario on the worker pool. The build comes
// before admission, so a document that does not build is a 400 (a
// *buildError, which coalesced waiters share) even when the queue is
// full. A miss that finds every run slot taken drops its build and
// builds again once admitted: a queued request holds only its spec,
// never a materialized population (a discrete document may expand to
// 2^24 connections, and Queue of them may wait). sp, when non-nil,
// gains the queue / solve / render phases on the goroutine that runs
// the solve; the build is timed in its cache phase, a rebuild after a
// wait in its queue phase (a coalesced waiter's span simply stays in
// its cache phase while it waits).
func (s *Server) solve(ctx context.Context, req *runRequest, sp *obs.Span) (body []byte, cached bool, err error) {
	sp.Phase("cache")
	return s.cache.Do(ctx, req.key, func() ([]byte, error) {
		c, err := req.build()
		if err != nil {
			return nil, err
		}

		sp.Phase("queue")
		select {
		case s.queue <- struct{}{}:
		default:
			return nil, errBusy
		}
		defer func() { <-s.queue }()

		select {
		case s.slots <- struct{}{}:
		default:
			c = nil
			select {
			case s.slots <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		defer func() { <-s.slots }()
		if c == nil {
			if c, err = req.build(); err != nil {
				return nil, err
			}
		}

		if s.testHookSolve != nil {
			s.testHookSolve()
		}
		// The single run rides the pool for its telemetry and
		// panic-to-error conversion; concurrency across requests is
		// already bounded by the slots.
		out, err := parallel.Map(ctx, 1, 1, func(int) ([]byte, error) {
			return renderRun(req, c, sp)
		})
		if err != nil {
			return nil, err
		}
		return out[0], nil
	})
}

// renderRun executes the built request and renders the versioned run
// report exactly once; these bytes are what the cache serves verbatim
// thereafter, which is what makes hits byte-identical to the miss.
func renderRun(req *runRequest, c *compiled, sp *obs.Span) ([]byte, error) {
	sp.Phase("solve")
	spec := req.doc.Spec()
	opts := spec.RunOptions()
	if c.fsys != nil {
		// parseRunRequest already rejected fault+fluid, so this is
		// always a plain run.
		res, err := c.fsys.Run(c.r0, opts)
		if err != nil {
			return nil, err
		}
		sp.Phase("render")
		rep, err := c.fsys.Report(res, spec.Name)
		if err != nil {
			return nil, err
		}
		return renderReport(rep), nil
	}
	if !req.fault.Enabled() {
		res, err := c.sys.Run(c.r0, opts)
		if err != nil {
			return nil, err
		}
		sp.Phase("render")
		rep, err := c.sys.Report(res, spec.Name)
		if err != nil {
			return nil, err
		}
		return renderReport(rep), nil
	}
	res, err := fault.RunPerturbed(c.sys, c.r0, req.fault, opts)
	if err != nil {
		return nil, err
	}
	sp.Phase("render")
	rep, err := c.sys.Report(res.Perturbed, spec.Name)
	if err != nil {
		return nil, err
	}
	res.Attach(rep)
	return renderReport(rep), nil
}

// renderBufs recycles the scratch renderReport encodes into. A report
// takes 16 to 30 bytes per float, too uneven to size up front, so it
// grows a reused buffer and the cache keeps an exact-size copy: the
// cache bounds the bytes of its values, not their spare capacity.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRender bounds the scratch kept for reuse, so one huge
// report (tens of MB at 10⁶ connections) is not pinned after its miss.
const maxPooledRender = 1 << 20

// renderReport renders rep as /run serves it and the cache keeps it:
// its JSON (obs.RunReport.AppendJSON, byte for byte json.MarshalIndent
// with a two-space indent) and a trailing newline.
func renderReport(rep *obs.RunReport) []byte {
	bp := renderBufs.Get().(*[]byte)
	buf := append(rep.AppendJSON((*bp)[:0]), '\n')
	out := bytes.Clone(buf)
	if cap(buf) <= maxPooledRender {
		*bp = buf
		renderBufs.Put(bp)
	}
	return out
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.queueDepthG.Set(float64(len(s.queue)))
	sp := s.startSpan(w, r, "run")
	outcome := s.serveRun(w, r, sp)
	sp.Outcome(outcome)
	sp.End()
	// The latency histograms are always on; with tracing disabled the
	// whole sequence above is branch-only and allocation-free (see
	// TestHitPathInstrumentationAddsZeroAllocs).
	if h := s.latRun[outcome]; h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// startSpan begins the request span, adopting an upstream trace ID
// when the request carries one — an ffcgw forwards its own
// X-FFCD-Trace-ID, so gateway and replica spans share an identity and
// the JSONL streams on both sides join on it. The header is echoed in
// the response whenever an identity exists: always with tracing on,
// and on propagated requests even with tracing off (costing nothing on
// the untraced, non-propagated hot path).
func (s *Server) startSpan(w http.ResponseWriter, r *http.Request, name string) *obs.Span {
	inbound, _ := obs.ParseTraceID(r.Header.Get("X-FFCD-Trace-ID"))
	sp := s.tracer.StartWith(name, inbound)
	switch {
	case sp != nil:
		w.Header().Set("X-FFCD-Trace-ID", sp.ID().String())
	case inbound != 0:
		w.Header().Set("X-FFCD-Trace-ID", inbound.String())
	}
	return sp
}

// maxPresize bounds the buffer ReadSized allocates on a sender's word
// alone, before any bytes arrive. A typical scenario document (25 KB)
// or rendered report (7–47 KB) fits; a longer body grows the buffer as
// its bytes arrive.
const maxPresize = 64 << 10

// ReadBody reads r's body capped at limit bytes by
// http.MaxBytesReader, whose *http.MaxBytesError marks an oversize
// body, into a buffer sized from its Content-Length (see ReadSized).
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return ReadSized(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
}

// ReadSized reads body to EOF. A declared length (a Content-Length; -1
// for none) within limit sizes the buffer up front, up to maxPresize,
// so a typical honest body is read into one allocation instead of
// io.ReadAll's doublings from 512 B. The length is only a hint: the
// body is read to EOF whatever it declares, so an understated length
// still meets whatever cap body enforces, and a sender that declares a
// large body and sends nothing holds at most maxPresize. On a read
// error it returns the bytes read so far with the error.
func ReadSized(body io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 && declared <= limit {
		size = min(declared+1, maxPresize) // +1: room for the read that reports EOF
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// serveRun is the /run body; it returns the request's outcome label.
func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, sp *obs.Span) string {
	s.requests.Inc()
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a scenario document to /run"))
		return out405
	}
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.badReqs.Inc()
		s.error(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body: %v", err))
		return out413
	}
	req, err := parseRunRequest(body, sp, s.cfg.Backend, s.cfg.FluidThreshold)
	if err != nil {
		s.badReqs.Inc()
		s.error(w, http.StatusBadRequest, err)
		return out400
	}
	val, cached, err := s.solve(r.Context(), req, sp)
	if err != nil {
		return s.writeRunError(w, err)
	}
	if cached {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	// An explicit length keeps net/http from chunking a body over 2 KiB,
	// and lets a client (an ffcgw) size its read buffer.
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-FFCD-Cache", cacheHeader(cached))
	w.Header().Set("X-FFCD-Backend", req.backend)
	w.Write(val)
	if cached {
		return outHit
	}
	return outMiss
}

// batchEnvelope is the /batch request: a list of run requests, each in
// either /run form (bare scenario or scenario+fault envelope).
type batchEnvelope struct {
	Runs []json.RawMessage `json:"runs"`
}

// batchItem is one /batch result. Exactly one of Report and Error is
// set.
type batchItem struct {
	Cache  string          `json:"cache,omitempty"` // "hit" or "miss"
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.queueDepthG.Set(float64(len(s.queue)))
	sp := s.startSpan(w, r, "batch")
	outcome := s.serveBatch(w, r, sp)
	sp.Outcome(outcome)
	sp.End()
	// Whole-request failures (405/413/400) land in the batch latency
	// family too; when items ran, serveBatch returns "" and each item
	// has already recorded its own outcome and latency.
	if h := s.latBatch[outcome]; h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// serveBatch is the /batch body; it returns the whole-request outcome
// label for failures before item fan-out, or "" when items ran (each
// item records its own outcome into the batch latency family).
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, sp *obs.Span) string {
	s.requests.Inc()
	if r.Method != http.MethodPost {
		s.error(w, http.StatusMethodNotAllowed, fmt.Errorf(`POST {"runs": [...]} to /batch`))
		return out405
	}
	sp.Phase("parse")
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.badReqs.Inc()
		s.error(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body: %v", err))
		return out413
	}
	var env batchEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		s.badReqs.Inc()
		s.error(w, http.StatusBadRequest, fmt.Errorf("batch: %v", err))
		return out400
	}
	if len(env.Runs) == 0 {
		s.badReqs.Inc()
		s.error(w, http.StatusBadRequest, fmt.Errorf(`batch: no "runs"`))
		return out400
	}
	if len(env.Runs) > s.cfg.MaxBatch {
		s.badReqs.Inc()
		s.error(w, http.StatusBadRequest, fmt.Errorf("batch: %d runs exceeds the limit of %d", len(env.Runs), s.cfg.MaxBatch))
		return out400
	}

	// Items fan out on the pool (bounded by the server's workers) and
	// record their own outcomes — per-item cache status in the response
	// and per-item latency in the serve.latency.batch.* family — so one
	// bad scenario fails its slot of the response rather than the whole
	// batch.
	sp.Phase("items")
	items := make([]batchItem, len(env.Runs))
	_ = parallel.ForEach(r.Context(), len(env.Runs), s.cfg.Workers, func(i int) error {
		itemStart := time.Now()
		outcome := s.serveBatchItem(r.Context(), env.Runs[i], &items[i])
		if h := s.latBatch[outcome]; h != nil {
			h.Observe(time.Since(itemStart).Seconds())
		}
		return nil
	})

	w.Header().Set("Content-Type", "application/json")
	resp := struct {
		Schema  string      `json:"schema"`
		Results []batchItem `json:"results"`
	}{BatchReportSchema, items}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
	return ""
}

// serveBatchItem runs one /batch item into *item and returns its
// outcome label.
func (s *Server) serveBatchItem(ctx context.Context, raw json.RawMessage, item *batchItem) string {
	s.batchRuns.Inc()
	req, err := parseRunRequest(raw, nil, s.cfg.Backend, s.cfg.FluidThreshold)
	if err != nil {
		s.badReqs.Inc()
		*item = batchItem{Error: err.Error()}
		return out400
	}
	val, cached, err := s.solve(ctx, req, nil)
	if err != nil {
		*item = batchItem{Error: err.Error()}
		var bad *buildError
		switch {
		case errors.As(err, &bad):
			s.badReqs.Inc()
			return out400
		case errors.Is(err, errBusy):
			s.rejected.Inc()
			return out429
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.runErrors.Inc()
			return out503
		default:
			s.runErrors.Inc()
			return out422
		}
	}
	if cached {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	*item = batchItem{Cache: cacheHeader(cached), Report: val}
	if cached {
		return outHit
	}
	return outMiss
}

// BeginDrain marks the server as draining: /healthz answers 503 from
// here on, while every other endpoint keeps serving until the HTTP
// server's own drain completes. ListenAndServe calls it on context
// cancellation; it is idempotent and safe to call directly (tests, or
// an embedding daemon with its own shutdown sequence).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// 503 + Retry-After: the conventional "lame duck" answer, so
		// generic health checkers and ffcgw probes alike stop routing
		// here without special-casing the body.
		status, code = "draining", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(code)
	}
	fmt.Fprintf(w, "{\"status\":%q,\"queue_occupancy\":%d,\"queue_capacity\":%d,\"uptime_ns\":%d}\n",
		status, len(s.queue), cap(s.queue), time.Since(s.start).Nanoseconds())
}

// handleMetrics serves the server's registries in one of two forms,
// chosen by content negotiation:
//
//   - JSON (the default, expvar-style): the process's published
//     expvars plus this server's own registries, without mutating
//     global expvar state (so tests can run many servers in one
//     process). The "memstats" expvar is excluded — reading it
//     mutates it, which would make two back-to-back scrapes of an
//     idle daemon differ byte-for-byte.
//   - Prometheus text exposition 0.0.4, when the request carries
//     ?format=prometheus or an Accept header naming text/plain or
//     OpenMetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, s.reg.Snapshot(), s.cache.Snapshot(), parallel.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n")
	first := true
	emit := func(name string, v interface{}) {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		b, err := json.Marshal(v)
		if err != nil {
			b = []byte(`"unmarshalable"`)
		}
		fmt.Fprintf(w, "%q: %s", name, b)
	}
	emit("feedbackflow.serve", s.reg.Snapshot())
	emit("feedbackflow.runcache", s.cache.Snapshot())
	emit("feedbackflow.parallel", parallel.Snapshot())
	var names []string
	global := map[string]string{}
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "memstats" {
			return
		}
		names = append(names, kv.Key)
		global[kv.Key] = kv.Value.String()
	})
	sort.Strings(names)
	for _, name := range names {
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", name, global[name])
	}
	fmt.Fprintf(w, "\n}\n")
}

// wantsPrometheus reports whether the scraper asked for the text
// exposition format: an explicit ?format=prometheus override, or an
// Accept header naming text/plain (the classic Prometheus scrape
// Accept) or OpenMetrics.
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

// writeRunError maps a solve failure to its HTTP status — 400 for a
// spec that does not build, 429 for backpressure, 422 for a run the
// model rejects (e.g. a fault run whose baseline never converges),
// 499-style client cancellation is reported as 503 since the client is
// gone anyway — and returns the matching outcome label.
func (s *Server) writeRunError(w http.ResponseWriter, err error) string {
	var bad *buildError
	switch {
	case errors.As(err, &bad):
		s.badReqs.Inc()
		s.error(w, http.StatusBadRequest, err)
		return out400
	case errors.Is(err, errBusy):
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusTooManyRequests, err)
		return out429
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.runErrors.Inc()
		s.error(w, http.StatusServiceUnavailable, err)
		return out503
	default:
		s.runErrors.Inc()
		s.error(w, http.StatusUnprocessableEntity, err)
		return out422
	}
}

func (s *Server) error(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	resp := struct {
		Error string `json:"error"`
	}{err.Error()}
	json.NewEncoder(w).Encode(resp)
}

func cacheHeader(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}
