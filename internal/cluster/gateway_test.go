package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/loadgen"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// fakeClock is the deterministic time source for gateway tests: Now
// advances one microsecond per reading (so durations are nonzero and
// strictly ordered), Sleep records the requested delay and advances
// the clock without blocking, and After either fires immediately
// (hedge tests) or never.
type fakeClock struct {
	mu         sync.Mutex
	t          time.Time
	sleeps     []time.Duration
	fireHedges bool
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) clock() Clock {
	return Clock{
		Now: func() time.Time {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.t = c.t.Add(time.Microsecond)
			return c.t
		},
		Sleep: func(ctx context.Context, d time.Duration) error {
			c.mu.Lock()
			c.sleeps = append(c.sleeps, d)
			c.t = c.t.Add(d)
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		},
		After: func(d time.Duration) <-chan time.Time {
			ch := make(chan time.Time, 1)
			c.mu.Lock()
			fire := c.fireHedges
			c.mu.Unlock()
			if fire {
				ch <- time.Time{}
			}
			return ch
		},
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) sleepLog() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.sleeps))
	copy(out, c.sleeps)
	return out
}

// newTestGateway builds a gateway over the given replica URLs with the
// fake clock, hedging disabled unless the test enables it, and serves
// it on an httptest listener.
func newTestGateway(t *testing.T, replicas []string, mutate func(*Config)) (*Gateway, *httptest.Server, *fakeClock) {
	t.Helper()
	fc := newFakeClock()
	cfg := Config{
		Replicas:   replicas,
		Client:     &http.Client{},
		Clock:      fc.clock(),
		HedgeAfter: -1, // off by default; hedge tests opt in
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts, fc
}

// stubReplica is a scriptable stand-in for an ffcd: /healthz follows
// the healthy flag (flipping to the draining form when unhealthy), and
// /run calls the run function.
type stubReplica struct {
	ts      *httptest.Server
	healthy atomic.Bool
	runs    atomic.Int64
}

func newStubReplica(t *testing.T, run http.HandlerFunc) *stubReplica {
	t.Helper()
	s := &stubReplica{}
	s.healthy.Store(true)
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if !s.healthy.Load() {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprint(w, `{"status":"draining"}`)
				return
			}
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		s.runs.Add(1)
		run(w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// okReplica answers every run with 200, a miss verdict, and a body
// naming the replica index.
func okReplica(t *testing.T, idx int) *stubReplica {
	t.Helper()
	return newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-FFCD-Cache", "miss")
		fmt.Fprintf(w, `{"replica":%d}`, idx)
	})
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func counter(t *testing.T, g *Gateway, name string) int64 {
	t.Helper()
	v, ok := g.Snapshot()[name]
	if !ok {
		t.Fatalf("no %s in gateway snapshot", name)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("%s is %T, want int64", name, v)
	}
	return n
}

func TestGatewayRoutesByContentAddress(t *testing.T) {
	r0, r1 := okReplica(t, 0), okReplica(t, 1)
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL, r1.ts.URL}, nil)

	docs := loadgen.Corpus(16)
	for _, doc := range docs {
		key, err := serve.CanonicalKey(doc)
		if err != nil {
			t.Fatal(err)
		}
		home := g.Ring().Owner(key)
		resp, body := post(t, ts.URL+"/run", string(doc))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /run: %d %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-FFCD-Replica"); got != strconv.Itoa(home) {
			t.Fatalf("request served by replica %s, ring homes it on %d", got, home)
		}
		if got := string(body); got != fmt.Sprintf(`{"replica":%d}`, home) {
			t.Fatalf("body %q not proxied from home replica %d", got, home)
		}
		if got := resp.Header.Get("X-FFCD-Cache"); got != "miss" {
			t.Fatalf("cache header %q not proxied", got)
		}
	}
	if r0.runs.Load() == 0 || r1.runs.Load() == 0 {
		t.Fatalf("corpus of 16 used replicas unevenly: %d/%d runs; routing suspect",
			r0.runs.Load(), r1.runs.Load())
	}
	if got := counter(t, g, "gateway.misses"); got != 16 {
		t.Fatalf("gateway.misses = %d, want 16", got)
	}
}

// TestGatewayRejectsUnaddressableBody: a body that has no content
// address — here an unknown field — is refused at the gateway without
// a dispatch. (A body that decodes but does not build has an address;
// its replica rejects it, see TestGatewayPassesReplica400Through.)
func TestGatewayRejectsUnaddressableBody(t *testing.T) {
	r0 := okReplica(t, 0)
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL}, nil)
	resp, _ := post(t, ts.URL+"/run", `{"nam":"not a scenario"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unaddressable body: %d, want 400", resp.StatusCode)
	}
	if r0.runs.Load() != 0 {
		t.Fatal("gateway dispatched a body the replicas would reject")
	}
	if got := counter(t, g, "gateway.bad_requests"); got != 1 {
		t.Fatalf("gateway.bad_requests = %d, want 1", got)
	}
}

func TestGatewayRetriesBusyReplica(t *testing.T) {
	// Single-replica pool: first run answers 429 with explicit pacing,
	// the retry lands back on the same replica and succeeds.
	var calls atomic.Int64
	r0 := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.Header().Set("X-FFCD-Cache", "miss")
		fmt.Fprint(w, `{"replica":0}`)
	})
	g, ts, fc := newTestGateway(t, []string{r0.ts.URL}, nil)

	doc := loadgen.Corpus(1)[0]
	resp, body := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run after 429: %d %s", resp.StatusCode, body)
	}
	if got := counter(t, g, "gateway.retries"); got != 1 {
		t.Fatalf("gateway.retries = %d, want 1", got)
	}
	sleeps := fc.sleepLog()
	if len(sleeps) != 1 || sleeps[0] != time.Second {
		t.Fatalf("backoff sleeps = %v, want the replica's Retry-After of 1s honored", sleeps)
	}
}

func TestGatewayFailsOverDeadHome(t *testing.T) {
	r1 := okReplica(t, 1)
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close() // connections now refuse: a SIGKILLed replica
	g, ts, fc := newTestGateway(t, []string{deadURL, r1.ts.URL}, nil)

	// Find a corpus doc homed on the dead replica 0.
	var doc []byte
	for _, d := range loadgen.Corpus(32) {
		key, err := serve.CanonicalKey(d)
		if err != nil {
			t.Fatal(err)
		}
		if g.Ring().Owner(key) == 0 {
			doc = d
			break
		}
	}
	if doc == nil {
		t.Fatal("no corpus doc homed on replica 0")
	}

	resp, body := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dead home must degrade to a miss on the next replica, got %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-FFCD-Replica"); got != "1" {
		t.Fatalf("served by replica %s, want failover to 1", got)
	}
	if got := counter(t, g, "gateway.retries"); got != 1 {
		t.Fatalf("gateway.retries = %d, want 1", got)
	}
	if sleeps := fc.sleepLog(); len(sleeps) != 1 || sleeps[0] <= 0 {
		t.Fatalf("backoff sleeps = %v, want one positive jittered delay", sleeps)
	}
}

func TestGatewayBackoffDeterministicInSeed(t *testing.T) {
	mk := func(seed uint64) *Gateway {
		fc := newFakeClock()
		g, err := New(Config{
			Replicas: []string{"http://unused"},
			Client:   &http.Client{},
			Clock:    fc.clock(),
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b, c := mk(7), mk(7), mk(8)
	for attempt := 1; attempt <= 4; attempt++ {
		da, db, dc := a.backoff(attempt, ""), b.backoff(attempt, ""), c.backoff(attempt, "")
		if da != db {
			t.Fatalf("attempt %d: equal seeds diverge (%v vs %v)", attempt, da, db)
		}
		if attempt == 1 && da == dc {
			t.Log("seeds 7 and 8 coincide on attempt 1; jitter still plausible")
		}
		if da <= 0 || da > 2*time.Second {
			t.Fatalf("attempt %d: backoff %v outside sane bounds", attempt, da)
		}
	}
}

func TestGatewayHedgesSlowHome(t *testing.T) {
	// Home hangs until the request is cancelled; the hedge timer fires
	// immediately (fake clock), so the next ring replica answers.
	slow := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server's background read can observe
		// the gateway abandoning the connection; with unread body bytes
		// the request context would never fire.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	fast := okReplica(t, 1)
	g, ts, fc := newTestGateway(t, []string{slow.ts.URL, fast.ts.URL}, func(cfg *Config) {
		cfg.HedgeAfter = 10 * time.Millisecond
	})
	fc.mu.Lock()
	fc.fireHedges = true
	fc.mu.Unlock()

	// A doc homed on the slow replica 0, so the hedge is what answers.
	var doc []byte
	for _, d := range loadgen.Corpus(32) {
		key, _ := serve.CanonicalKey(d)
		if g.Ring().Owner(key) == 0 {
			doc = d
			break
		}
	}
	if doc == nil {
		t.Fatal("no corpus doc homed on replica 0")
	}

	resp, body := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-FFCD-Replica"); got != "1" {
		t.Fatalf("served by replica %s, want the hedge target 1", got)
	}
	if got := counter(t, g, "gateway.hedges"); got != 1 {
		t.Fatalf("gateway.hedges = %d, want 1", got)
	}
	if got := counter(t, g, "gateway.hedge_wins"); got != 1 {
		t.Fatalf("gateway.hedge_wins = %d, want 1", got)
	}
}

func TestGatewayBreakerOpensAndRecovers(t *testing.T) {
	// Replica fails its first 3 runs with 500, then recovers. 500 is
	// not retryable (the handler ran), so each failure is one request.
	var calls atomic.Int64
	r0 := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"solver wedged"}`)
			return
		}
		w.Header().Set("X-FFCD-Cache", "miss")
		fmt.Fprint(w, `{"replica":0}`)
	})
	g, ts, fc := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.BreakerThreshold = 3
		cfg.BreakerCooldown = time.Second
		cfg.EjectAfter = 100 // keep passive ejection out of this test's way
	})
	doc := loadgen.Corpus(1)[0]

	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts.URL+"/run", string(doc))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: %d, want the replica's 500 proxied", i, resp.StatusCode)
		}
	}
	if got := counter(t, g, "gateway.breaker_opened"); got != 1 {
		t.Fatalf("gateway.breaker_opened = %d, want 1", got)
	}

	// Open breaker + single-replica pool = nothing to route to: shed.
	resp, _ := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open pool: %d, want 503 shed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 must carry Retry-After")
	}
	if got := counter(t, g, "gateway.shed"); got != 1 {
		t.Fatalf("gateway.shed = %d, want 1", got)
	}

	// Cooldown elapses: the half-open probe rides a real request,
	// succeeds, and closes the breaker.
	fc.advance(2 * time.Second)
	resp, body := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cooldown request: %d %s", resp.StatusCode, body)
	}
	if got := counter(t, g, "gateway.breaker_half_open"); got != 1 {
		t.Fatalf("gateway.breaker_half_open = %d, want 1", got)
	}
	if got := counter(t, g, "gateway.breaker_closed"); got != 1 {
		t.Fatalf("gateway.breaker_closed = %d, want 1", got)
	}
}

func TestGatewayEjectionAndReadmission(t *testing.T) {
	r0, r1 := okReplica(t, 0), okReplica(t, 1)
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL, r1.ts.URL}, func(cfg *Config) {
		cfg.EjectAfter = 2
		cfg.ReadmitAfter = 2
	})
	ctx := context.Background()

	g.ProbeAll(ctx)
	if got := g.HealthyReplicas(); got != 2 {
		t.Fatalf("healthy replicas after clean probe = %d, want 2", got)
	}

	// Replica 0 starts draining: its /healthz flips to 503, and two
	// consecutive failed probes eject it before its listener dies.
	r0.healthy.Store(false)
	g.ProbeAll(ctx)
	g.ProbeAll(ctx)
	if got := g.HealthyReplicas(); got != 1 {
		t.Fatalf("healthy replicas after draining probes = %d, want 1", got)
	}
	if got := counter(t, g, "gateway.ejections"); got != 1 {
		t.Fatalf("gateway.ejections = %d, want 1", got)
	}
	if got := counter(t, g, "gateway.probe_failures"); got != 2 {
		t.Fatalf("gateway.probe_failures = %d, want 2", got)
	}

	// Requests homed on the ejected replica route to the survivor
	// without error — the dead shard is a cold miss, not a failure.
	before := r0.runs.Load()
	for _, d := range loadgen.Corpus(8) {
		resp, body := post(t, ts.URL+"/run", string(d))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request during ejection: %d %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-FFCD-Replica"); got != "1" {
			t.Fatalf("request served by %s while 0 was ejected", got)
		}
	}
	if r0.runs.Load() != before {
		t.Fatal("ejected replica still received runs")
	}

	// Recovery: two clean probes readmit it.
	r0.healthy.Store(true)
	g.ProbeAll(ctx)
	g.ProbeAll(ctx)
	if got := g.HealthyReplicas(); got != 2 {
		t.Fatalf("healthy replicas after recovery = %d, want 2", got)
	}
	if got := counter(t, g, "gateway.readmissions"); got != 1 {
		t.Fatalf("gateway.readmissions = %d, want 1", got)
	}
}

func TestGatewayShedsWhenPoolDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	g, ts, _ := newTestGateway(t, []string{deadURL}, func(cfg *Config) {
		cfg.EjectAfter = 2
		cfg.MaxAttempts = 1
	})
	g.ProbeAll(context.Background())
	g.ProbeAll(context.Background())

	resp, _ := post(t, ts.URL+"/run", string(loadgen.Corpus(1)[0]))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead pool: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 must carry Retry-After")
	}

	hResp, hBody := post(t, ts.URL+"/healthz", "")
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead pool: %d, want 503", hResp.StatusCode)
	}
	if !strings.Contains(string(hBody), `"unhealthy"`) {
		t.Fatalf("healthz body %s, want status unhealthy", hBody)
	}
}

func TestGatewayHealthzAndDrain(t *testing.T) {
	r0 := okReplica(t, 0)
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL}, nil)

	resp, body := post(t, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s, want 200 ok", resp.StatusCode, body)
	}
	g.BeginDrain()
	resp, body = post(t, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Fatalf("healthz after BeginDrain = %d %s, want 503 draining", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz must carry Retry-After")
	}
}

func TestGatewayTracePropagation(t *testing.T) {
	var gotTrace atomic.Value
	r0 := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		gotTrace.Store(r.Header.Get("X-FFCD-Trace-ID"))
		w.Header().Set("X-FFCD-Cache", "miss")
		fmt.Fprint(w, `{"replica":0}`)
	})
	sink := &traceSink{}
	_, ts, _ := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.Tracer = obs.NewTracer(sink)
	})

	resp, _ := post(t, ts.URL+"/run", string(loadgen.Corpus(1)[0]))
	id := resp.Header.Get("X-FFCD-Trace-ID")
	if _, ok := obs.ParseTraceID(id); !ok {
		t.Fatalf("response trace id %q does not parse", id)
	}
	if got, _ := gotTrace.Load().(string); got != id {
		t.Fatalf("replica saw trace %q, gateway returned %q — identity split", got, id)
	}

	evs := sink.snapshot()
	if len(evs) != 1 || evs[0].Span != "gateway.run" {
		t.Fatalf("span events = %+v, want one gateway.run", evs)
	}
	if evs[0].Trace != id {
		t.Fatalf("span trace %q != response trace %q", evs[0].Trace, id)
	}
	var phases []string
	for _, p := range evs[0].Phases {
		phases = append(phases, p.Name)
	}
	want := []string{"route", "probe", "dispatch", "render"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	if evs[0].Outcome != "miss" {
		t.Fatalf("outcome %q, want miss", evs[0].Outcome)
	}
}

// traceSink collects completed span events (copying the borrowed
// phases) for assertions.
type traceSink struct {
	mu  sync.Mutex
	evs []obs.SpanEvent
}

func (s *traceSink) EmitSpan(ev *obs.SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := *ev
	cp.Phases = append([]obs.PhaseEvent(nil), ev.Phases...)
	s.evs = append(s.evs, cp)
}

func (s *traceSink) snapshot() []obs.SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.SpanEvent(nil), s.evs...)
}

func TestGatewayMetricsEndpoint(t *testing.T) {
	r0 := okReplica(t, 0)
	_, ts, _ := newTestGateway(t, []string{r0.ts.URL}, nil)
	post(t, ts.URL+"/run", string(loadgen.Corpus(1)[0]))

	resp, body := post(t, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var payload map[string]map[string]interface{}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	snap, ok := payload["feedbackflow.gateway"]
	if !ok {
		t.Fatalf("metrics payload missing feedbackflow.gateway: %s", body)
	}
	if v, ok := snap["gateway.requests"].(float64); !ok || v < 1 {
		t.Fatalf("gateway.requests = %v, want >= 1", snap["gateway.requests"])
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=prometheus", nil)
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if !strings.Contains(string(pbody), "gateway_requests") {
		t.Fatalf("prometheus exposition missing gateway_requests:\n%s", pbody)
	}
}

func TestGatewayRecoversFromLostBreakerTrial(t *testing.T) {
	// A half-open trial's outcome can be dropped: the request it rode
	// was cancelled in flight, or another replica's final answer
	// returned dispatch first and the straggler was never read. The
	// breaker must not wedge half-open — after one cooldown with no
	// outcome it admits a replacement probe and the replica rejoins.
	r0 := okReplica(t, 0)
	g, ts, fc := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = time.Second
		cfg.EjectAfter = 100 // keep passive ejection out of this test's way
	})
	doc := loadgen.Corpus(1)[0]

	br := &g.replicas[0].br
	br.failure(g.clock.Now()) // threshold 1: open
	fc.advance(2 * time.Second)
	if !br.allow(g.clock.Now()) {
		t.Fatal("cooldown elapsed but no half-open probe admitted")
	}
	// The trial outcome is never reported. While it is fresh, the
	// single-replica pool has nothing to route to: requests shed.
	resp, _ := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during fresh trial: %d, want 503 shed", resp.StatusCode)
	}
	// One more cooldown with no outcome: the lost trial is replaced by
	// the next request, which succeeds and closes the breaker.
	fc.advance(2 * time.Second)
	resp, body := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after lost trial expired: %d %s, want 200", resp.StatusCode, body)
	}
	if got := counter(t, g, "gateway.breaker_closed"); got != 1 {
		t.Fatalf("gateway.breaker_closed = %d, want 1", got)
	}
}

func TestGatewayRecordsLatencyForUnlistedStatus(t *testing.T) {
	// A replica replying a status with no dedicated histogram (500,
	// 404, ...) must still have its latency recorded — in the "other"
	// catch-all family — not silently dropped.
	var status atomic.Int64
	r0 := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(int(status.Load()))
		fmt.Fprint(w, `{"error":"unwell"}`)
	})
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.BreakerThreshold = 100
		cfg.EjectAfter = 100
	})
	doc := loadgen.Corpus(1)[0]
	for i, code := range []int{http.StatusInternalServerError, http.StatusNotFound} {
		status.Store(int64(code))
		resp, _ := post(t, ts.URL+"/run", string(doc))
		if resp.StatusCode != code {
			t.Fatalf("replica %d not proxied: got %d", code, resp.StatusCode)
		}
		if got := g.latRun[outOther].Count(); got != int64(i+1) {
			t.Fatalf("after proxied %d: gateway.latency.run.other count = %d, want %d", code, got, i+1)
		}
	}
}

func TestGatewayBodyErrorClassification(t *testing.T) {
	r0 := okReplica(t, 0)
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.MaxBodyBytes = 64
	})

	// A body over the cap is 413.
	resp, _ := post(t, ts.URL+"/run", strings.Repeat("x", 200))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d, want 413", resp.StatusCode)
	}
	if got := g.latRun[out413].Count(); got != 1 {
		t.Fatalf("gateway.latency.run.413 count = %d, want 1", got)
	}

	// A client that dies mid-body is not an oversize request: the
	// truncated read is a plain 400, not a 413.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /run HTTP/1.1\r\nHost: gw\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\npartial")
	conn.(*net.TCPConn).CloseWrite() // body ends 93 bytes short
	hresp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response to truncated request: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: %d, want 400", hresp.StatusCode)
	}
	if got := g.latRun[out400].Count(); got != 1 {
		t.Fatalf("gateway.latency.run.400 count = %d, want 1", got)
	}
	if got := g.latRun[out413].Count(); got != 1 {
		t.Fatalf("gateway.latency.run.413 count = %d after truncated body, want still 1", got)
	}
	if got := counter(t, g, "gateway.bad_requests"); got != 2 {
		t.Fatalf("gateway.bad_requests = %d, want 2", got)
	}
	if r0.runs.Load() != 0 {
		t.Fatal("gateway dispatched a request whose body never arrived")
	}
}

// TestGatewayBodyOverCap: a body over MaxBodyBytes is a 413 on /run
// and /batch whether its Content-Length is honest, absent (chunked) or
// understated — the length only sizes the read buffer.
func TestGatewayBodyOverCap(t *testing.T) {
	r0 := okReplica(t, 0)
	g, _, _ := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.MaxBodyBytes = 64
	})
	body := strings.Repeat("x", 200)
	for _, path := range []string{"/run", "/batch"} {
		for _, declared := range []string{"honest", "chunked", "understated"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			switch declared {
			case "chunked":
				req.ContentLength = -1
				req.TransferEncoding = []string{"chunked"}
			case "understated":
				req.ContentLength = 10
			}
			rec := httptest.NewRecorder()
			g.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %s length: status %d, want 413", path, declared, rec.Code)
			}
		}
	}
	if r0.runs.Load() != 0 {
		t.Fatal("gateway dispatched an oversize request")
	}
}

// TestGatewayHealthyReplicasGaugeIsLive: gateway.healthy_replicas and
// the per-replica healthy gauges are derived from the ejection state
// when scraped, so a snapshot taken after an ejection or a readmission
// — with no /healthz request in between — reads them in agreement.
func TestGatewayHealthyReplicasGaugeIsLive(t *testing.T) {
	g, _, _ := newTestGateway(t, []string{"http://r0.invalid", "http://r1.invalid", "http://r2.invalid"}, nil)
	check := func(want float64) {
		t.Helper()
		snap := g.Snapshot()
		sum := 0.0
		for i := range g.replicas {
			sum += snap["gateway.replica."+strconv.Itoa(i)+".healthy"].(float64)
		}
		if got := snap["gateway.healthy_replicas"].(float64); got != want || got != sum {
			t.Fatalf("gateway.healthy_replicas = %v, per-replica sum %v, want %v", got, sum, want)
		}
	}
	check(3)
	for i := 0; i < g.cfg.EjectAfter; i++ {
		g.observeHealth(g.replicas[1], false)
	}
	check(2)
	for i := 0; i < g.cfg.ReadmitAfter; i++ {
		g.observeHealth(g.replicas[1], true)
	}
	check(3)
}

func TestGatewayProbesConcurrently(t *testing.T) {
	// Two replicas whose /healthz handlers each wait for the other's
	// probe to arrive before answering: only concurrent probing within
	// a round lets both answer 200. Serial probing would stall on the
	// first replica until ProbeTimeout and record a probe failure.
	var both sync.WaitGroup
	both.Add(2)
	mkReplica := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			both.Done()
			both.Wait()
			fmt.Fprint(w, `{"status":"ok"}`)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mkReplica(), mkReplica()
	g, _, _ := newTestGateway(t, []string{a.URL, b.URL}, func(cfg *Config) {
		cfg.ProbeTimeout = 5 * time.Second
	})
	g.ProbeAll(context.Background())
	if got := counter(t, g, "gateway.probe_failures"); got != 0 {
		t.Fatalf("gateway.probe_failures = %d, want 0 — probe round looks serial", got)
	}
	if got := g.HealthyReplicas(); got != 2 {
		t.Fatalf("healthy replicas after barrier round = %d, want 2", got)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	fc := newFakeClock()
	base := Config{
		Replicas: []string{"http://a"},
		Client:   &http.Client{},
		Clock:    fc.clock(),
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no replicas": func(c *Config) { c.Replicas = nil },
		"no client":   func(c *Config) { c.Client = nil },
		"no clock":    func(c *Config) { c.Clock = Clock{} },
		"partial clock": func(c *Config) {
			c.Clock = Clock{Now: time.Now}
		},
		"duplicate replicas": func(c *Config) {
			c.Replicas = []string{"http://a", "http://a/"}
		},
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		}
	}
}

func TestGatewayCapsOversizedUpstreamResponse(t *testing.T) {
	// A replica streaming far past MaxResponseBytes must surface as an
	// upstream failure after a bounded read, not be buffered whole.
	big := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		chunk := strings.Repeat("x", 32<<10)
		for i := 0; i < 32; i++ {
			io.WriteString(w, chunk) // 1 MiB total
		}
	})
	g, ts, _ := newTestGateway(t, []string{big.ts.URL}, func(c *Config) {
		c.MaxResponseBytes = 4 << 10
		c.MaxAttempts = 1
	})
	doc := loadgen.Corpus(1)[0]
	resp, body := post(t, ts.URL+"/run", string(doc))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("oversized upstream body: %d, want 502", resp.StatusCode)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Fatalf("error body %q does not name the cap", body)
	}
	if got := counter(t, g, "gateway.requests"); got != 1 {
		t.Fatalf("gateway.requests = %d, want 1", got)
	}
}

func TestGatewayDrainsBodiesAndReusesConnections(t *testing.T) {
	// Leak check: every response path — 200 winners and final non-2xx
	// answers alike — must drain the body so the transport can reuse
	// the upstream connection. ConnState counts accepted connections on
	// the replica; sequential requests over drained bodies need exactly
	// one, while leaked bodies force a fresh dial per request.
	var opened atomic.Int64
	var runs atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		io.Copy(io.Discard, r.Body)
		n := runs.Add(1)
		if n%4 == 0 {
			// A deterministic 4xx with a body: non-retryable, proxied
			// through, and its body still has to be drained.
			w.WriteHeader(http.StatusUnprocessableEntity)
		}
		io.WriteString(w, strings.Repeat("y", 8<<10))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	_, ts, _ := newTestGateway(t, []string{srv.URL}, nil)
	docs := loadgen.Corpus(12)
	for _, doc := range docs {
		resp, _ := post(t, ts.URL+"/run", string(doc))
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("POST /run: unexpected status %d", resp.StatusCode)
		}
	}
	if n := opened.Load(); n > 2 {
		t.Fatalf("replica accepted %d connections for %d sequential requests; bodies leaked instead of drained",
			n, len(docs))
	}
}

func TestProbeDrainIsBounded(t *testing.T) {
	// A misbehaving /healthz that streams an enormous body must not pin
	// the probe: probeOne drains at most maxProbeDrain and moves on,
	// still reading the 200 status as healthy.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, strings.Repeat("z", 4<<20))
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(srv.Close)
	g, _, _ := newTestGateway(t, []string{srv.URL}, nil)
	done := make(chan struct{})
	go func() {
		g.ProbeAll(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ProbeAll hung on an oversized /healthz body")
	}
	if got := counter(t, g, "gateway.probe_failures"); got != 0 {
		t.Fatalf("gateway.probe_fails = %d; oversized-but-200 probe should count healthy", got)
	}
}

// TestGatewayProxiesContentLength: a replica's answer is re-sent with
// its length, so a report over net/http's 2 KiB buffer reaches the
// client unchunked even when the replica chunked it.
func TestGatewayProxiesContentLength(t *testing.T) {
	report := strings.Repeat("r", 8<<10)
	r0 := newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-FFCD-Cache", "miss")
		io.WriteString(w, report) // no Content-Length: chunked
	})
	_, ts, _ := newTestGateway(t, []string{r0.ts.URL}, nil)
	resp, body := post(t, ts.URL+"/run", string(loadgen.Corpus(1)[0]))
	if resp.StatusCode != http.StatusOK || string(body) != report {
		t.Fatalf("proxied answer: %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestReadCapped: the declared length only sizes the buffer. Whatever
// a replica declares — honestly, nothing, too little or too much — the
// body is read whole and the cap binds; an honest length within 64 KiB
// reads in one buffer allocation.
func TestReadCapped(t *testing.T) {
	const max = 48 << 10
	body := strings.Repeat("b", 40<<10)
	n := int64(len(body))
	for _, declared := range []int64{n, -1, 10, 2 * n} {
		got, err := readCapped(strings.NewReader(body), declared, max)
		if err != nil || string(got) != body {
			t.Errorf("declared %d: %d bytes, %v", declared, len(got), err)
		}
		over := strings.Repeat("o", max+1)
		if _, err := readCapped(strings.NewReader(over), declared, max); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("declared %d: over-cap body gave %v", declared, err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := readCapped(strings.NewReader(body), n, max); err != nil {
			t.Fatal(err)
		}
	})
	// The string reader, the limit reader and the buffer.
	if allocs > 3 {
		t.Errorf("honest %d-byte read: %v allocations, want at most 3", n, allocs)
	}
}
