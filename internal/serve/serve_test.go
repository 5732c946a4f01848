package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/obs"
)

const testScenario = `{
  "name": "two-bottleneck",
  "discipline": "fairshare",
  "feedback": "individual",
  "gateways": [
    {"name": "A", "mu": 1.0, "latency": 0.1},
    {"name": "B", "mu": 2.0, "latency": 0.1}
  ],
  "connections": [
    {"path": ["A", "B"], "law": {"kind": "additive", "eta": 0.05, "bss": 0.5}},
    {"path": ["A"],      "law": {"kind": "additive", "eta": 0.05, "bss": 0.5}},
    {"path": ["B"],      "law": {"kind": "additive", "eta": 0.05, "bss": 0.5}}
  ]
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
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

// TestServeRunCacheHitIsByteIdentical is the serve-smoke contract:
// POST the same scenario twice; the second response must be a cache
// hit and byte-identical to the first.
func TestServeRunCacheHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp1, body1 := post(t, ts.URL+"/run", testScenario)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	if h := resp1.Header.Get("X-FFCD-Cache"); h != "miss" {
		t.Fatalf("first POST cache header = %q, want miss", h)
	}

	resp2, body2 := post(t, ts.URL+"/run", testScenario)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-FFCD-Cache"); h != "hit" {
		t.Fatalf("second POST cache header = %q, want hit", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit is not byte-identical to the original miss")
	}

	var rep obs.RunReport
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatalf("response is not a run report: %v", err)
	}
	if rep.Schema != obs.RunReportSchema || rep.Scenario != "two-bottleneck" || !rep.Converged {
		t.Errorf("report: schema=%q scenario=%q converged=%v", rep.Schema, rep.Scenario, rep.Converged)
	}
}

// TestServeCanonicalization: key order, whitespace, and kind aliases
// hit the same cache entry.
func TestServeCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, body1 := post(t, ts.URL+"/run", testScenario)

	reordered := `{"discipline":"FS","feedback":"individual","name":"two-bottleneck",
	  "connections":[
	    {"law":{"bss":0.5,"eta":0.05,"kind":"ADDITIVE"},"path":["A","B"]},
	    {"law":{"bss":0.5,"eta":0.05,"kind":"additive"},"path":["A"]},
	    {"law":{"bss":0.5,"eta":0.05,"kind":"additive"},"path":["B"]}],
	  "gateways":[{"latency":0.1,"mu":1,"name":"A"},{"latency":0.1,"mu":2,"name":"B"}]}`
	resp, body2 := post(t, ts.URL+"/run", reordered)
	if h := resp.Header.Get("X-FFCD-Cache"); h != "hit" {
		t.Fatalf("reordered spec missed the cache (header %q)", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("reordered spec served different bytes")
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name, body string
	}{
		{"trailing garbage", `{"name":"x"}!!!`},
		{"unknown field", `{"nam":"typo"}`},
		{"no gateways", `{"name":"x"}`},
		{"negative maxSteps", `{"maxSteps":-1,"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"eta":0.1,"bss":0.5}}]}`},
		{"negative initial", `{"initial":[-1],"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"eta":0.1,"bss":0.5}}]}`},
		{"bad fault spec", `{"scenario":{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"eta":0.1,"bss":0.5}}]},"fault":"bogus==="}`},
		{"unknown envelope field", `{"scenario":{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"eta":0.1,"bss":0.5}}]},"fult":"x"}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/run", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", c.name, body)
		}
	}
	if resp, _ := post(t, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after bad requests: %d", resp.StatusCode)
	}
}

// TestServeFaultEnvelope: a scenario+fault envelope runs the
// robustness protocol and the report carries fault and recovery
// sections; the second POST is a hit.
func TestServeFaultEnvelope(t *testing.T) {
	env := fmt.Sprintf(`{"scenario": %s, "fault": "seed=3,loss=0.5@10-40"}`, testScenario)
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := post(t, ts.URL+"/run", env)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault run: %d %s", resp.StatusCode, body)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Fault == nil || rep.Recovery == nil {
		t.Fatalf("fault run report lacks fault/recovery sections: %s", body)
	}
	if rep.Fault.SignalsLost == 0 {
		t.Error("loss fault injected nothing")
	}
	resp2, body2 := post(t, ts.URL+"/run", env)
	if h := resp2.Header.Get("X-FFCD-Cache"); h != "hit" {
		t.Fatalf("second fault POST: header %q, want hit", h)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("fault-run hit is not byte-identical")
	}
	// The same scenario without the fault is a different content
	// address.
	resp3, _ := post(t, ts.URL+"/run", testScenario)
	if h := resp3.Header.Get("X-FFCD-Cache"); h != "miss" {
		t.Fatalf("plain scenario shared the faulted entry (header %q)", h)
	}
}

// TestServeSingleflight: concurrent identical requests solve once.
// Run under -race by make serve-smoke and CI.
func TestServeSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, Queue: 16})
	var solves atomic.Int64
	s.testHookSolve = func() {
		solves.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the flight open so every request coalesces
	}

	const n = 12
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(testScenario))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d saw different bytes", i)
		}
	}
	if got := solves.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d solves, want 1", n, got)
	}
	if snap := s.CacheSnapshot(); snap["runcache.dedup_waits"].(int64) != n-1 {
		t.Errorf("dedup_waits = %v, want %d", snap["runcache.dedup_waits"], n-1)
	}
}

// TestServeBackpressure429: with one worker, no queue, and a blocked
// solve, a second distinct scenario is rejected with 429; after the
// block clears it succeeds.
func TestServeBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	block := make(chan struct{})
	var once sync.Once
	s.testHookSolve = func() { once.Do(func() { <-block }) }

	scen := func(i int) string {
		return fmt.Sprintf(`{"name":"s%d","gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"eta":0.1,"bss":0.5}}]}`, i)
	}

	// Fill the worker and the one queue slot with blocked solves.
	started := make(chan struct{}, 2)
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			started <- struct{}{}
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(scen(i)))
			if err == nil {
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	<-started
	<-started
	// Wait until both in-flight solves occupy the admission queue.
	deadline := time.After(5 * time.Second)
	for {
		if s.Snapshot()["serve.queue_occupancy"].(float64) >= 2 ||
			len(s.queue) == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("admission queue never filled")
		case <-time.After(5 * time.Millisecond):
		}
	}

	resp, body := post(t, ts.URL+"/run", scen(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(block)
	<-done
	<-done
	resp, body = post(t, ts.URL+"/run", scen(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after drain: %d %s", resp.StatusCode, body)
	}
	if n := s.Snapshot()["serve.rejected"].(int64); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}
}

// TestServeBatch: a batch with a hit, a distinct run, and a bad item
// returns per-item results in order.
func TestServeBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	_, _ = post(t, ts.URL+"/run", testScenario) // prime the cache

	other := `{"name":"other","gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"eta":0.1,"bss":0.5}}]}`
	batch := fmt.Sprintf(`{"runs": [%s, %s, {"nam":"typo"}]}`, testScenario, other)
	resp, body := post(t, ts.URL+"/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Schema  string `json:"schema"`
		Results []struct {
			Cache  string          `json:"cache"`
			Report json.RawMessage `json:"report"`
			Error  string          `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != BatchReportSchema {
		t.Errorf("schema = %q", out.Schema)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	if out.Results[0].Cache != "hit" || len(out.Results[0].Report) == 0 {
		t.Errorf("item 0: cache=%q", out.Results[0].Cache)
	}
	if out.Results[1].Cache != "miss" || len(out.Results[1].Report) == 0 {
		t.Errorf("item 1: cache=%q error=%q", out.Results[1].Cache, out.Results[1].Error)
	}
	if out.Results[2].Error == "" || len(out.Results[2].Report) != 0 {
		t.Errorf("item 2 should carry an error, got %+v", out.Results[2])
	}

	// An oversized batch is rejected outright.
	var runs []string
	for i := 0; i < 3; i++ {
		runs = append(runs, testScenario)
	}
	_, ts2 := newTestServer(t, Config{Workers: 2, MaxBatch: 2})
	resp, _ = post(t, ts2.URL+"/batch", fmt.Sprintf(`{"runs":[%s]}`, strings.Join(runs, ",")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400", resp.StatusCode)
	}
}

func TestServeHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, _ = post(t, ts.URL+"/run", testScenario)

	resp, body := post(t, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %q (%v)", body, err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"feedbackflow.serve", "feedbackflow.runcache", "feedbackflow.parallel"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics lacks %q", key)
		}
	}
	var cache map[string]interface{}
	if err := json.Unmarshal(m["feedbackflow.runcache"], &cache); err != nil {
		t.Fatal(err)
	}
	if cache["runcache.misses"].(float64) < 1 {
		t.Errorf("cache misses not counted: %v", cache)
	}
}

// TestServeGracefulShutdownDrainsInflight: cancelling the serve
// context while a solve is in flight lets the request complete with a
// 200 before ListenAndServe returns.
func TestServeGracefulShutdownDrainsInflight(t *testing.T) {
	s := New(Config{Workers: 2})
	inSolve := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookSolve = func() { once.Do(func() { close(inSolve); <-release }) }

	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- s.ListenAndServe(ctx, "127.0.0.1:0", 10*time.Second, func(a net.Addr) { addrc <- a })
	}()
	addr := <-addrc

	reqDone := make(chan error, 1)
	var status int
	var body1 []byte
	go func() {
		resp, err := http.Post("http://"+addr.String()+"/run", "application/json", strings.NewReader(testScenario))
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body1, err = io.ReadAll(resp.Body)
		reqDone <- err
	}()

	<-inSolve // the solve is holding a worker slot
	cancel()  // SIGTERM equivalent: stop accepting, start draining

	select {
	case err := <-served:
		t.Fatalf("server exited before the in-flight run finished: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain", status)
	}
	if len(body1) == 0 {
		t.Fatal("in-flight request got an empty body")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ListenAndServe: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after draining")
	}
}

// TestServeHealthzDrainFlip pins the drain-window status flip: a
// draining daemon must answer /healthz with 503 so a gateway health
// probe stops routing to a replica that is about to disappear, while
// /run keeps serving for the in-flight window.
func TestServeHealthzDrainFlip(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", resp.StatusCode)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining /healthz carries no Retry-After")
	}
	if !strings.Contains(string(body), `"status":"draining"`) {
		t.Errorf("draining /healthz body = %s, want status \"draining\"", body)
	}

	// The flip gates routing, not service: in-flight-window traffic on
	// /run still succeeds while the HTTP server drains.
	if resp, body := post(t, ts.URL+"/run", testScenario); resp.StatusCode != http.StatusOK {
		t.Fatalf("/run during drain window: %d: %s", resp.StatusCode, body)
	}
}

// TestServeTraceIDPropagation pins the end-to-end trace contract: a
// request carrying an upstream X-FFCD-Trace-ID (an ffcgw forwarding
// its span) is served under that identity — the response echoes it and
// the replica's own span event adopts it — while garbage in the header
// is ignored.
func TestServeTraceIDPropagation(t *testing.T) {
	sink := &traceSink{}
	_, ts := newTestServer(t, Config{Workers: 2, Tracer: obs.NewTracer(sink)})

	const upstream = "00c0ffee00c0ffee"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-FFCD-Trace-ID", upstream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-FFCD-Trace-ID"); got != upstream {
		t.Fatalf("propagated trace ID: response header %q, want %q", got, upstream)
	}
	evs := sink.events
	if len(evs) != 1 || evs[0].Trace != upstream {
		t.Fatalf("span events %+v, want exactly one carrying %q", evs, upstream)
	}

	// A malformed inbound ID falls back to a fresh local one.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(testScenario))
	req2.Header.Set("X-FFCD-Trace-ID", "not-a-trace-id!!")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	got := resp2.Header.Get("X-FFCD-Trace-ID")
	if len(got) != 16 || got == upstream {
		t.Fatalf("malformed inbound ID: response header %q, want a fresh 16-hex ID", got)
	}

	// With tracing off, a propagated ID is still echoed (the gateway's
	// identity survives the replica) even though no span is recorded.
	_, ts2 := newTestServer(t, Config{Workers: 2})
	req3, _ := http.NewRequest(http.MethodPost, ts2.URL+"/run", strings.NewReader(testScenario))
	req3.Header.Set("X-FFCD-Trace-ID", upstream)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get("X-FFCD-Trace-ID"); got != upstream {
		t.Fatalf("tracing-off echo: response header %q, want %q", got, upstream)
	}
}

// TestCanonicalKeyMatchesCache pins the gateway routing contract:
// CanonicalKey over equivalent request bodies (key order, whitespace,
// bare vs envelope form) yields one key, distinct scenarios yield
// distinct keys, and garbage is rejected with the same strictness as
// POST /run.
func TestCanonicalKeyMatchesCache(t *testing.T) {
	k1, err := CanonicalKey([]byte(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	// Same scenario, reformatted and envelope-wrapped.
	var spec map[string]interface{}
	if err := json.Unmarshal([]byte(testScenario), &spec); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(compact)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := CanonicalKey([]byte(`{"scenario": ` + testScenario + `}`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || k1 != k3 {
		t.Fatal("equivalent bodies produced distinct canonical keys")
	}
	// A fault spec joins the address; a distinct scenario moves it.
	kf, err := CanonicalKey([]byte(`{"scenario": ` + testScenario + `, "fault": "seed=3,loss=0.5@10-20"}`))
	if err != nil {
		t.Fatal(err)
	}
	if kf == k1 {
		t.Fatal("fault spec did not change the canonical key")
	}
	if _, err := CanonicalKey([]byte(`{"name": 42}`)); err == nil {
		t.Fatal("CanonicalKey accepted an invalid scenario")
	}
}

// fluidScenario is a counted population large enough to cross a small
// fluid threshold without materializing anything.
const fluidScenario = `{
  "name": "big-pop",
  "gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}],
  "connections": [
    {"path": ["A"], "count": 6, "law": {"kind": "additive", "eta": 0.01, "bss": 0.3}}
  ]
}`

// TestServeBackendSelection pins the backend routing matrix: auto
// stays discrete below the threshold, switches to fluid at it, falls
// back to discrete for faulted requests; a forced fluid backend
// rejects fault envelopes; and the backend label keeps the two
// report shapes under distinct cache keys.
func TestServeBackendSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, FluidThreshold: 4})

	// Small population: auto resolves discrete, report stays v1-plain.
	resp, body := post(t, ts.URL+"/run", testScenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("discrete run: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-FFCD-Backend"); h != BackendDiscrete {
		t.Fatalf("small population backend header = %q, want discrete", h)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "" {
		t.Fatalf("discrete report backend = %q, want empty", rep.Backend)
	}

	// Counted population past the threshold: auto resolves fluid.
	resp, body = post(t, ts.URL+"/run", fluidScenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fluid run: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-FFCD-Backend"); h != BackendFluid {
		t.Fatalf("large population backend header = %q, want fluid", h)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Backend != BackendFluid || rep.Population != 6 || len(rep.ClassWeights) != 1 {
		t.Fatalf("fluid report: backend=%q population=%d classes=%d",
			rep.Backend, rep.Population, len(rep.ClassWeights))
	}
	if !rep.Converged {
		t.Fatal("fluid run did not converge")
	}

	// The same large population with a fault spec: auto falls back to
	// the discrete backend (fault injection is per-connection).
	faulted := fmt.Sprintf(`{"scenario": %s, "fault": "seed=3,loss=0.5@10-40"}`, fluidScenario)
	resp, body = post(t, ts.URL+"/run", faulted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted run: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-FFCD-Backend"); h != BackendDiscrete {
		t.Fatalf("faulted backend header = %q, want discrete", h)
	}

	// A forced-fluid server rejects fault envelopes outright.
	_, tsFluid := newTestServer(t, Config{Workers: 2, Backend: BackendFluid})
	resp, body = post(t, tsFluid.URL+"/run", faulted)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forced fluid + fault: %d %s, want 400", resp.StatusCode, body)
	}
	resp, _ = post(t, tsFluid.URL+"/run", testScenario)
	if h := resp.Header.Get("X-FFCD-Backend"); h != BackendFluid {
		t.Fatalf("forced fluid backend header = %q", h)
	}

	// Backend participates in the content address: the same canonical
	// spec under the two backends must key different cache entries.
	d, err := parseRunRequest([]byte(fluidScenario), nil, BackendDiscrete, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseRunRequest([]byte(fluidScenario), nil, BackendFluid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.key == f.key {
		t.Fatal("discrete and fluid requests share a cache key")
	}
}

// TestIdleGatewayRejectedOnEveryBackend: a gateway no connection
// crosses is a modelling error on either backend. Below and above the
// fluid threshold, under every -backend choice, CanonicalKey and
// POST /run reject it with the same message.
func TestIdleGatewayRejectedOnEveryBackend(t *testing.T) {
	const want = "scenario: topology: gateway 1 (B) carries no connections"
	for _, count := range []int{10, 70000} {
		doc := fmt.Sprintf(`{
			"gateways": [{"name": "A", "mu": 1}, {"name": "B", "mu": 1}],
			"connections": [{"path": ["A"], "count": %d, "law": {"eta": 0.001, "bss": 0.5}}]
		}`, count)
		if _, err := CanonicalKey([]byte(doc)); err == nil || err.Error() != want {
			t.Errorf("count %d: CanonicalKey error %v, want %q", count, err, want)
		}
		for _, backend := range []string{BackendDiscrete, BackendFluid, BackendAuto} {
			_, ts := newTestServer(t, Config{Workers: 1, Backend: backend})
			resp, body := post(t, ts.URL+"/run", doc)
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); resp.StatusCode != http.StatusBadRequest || err != nil || e.Error != want {
				t.Errorf("count %d, backend %s: %d %s, want 400 %q", count, backend, resp.StatusCode, body, want)
			}
		}
	}
}
