package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/status_parity.json from the current server")

// parityFile pins the HTTP status and error text the server answers
// for every seed-corpus document. It was recorded while the front end
// still decoded twice and built every request before the cache
// lookup, so a match proves the single-decode, build-on-miss front
// end answers every one of these documents exactly as before.
const parityFile = "testdata/status_parity.json"

// parityFault is the fault spec of the faulted envelope rows.
const parityFault = "seed=3,loss=0.5@10-40"

// parityOutcome is one row of the table: the HTTP status and error
// text, and for a /batch item the batch's status with the item's own
// error text and outcome ("ok", "400" or "422", read off the server's
// counters).
type parityOutcome struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	Item   string `json:"item,omitempty"`
}

// parityExtra are documents beyond the seed corpus whose answers the
// table also pins: the envelope/bare boundary, and one defect per
// check that both the canonical encoder and Build make.
var parityExtra = []scenariotest.Doc{
	{Name: "extra-unknown-field", Body: []byte(`{"nam":"typo"}`)},
	{Name: "extra-fault-in-bare", Body: []byte(`{"fault":"seed=1","name":"y"}`)},
	{Name: "extra-capital-scenario-key", Body: []byte(`{"Scenario":{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}}`)},
	{Name: "extra-null-scenario", Body: []byte(`{"scenario":null}`)},
	{Name: "extra-null", Body: []byte(`null`)},
	{Name: "extra-no-gateways", Body: []byte(`{"name":"x"}`)},
	{Name: "extra-bad-fault", Body: []byte(`{"scenario":{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]},"fault":"bogus==="}`)},
	{Name: "extra-unknown-envelope-field", Body: []byte(`{"scenario":{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]},"fult":"x"}`)},
	{Name: "extra-unknown-discipline", Body: []byte(`{"discipline":"lifo","gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`)},
	{Name: "extra-unknown-feedback", Body: []byte(`{"feedback":"gossip","gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`)},
	{Name: "extra-unknown-signal", Body: []byte(`{"signal":{"kind":"sigmoid"},"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`)},
	{Name: "extra-unknown-law", Body: []byte(`{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"law":{"kind":"quantum"}}]}`)},
	{Name: "extra-negative-count", Body: []byte(`{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"count":-2}]}`)},
	{Name: "extra-count-over-max", Body: []byte(`{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"count":1099511627777}]}`)},
	{Name: "extra-unknown-gateway", Body: []byte(`{"gateways":[{"name":"G","mu":1}],"connections":[{"path":["H"]}]}`)},
	{Name: "extra-bad-power-signal", Body: []byte(`{"signal":{"kind":"power","k":-1},"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`)},
}

// parityBodies returns every corpus document bare, in an envelope, and
// in an envelope with a fault spec, keyed by document and form.
func parityBodies(t *testing.T) ([]string, map[string]string) {
	var names []string
	bodies := map[string]string{}
	for _, d := range append(scenariotest.Corpus(t), parityExtra...) {
		doc := string(d.Body)
		for _, f := range []struct{ form, body string }{
			{"bare", doc},
			{"envelope", `{"scenario": ` + doc + `}`},
			{"envelope+fault", `{"scenario": ` + doc + `, "fault": "` + parityFault + `"}`},
		} {
			name := d.Name + "/" + f.form
			names = append(names, name)
			bodies[name] = f.body
		}
	}
	return names, bodies
}

// parityPass sends every body through /run and as a one-item /batch
// and returns the observed table.
func parityPass(t *testing.T, s *Server, url string, names []string, bodies map[string]string) map[string]parityOutcome {
	t.Helper()
	counter := func(name string) int64 { return s.Snapshot()[name].(int64) }
	got := map[string]parityOutcome{}
	for _, name := range names {
		body := bodies[name]
		resp, data := post(t, url+"/run", body)
		row := parityOutcome{Status: resp.StatusCode}
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("%s: /run error body %q: %v", name, data, err)
			}
			row.Error = e.Error
		}
		got["run/"+name] = row

		bad, failed := counter("serve.bad_requests"), counter("serve.run_errors")
		resp, data = post(t, url+"/batch", `{"runs": [`+body+`]}`)
		row = parityOutcome{Status: resp.StatusCode}
		var br struct {
			Error   string      `json:"error"`
			Results []batchItem `json:"results"`
		}
		if err := json.Unmarshal(data, &br); err != nil {
			t.Fatalf("%s: /batch body %q: %v", name, data, err)
		}
		switch {
		case resp.StatusCode != http.StatusOK:
			row.Error = br.Error
		case len(br.Results) != 1:
			t.Fatalf("%s: /batch answered %d items for 1", name, len(br.Results))
		default:
			row.Error = br.Results[0].Error
			switch {
			case counter("serve.bad_requests") > bad:
				row.Item = "400"
			case counter("serve.run_errors") > failed:
				row.Item = "422"
			default:
				row.Item = "ok"
			}
		}
		got["batch/"+name] = row
	}
	return got
}

// TestStatusParity sends the whole table to a fresh server twice: the
// first pass finds a cold cache, the second finds every solvable
// document cached. Both passes must reproduce the recorded table.
func TestStatusParity(t *testing.T) {
	names, bodies := parityBodies(t)
	s, ts := newTestServer(t, Config{Workers: 2})
	cold := parityPass(t, s, ts.URL, names, bodies)
	if *updateParity {
		data, err := json.MarshalIndent(cold, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(parityFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(parityFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]parityOutcome
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	warm := parityPass(t, s, ts.URL, names, bodies)
	for pass, got := range map[string]map[string]parityOutcome{"cold": cold, "warm": warm} {
		if len(got) != len(want) {
			t.Errorf("%s: %d rows, recorded %d", pass, len(got), len(want))
		}
		for name, w := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("%s: row %s missing", pass, name)
			} else if g != w {
				t.Errorf("%s: %s = %d %q, recorded %d %q", pass, name, g.Status, g.Error, w.Status, w.Error)
			}
		}
	}
	if !strings.Contains(string(data), `"status": 200`) {
		t.Error("the recorded table has no successful row")
	}
}

// TestUnbuildableIs400WhenQueueFull: Build runs before admission, so
// with every run slot held and the queue full, a document that does
// not build is still a 400 carrying Build's message, on /run and as a
// /batch item — never a 429.
func TestUnbuildableIs400WhenQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	block := make(chan struct{})
	s.testHookSolve = func() { <-block }
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"name":"hold-%d","gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"]}]}`, i)
		go func() {
			if resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body)); err == nil {
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	defer func() {
		close(block)
		<-done
		<-done
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < cap(s.queue) {
		if time.Now().After(deadline) {
			t.Fatal("admission queue never filled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const unbuildable = `{"gateways":[{"name":"A","mu":1},{"name":"B","mu":1}],"connections":[{"path":["A"]}]}`
	const want = "scenario: topology: gateway 1 (B) carries no connections"
	resp, body := post(t, ts.URL+"/run", unbuildable)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Fatalf("unbuildable with a full queue: %d %s, want 400 %q", resp.StatusCode, body, want)
	}
	resp, body = post(t, ts.URL+"/batch", `{"runs": [`+unbuildable+`]}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
		t.Fatalf("unbuildable batch item with a full queue: %d %s", resp.StatusCode, body)
	}
	// A buildable miss is what the full queue refuses.
	if resp, body := post(t, ts.URL+"/run", testScenario); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("buildable miss with a full queue: %d %s, want 429", resp.StatusCode, body)
	}
	snap := s.Snapshot()
	if snap["serve.bad_requests"].(int64) != 2 || snap["serve.rejected"].(int64) != 1 {
		t.Errorf("bad_requests = %v, rejected = %v; want 2 and 1", snap["serve.bad_requests"], snap["serve.rejected"])
	}
}

// TestQueuedMissHoldsNoBuild: a miss that has to wait for a run slot
// keeps only its spec, so a queue full of large discrete documents
// holds no more memory than the running solve's own build.
func TestQueuedMissHoldsNoBuild(t *testing.T) {
	const conns, queued = 1 << 15, 4
	doc := func(i int) string {
		return fmt.Sprintf(`{"name":"big-%d","maxSteps":1,"gateways":[{"name":"G","mu":1}],"connections":[{"path":["G"],"count":%d}]}`, i, conns)
	}
	spec, err := scenario.Load(strings.NewReader(doc(0)))
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	sys, r0, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	one := liveHeap() - base
	runtime.KeepAlive(sys)
	runtime.KeepAlive(r0)

	s, ts := newTestServer(t, Config{Workers: 1, Queue: queued, Backend: BackendDiscrete})
	block := make(chan struct{})
	s.testHookSolve = func() { <-block }
	base = liveHeap()
	done := make(chan struct{}, queued+1)
	for i := 0; i <= queued; i++ {
		go func(body string) {
			if resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body)); err == nil {
				resp.Body.Close()
			}
			done <- struct{}{}
		}(doc(i))
	}
	defer func() {
		close(block)
		for i := 0; i <= queued; i++ {
			<-done
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		held := liveHeap() - base
		if len(s.queue) == cap(s.queue) && held < 2*one {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d tickets taken, %d bytes held; one build is %d bytes, so queued misses hold their builds", len(s.queue), cap(s.queue), held, one)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveHeap returns the bytes of live heap objects after two full
// collections (the second empties sync.Pool victim caches).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestBuildErrorMapsTo400: every path that can receive a build
// failure — the /run leader, a coalesced single-flight waiter (which
// gets the leader's error value), and a /batch item — answers 400.
func TestBuildErrorMapsTo400(t *testing.T) {
	s := New(Config{Workers: 1})
	err := fmt.Errorf("wrapped: %w", &buildError{errors.New("scenario: no gateways")})
	rec := httptest.NewRecorder()
	if out := s.writeRunError(rec, err); out != out400 || rec.Code != http.StatusBadRequest {
		t.Fatalf("writeRunError: outcome %s, status %d; want 400", out, rec.Code)
	}
	var item batchItem
	if out := s.serveBatchItem(context.Background(), []byte(`{"name":"x"}`), &item); out != out400 || item.Error != "scenario: no gateways" {
		t.Fatalf("batch item: outcome %s, error %q; want 400 %q", out, item.Error, "scenario: no gateways")
	}
}
