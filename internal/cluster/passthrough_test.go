package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/nettheory/feedbackflow/internal/serve"
)

// TestGatewayPassesReplica400Through: a document that decodes — so it
// has a content address and is routed — but does not build is
// rejected by its replica, and the gateway proxies that 400 verbatim
// on /run and as the item's error on /batch. A client's bad document
// is not the replica's failure: the breaker stays closed, and nothing
// is retried, hedged or counted as an upstream error.
func TestGatewayPassesReplica400Through(t *testing.T) {
	replica := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	t.Cleanup(replica.Close)
	g, ts, _ := newTestGateway(t, []string{replica.URL}, nil)

	const unbuildable = `{"name":"idle","gateways":[{"name":"A","mu":1},{"name":"B","mu":1}],"connections":[{"path":["A"]}]}`
	if _, err := serve.CanonicalKey([]byte(unbuildable)); err != nil {
		t.Fatalf("the document must be addressable: %v", err)
	}
	direct, want := post(t, replica.URL+"/run", unbuildable)
	if direct.StatusCode != http.StatusBadRequest {
		t.Fatalf("replica answered %d %s, want 400", direct.StatusCode, want)
	}

	// More requests than the breaker threshold: 400s must not trip it.
	for i := 0; i < 2*g.cfg.BreakerThreshold; i++ {
		resp, body := post(t, ts.URL+"/run", unbuildable)
		if resp.StatusCode != http.StatusBadRequest || string(body) != string(want) {
			t.Fatalf("request %d: gateway answered %d %s, want the replica's 400 %s", i, resp.StatusCode, body, want)
		}
	}

	var wantErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(want, &wantErr); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/batch", `{"runs": [`+unbuildable+`, {"gateways":[{"name":"A","mu":1}],"connections":[{"path":["A"]}]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Results []batchItem `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Error != wantErr.Error || out.Results[1].Error != "" {
		t.Fatalf("batch items %+v, want the replica's error %q then a report", out.Results, wantErr.Error)
	}

	for _, name := range []string{"gateway.retries", "gateway.hedges", "gateway.upstream_errors", "gateway.breaker_opened", "gateway.bad_requests"} {
		if got := counter(t, g, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if state := g.Snapshot()["gateway.replica.0.breaker"]; state != float64(breakerClosed) {
		t.Errorf("replica breaker state %v, want closed", state)
	}
}
