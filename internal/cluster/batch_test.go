package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/nettheory/feedbackflow/internal/loadgen"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// batchReplica is a stub ffcd /batch: it parses the envelope and
// answers each item with a miss verdict and the item's own document
// echoed as its report — so reassembly order is checkable end to end.
func batchReplica(t *testing.T, idx int) *stubReplica {
	t.Helper()
	return newStubReplica(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/batch" {
			http.NotFound(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var env struct {
			Runs []json.RawMessage `json:"runs"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		items := make([]batchItem, len(env.Runs))
		for j, raw := range env.Runs {
			items[j] = batchItem{Cache: "miss", Report: raw}
		}
		json.NewEncoder(w).Encode(struct {
			Schema  string      `json:"schema"`
			Results []batchItem `json:"results"`
		}{serve.BatchReportSchema, items})
	})
}

func postBatch(t *testing.T, url string, runs []json.RawMessage) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(struct {
		Runs []json.RawMessage `json:"runs"`
	}{runs})
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url+"/batch", string(body))
}

func TestGatewayBatchFanoutReassemblesInOrder(t *testing.T) {
	r0, r1 := batchReplica(t, 0), batchReplica(t, 1)
	g, ts, _ := newTestGateway(t, []string{r0.ts.URL, r1.ts.URL}, nil)

	docs := loadgen.Corpus(12)
	runs := make([]json.RawMessage, 0, len(docs)+1)
	for _, d := range docs {
		runs = append(runs, json.RawMessage(d))
	}
	// One unaddressable item (an unknown field) in the middle: a
	// per-item error, never a batch failure.
	runs = append(runs[:6], append([]json.RawMessage{json.RawMessage(`{"nam":"junk"}`)}, runs[6:]...)...)

	resp, body := postBatch(t, ts.URL, runs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Schema  string      `json:"schema"`
		Results []batchItem `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("batch response: %v\n%s", err, body)
	}
	if out.Schema != serve.BatchReportSchema {
		t.Fatalf("schema %q, want %q — gateway broke envelope compatibility", out.Schema, serve.BatchReportSchema)
	}
	if len(out.Results) != len(runs) {
		t.Fatalf("%d results for %d runs", len(out.Results), len(runs))
	}
	for i, item := range out.Results {
		if i == 6 {
			if item.Error == "" {
				t.Fatalf("item 6 (unaddressable) has no error: %+v", item)
			}
			continue
		}
		if item.Error != "" {
			t.Fatalf("item %d errored: %s", i, item.Error)
		}
		if item.Cache != "miss" {
			t.Fatalf("item %d cache %q; per-item attribution lost", i, item.Cache)
		}
		if !bytes.Equal(compactJSON(t, item.Report), compactJSON(t, runs[i])) {
			t.Fatalf("item %d report is not item %d's document — order scrambled", i, i)
		}
	}
	if r0.runs.Load() == 0 || r1.runs.Load() == 0 {
		t.Fatalf("batch was not sharded: replica loads %d/%d", r0.runs.Load(), r1.runs.Load())
	}
	if got := counter(t, g, "gateway.batch_items"); got != int64(len(runs)) {
		t.Fatalf("gateway.batch_items = %d, want %d", got, len(runs))
	}
	if got := counter(t, g, "gateway.misses"); got != int64(len(docs)) {
		t.Fatalf("gateway.misses = %d, want %d per-item misses", got, len(docs))
	}
}

func TestGatewayBatchSurvivesDeadReplica(t *testing.T) {
	r1 := batchReplica(t, 1)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	g, ts, _ := newTestGateway(t, []string{deadURL, r1.ts.URL}, nil)

	docs := loadgen.Corpus(12)
	runs := make([]json.RawMessage, len(docs))
	homedOnDead := 0
	for i, d := range docs {
		runs[i] = json.RawMessage(d)
		key, err := serve.CanonicalKey(d)
		if err != nil {
			t.Fatal(err)
		}
		if g.Ring().Owner(key) == 0 {
			homedOnDead++
		}
	}
	if homedOnDead == 0 {
		t.Fatal("no batch item homed on the dead replica; test proves nothing")
	}

	resp, body := postBatch(t, ts.URL, runs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead replica: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Results []batchItem `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Results {
		if item.Error != "" {
			t.Fatalf("item %d failed: %s — dead shard must fail over, not error", i, item.Error)
		}
	}
	if got := counter(t, g, "gateway.retries"); got == 0 {
		t.Fatal("dead shard produced no retries; failover did not engage")
	}
}

func TestGatewayBatchRejectsMalformedEnvelope(t *testing.T) {
	r0 := batchReplica(t, 0)
	_, ts, _ := newTestGateway(t, []string{r0.ts.URL}, func(cfg *Config) {
		cfg.MaxBatch = 4
	})
	for name, body := range map[string]string{
		"not json":   `{"runs": [`,
		"empty":      `{"runs": []}`,
		"over limit": `{"runs": [{},{},{},{},{}]}`,
	} {
		resp, _ := post(t, ts.URL+"/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, resp.StatusCode)
		}
	}
}

func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %s: %v", raw, err)
	}
	return buf.Bytes()
}
