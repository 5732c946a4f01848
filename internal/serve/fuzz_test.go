package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// FuzzRunRequest drives POST /run with arbitrary bodies, seeded with
// the shared corpus bare, in an envelope and in an envelope with a
// fault. Decoding must never panic, the answer must be 200, 400 or 422,
// and the cache must hold exactly the answers that solved — so every
// cached key's body built, which is what lets a hit skip Build.
// Documents too large to solve quickly are only decoded.
func FuzzRunRequest(f *testing.F) {
	for _, d := range scenariotest.Corpus(f) {
		doc := string(d.Body)
		f.Add(doc)
		f.Add(`{"scenario": ` + doc + `}`)
		f.Add(`{"scenario": ` + doc + `, "fault": "seed=3,loss=0.5@10-40"}`)
	}
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body string) {
		req, parseErr := parseRunRequest([]byte(body), nil, s.cfg.Backend, s.cfg.FluidThreshold)
		if parseErr == nil && !cheapToSolve(req.doc.Spec()) {
			return
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if parseErr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d: %q", rec.Code, body)
			}
			return
		}
		_, cached := s.cache.Get(req.key)
		_, buildErr := req.build()
		switch {
		case rec.Code == http.StatusOK && (!cached || buildErr != nil):
			t.Fatalf("200 for %q, but cached=%v build error=%v", body, cached, buildErr)
		case rec.Code != http.StatusOK && cached:
			t.Fatalf("%d for %q, yet its key is cached", rec.Code, body)
		case rec.Code == http.StatusBadRequest && buildErr == nil:
			t.Fatalf("400 for a decodable, buildable body %q: %s", body, rec.Body)
		}
	})
}

// cheapToSolve bounds what the fuzz target solves: small populations
// and step budgets, so no input stalls the fuzzer.
func cheapToSolve(sp *scenario.Spec) bool {
	n, err := sp.TotalConnections()
	return err == nil && n <= 64 && len(sp.Gateways) <= 16 && sp.MaxSteps <= 5000
}
