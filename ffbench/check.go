package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"

	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario"
)

// conservationTol is the relative tolerance of the conservation check
// total_queue = g(utilization) = u/(1−u): the report's total queue is
// a sum of per-connection queues computed by the discipline, so it
// meets the closed form only up to floating-point rounding.
const conservationTol = 1e-9

// reportView is the part of a run report the per-request check reads.
type reportView struct {
	Converged *bool `json:"converged"`
	Gateways  []struct {
		Gateway     int       `json:"gateway"`
		Utilization obs.Float `json:"utilization"`
		TotalQueue  obs.Float `json:"total_queue"`
	} `json:"gateways"`
}

// checkReport checks one run report: it must read converged, and every
// gateway must satisfy the paper's conservation identity
// Q_tot = g(ρ) = ρ/(1−ρ) (Section 2.2): whatever the discipline, the
// total queue depends on the utilization alone.
func checkReport(body []byte) error {
	var r reportView
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("report does not parse: %v", err)
	}
	if r.Converged == nil || !*r.Converged {
		return fmt.Errorf("report does not read converged: true")
	}
	if len(r.Gateways) == 0 {
		return fmt.Errorf("report has no gateways")
	}
	for _, g := range r.Gateways {
		u, q := float64(g.Utilization), float64(g.TotalQueue)
		if !(u >= 0 && u < 1) {
			return fmt.Errorf("gateway %d: utilization %v outside [0, 1)", g.Gateway, u)
		}
		want := u / (1 - u)
		if math.Abs(q-want) > conservationTol*math.Max(1, want) {
			return fmt.Errorf("gateway %d: total_queue %v, g(%v) = %v", g.Gateway, q, u, want)
		}
	}
	return nil
}

var wallNS = regexp.MustCompile(`"wall_ns": [0-9]+`)

// sameModuloWall reports whether two reports are byte-identical once
// their wall_ns fields, the one value a re-solve legitimately changes,
// are blanked.
func sameModuloWall(a, b []byte) bool {
	return bytes.Equal(wallNS.ReplaceAll(a, []byte(`"wall_ns": 0`)), wallNS.ReplaceAll(b, []byte(`"wall_ns": 0`)))
}

// renderInProcess solves doc the way ffcd's default (auto) backend
// does, through the packages' public calls rather than HTTP —
// scenario.Load, then Build → Run → Report, or fluid.FromSpec → Run →
// Report for populations of at least fluid.DefaultThreshold — and
// renders the report as ffcd does.
func renderInProcess(doc []byte) ([]byte, error) {
	sp, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	total, err := sp.TotalConnections()
	if err != nil {
		return nil, err
	}
	var rep *obs.RunReport
	if total >= fluid.DefaultThreshold {
		sys, r0, err := fluid.FromSpec(sp)
		if err != nil {
			return nil, err
		}
		res, err := sys.Run(r0, sp.RunOptions())
		if err != nil {
			return nil, err
		}
		if rep, err = sys.Report(res, sp.Name); err != nil {
			return nil, err
		}
	} else {
		sys, r0, err := sp.Build()
		if err != nil {
			return nil, err
		}
		res, err := sys.Run(r0, sp.RunOptions())
		if err != nil {
			return nil, err
		}
		if rep, err = sys.Report(res, sp.Name); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// afterRun makes the checks that need the timed window to be over. It
// returns the number of sampled requests that failed and the
// run-level failures, which fail the whole run.
func (st *stack) afterRun(win *window) (sampleFailures int, runFailures []string) {
	runFailures = append(runFailures, st.setupFailures...)

	// The cache-verdict signature: the replicas' own counters must
	// match the LRU model exactly (solve-hetero: misses = requests;
	// serve-hot: hits = requests; pool-churn: the seed's counts).
	hits, misses := st.model.counts()
	if int(win.totalScrape.hits) != hits || int(win.totalScrape.misses) != misses {
		runFailures = append(runFailures, fmt.Sprintf("cache counters read %v hits / %v misses, the model expects %d / %d",
			win.totalScrape.hits, win.totalScrape.misses, hits, misses))
	}
	for _, name := range []string{"serve.rejected", "serve.run_errors", "serve.bad_requests"} {
		if v := st.dep.serveCounter(name); v != 0 {
			runFailures = append(runFailures, fmt.Sprintf("%s = %v", name, v))
		}
	}
	for _, name := range []string{"gateway.retries", "gateway.hedges", "gateway.shed", "gateway.upstream_errors", "gateway.bad_requests"} {
		if v := st.dep.gatewayCounter(name); v != 0 {
			runFailures = append(runFailures, fmt.Sprintf("%s = %v", name, v))
		}
	}

	var buf bytes.Buffer
	for _, s := range win.samples {
		doc := st.corpus.doc(s.doc)
		want, err := renderInProcess(doc)
		if err != nil || !sameModuloWall(want, s.body) {
			sampleFailures++
			win.failures = append(win.failures, fmt.Sprintf("document %d: served body differs from the in-process report", s.doc))
			continue
		}
		if st.dep.gw == nil {
			continue
		}
		// Through the gateway the answer must be the home replica's:
		// ask both, back to back, so the replica answers from the entry
		// the gateway's request just used.
		key := st.corpus.key(s.doc, doc)
		owner := st.dep.gw.Ring().Owner(key)
		gs, _, gb, gerr := post(st.http, st.dep.url, doc, &buf)
		viaGateway := append([]byte(nil), gb...)
		rs, _, rb, rerr := post(st.http, "http://"+st.dep.addrs[owner], doc, &buf)
		if gerr != nil || rerr != nil || gs != 200 || rs != 200 || !bytes.Equal(viaGateway, rb) {
			sampleFailures++
			win.failures = append(win.failures, fmt.Sprintf("document %d: gateway answer (status %d, %v) differs from home replica %d's (status %d, %v)",
				s.doc, gs, gerr, owner, rs, rerr))
		}
	}
	return sampleFailures, runFailures
}
