package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	ff "github.com/nettheory/feedbackflow"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// populationDoc is large enough (4·10⁵ connections) that ffc's and
// ffcd's automatic backend choice both take the fluid solver.
const populationDoc = `{
  "name": "population",
  "gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}, {"name": "B", "mu": 2.0, "latency": 0.1}],
  "connections": [
    {"path": ["A", "B"], "count": 300000, "law": {"kind": "additive", "eta": 1e-7, "bss": 0.3}},
    {"path": ["A"], "count": 100000, "law": {"kind": "additive", "eta": 1e-7, "bss": 0.4}}
  ]
}`

var wallNS = regexp.MustCompile(`"wall_ns": -?[0-9]+`)

// inProcessReport solves doc through the library API, as an embedding
// program would, and renders its report.
func inProcessReport(t *testing.T, doc []byte, faultSpec string) []byte {
	t.Helper()
	spec, err := ff.LoadScenario(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var rep *obs.RunReport
	if total, err := spec.TotalConnections(); err != nil {
		t.Fatal(err)
	} else if total >= fluid.DefaultThreshold && faultSpec == "" {
		fsys, r0, err := fluid.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fsys.Run(r0, spec.RunOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep, err = fsys.Report(res, spec.Name); err != nil {
			t.Fatal(err)
		}
	} else {
		sys, r0, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ff.ParseFaultSpec(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Enabled() {
			res, err := sys.Run(r0, spec.RunOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep, err = sys.Report(res, spec.Name); err != nil {
				t.Fatal(err)
			}
		} else {
			res, err := ff.RunPerturbed(sys, r0, cfg, spec.RunOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep, err = sys.Report(res.Perturbed, spec.Name); err != nil {
				t.Fatal(err)
			}
			res.Attach(rep)
		}
	}
	return append(rep.AppendJSON(nil), '\n')
}

// TestOneAnswerAcrossEntryPoints: for every seed scenario file, a
// population the fluid backend solves and one -fault run, ffc
// -metrics-json's file, ffcd /run's body and the in-process report are
// the same bytes, modulo wall_ns.
func TestOneAnswerAcrossEntryPoints(t *testing.T) {
	type run struct {
		name  string
		doc   []byte
		fault string
	}
	var runs []run
	for _, d := range scenariotest.Files(t) {
		runs = append(runs, run{name: d.Name, doc: d.Body})
	}
	runs = append(runs,
		run{name: "fluid-population", doc: []byte(populationDoc)},
		run{name: "two-bottleneck-fault", doc: scenariotest.Files(t)[1].Body, fault: "seed=3,loss=0.5@50-120,outage=0@150-170"})

	ts := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	defer ts.Close()
	dir := t.TempDir()
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfgPath := filepath.Join(dir, r.name+".json")
			if err := os.WriteFile(cfgPath, r.doc, 0o666); err != nil {
				t.Fatal(err)
			}
			cfg, err := ff.ParseFaultSpec(r.fault)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(dir, r.name+".report.json")
			if err := runConfig(cfgPath, obsFlags{metricsJSON: out, traceEvery: 1}, cfg, "auto"); err != nil {
				t.Fatal(err)
			}
			fromFFC, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}

			body := r.doc
			if r.fault != "" {
				if body, err = json.Marshal(map[string]interface{}{"scenario": json.RawMessage(r.doc), "fault": r.fault}); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			fromFFCD, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/run: %d %v %s", resp.StatusCode, err, fromFFCD)
			}

			want := wallNS.ReplaceAll(inProcessReport(t, r.doc, r.fault), []byte(`"wall_ns": 0`))
			for name, got := range map[string][]byte{"ffc -metrics-json": fromFFC, "ffcd /run": fromFFCD} {
				if got = wallNS.ReplaceAll(got, []byte(`"wall_ns": 0`)); !bytes.Equal(got, want) {
					t.Errorf("%s differs from the in-process report:\n%s\nwant\n%s", name, got, want)
				}
			}
		})
	}
}
