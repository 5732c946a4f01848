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

// ffcReport runs ffc's -config path on cfgPath and returns the
// -metrics-json file. With trace set, the per-step TSV trace goes to a
// file in dir instead of stderr.
func ffcReport(t *testing.T, dir, cfgPath string, cfg ff.FaultConfig, trace bool) []byte {
	t.Helper()
	out := cfgPath + ".report.json"
	ofl := obsFlags{metricsJSON: out, traceEvery: 1}
	if trace {
		ofl.trace = true
		f, err := os.Create(filepath.Join(dir, "trace.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		stderr := os.Stderr
		os.Stderr = f
		defer func() { os.Stderr = stderr }()
	}
	if err := runConfig(cfgPath, ofl, cfg, "auto"); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends body to url and returns the 200 answer's body.
func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %v %s", url, resp.StatusCode, err, data)
	}
	return data
}

// TestOneAnswerAcrossEntryPoints: for every seed scenario file, a
// population the fluid backend solves, a discrete count=N population
// and one -fault run, ffc -metrics-json's file (with and without
// -trace), ffcd /run's body, a /batch item's report and the in-process
// report are the same bytes, modulo wall_ns. The /batch server is
// separate, so its item is solved, not read from /run's cache.
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
		run{name: "discrete-population", doc: scenariotest.PopulationDoc},
		run{name: "two-bottleneck-fault", doc: scenariotest.Files(t)[1].Body, fault: "seed=3,loss=0.5@50-120,outage=0@150-170"})

	ts := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	defer ts.Close()
	batchTS := httptest.NewServer(serve.New(serve.Config{Workers: 1}).Handler())
	defer batchTS.Close()
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
			body := r.doc
			if r.fault != "" {
				if body, err = json.Marshal(map[string]interface{}{"scenario": json.RawMessage(r.doc), "fault": r.fault}); err != nil {
					t.Fatal(err)
				}
			}
			var batch struct {
				Results []struct {
					Report json.RawMessage `json:"report"`
				} `json:"results"`
			}
			if err := json.Unmarshal(post(t, batchTS.URL+"/batch", []byte(`{"runs": [`+string(body)+`]}`)), &batch); err != nil || len(batch.Results) != 1 {
				t.Fatalf("/batch: %v, %d items", err, len(batch.Results))
			}
			want := wallNS.ReplaceAll(inProcessReport(t, r.doc, r.fault), []byte(`"wall_ns": 0`))
			for name, got := range map[string][]byte{
				"ffc -metrics-json":        ffcReport(t, dir, cfgPath, cfg, false),
				"ffc -metrics-json -trace": ffcReport(t, dir, cfgPath, cfg, true),
				"ffcd /run":                post(t, ts.URL+"/run", body),
				"ffcd /batch item":         batch.Results[0].Report,
			} {
				got, w := wallNS.ReplaceAll(got, []byte(`"wall_ns": 0`)), want
				if name == "ffcd /batch item" {
					// The batch answer nests the report one level
					// deeper, so its indentation differs.
					got, w = compact(t, got), compact(t, want)
				}
				if !bytes.Equal(got, w) {
					t.Errorf("%s differs from the in-process report:\n%s\nwant\n%s", name, got, w)
				}
			}
			if r.name == "discrete-population" {
				// The trace is connection-indexed even where Run
				// iterates each count=N class once.
				trace, err := os.ReadFile(filepath.Join(dir, "trace.tsv"))
				if err != nil {
					t.Fatal(err)
				}
				if head := "# step\tresidual\tr[192]\tb[192]\n"; !bytes.HasPrefix(trace, []byte(head)) {
					t.Errorf("trace starts %.60q, want %q", trace, head)
				}
			}
		})
	}
}

// compact returns the JSON document b without insignificant space.
func compact(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
