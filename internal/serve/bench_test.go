package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// BenchmarkParseRunRequest measures the cache-hit front end — decode,
// canonical bytes, fault spec, backend resolution and the content
// address — over heterogeneous 64–512-connection documents, sent bare,
// wrapped in a fault-carrying envelope, and bare with a trailing
// "MaxSteps": a key-case variant the scenario fast path declines only
// at the end of the body, so the case pays its whole pass and then
// encoding/json's.
func BenchmarkParseRunRequest(b *testing.B) {
	bare := scenariotest.Hetero(16)
	envelopes := make([][]byte, len(bare))
	declined := make([][]byte, len(bare))
	for i, doc := range bare {
		envelopes[i] = append(append([]byte(`{"fault": "loss=0.1,seed=3", "scenario": `), doc...), '}')
		declined[i] = append(bytes.TrimSuffix(bytes.Clone(doc), []byte("}\n")), `,"MaxSteps":5000}`...)
	}
	for _, c := range []struct {
		name string
		docs [][]byte
	}{{"bare", bare}, {"envelope", envelopes}, {"declined", declined}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parseRunRequest(c.docs[i%len(c.docs)], nil, BackendAuto, fluid.DefaultThreshold); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// heteroReports solves the scenariotest.Hetero(16) documents to
// convergence once per process (seconds of work, which the benchmark
// framework would otherwise repeat for every b.N it tries), checking
// that each report renders to json.MarshalIndent's bytes.
var heteroReports = sync.OnceValues(func() ([]*obs.RunReport, error) {
	var reps []*obs.RunReport
	for _, doc := range scenariotest.Hetero(16) {
		req, err := parseRunRequest(doc, nil, BackendAuto, fluid.DefaultThreshold)
		if err != nil {
			return nil, err
		}
		c, err := req.build()
		if err != nil {
			return nil, err
		}
		res, err := c.sys.Run(c.r0, req.doc.Spec().RunOptions())
		if err != nil {
			return nil, err
		}
		rep, err := c.sys.Report(res, req.doc.Spec().Name)
		if err != nil {
			return nil, err
		}
		want, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(renderReport(rep), append(want, '\n')) {
			return nil, fmt.Errorf("%s: rendered report differs from json.MarshalIndent", req.doc.Spec().Name)
		}
		reps = append(reps, rep)
	}
	return reps, nil
})

var renderSink []byte

// BenchmarkRenderReport measures the render phase of a discrete miss:
// a solved 64–512-connection report to the bytes the cache keeps.
func BenchmarkRenderReport(b *testing.B) {
	reps, err := heteroReports()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderSink = renderReport(reps[i%len(reps)])
	}
}
