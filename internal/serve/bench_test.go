package serve

import (
	"bytes"
	"testing"

	"github.com/nettheory/feedbackflow/internal/fluid"
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
