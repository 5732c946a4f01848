package scenario

import (
	"bytes"
	"testing"

	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// BenchmarkCanonical measures the canonical encoding over
// heterogeneous 64–512-connection specs: into a fresh buffer
// (Canonical) and into a reused one (AppendCanonical, the serving
// path's form, which allocates nothing).
func BenchmarkCanonical(b *testing.B) {
	var specs []*Spec
	for _, doc := range scenariotest.Hetero(16) {
		sp, err := Load(bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, sp)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := specs[i%len(specs)].Canonical(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = specs[i%len(specs)].AppendCanonical(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
