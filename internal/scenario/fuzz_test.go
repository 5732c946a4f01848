package scenario

import (
	"bytes"
	"testing"

	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// FuzzLoad drives the loader — the repository's only untrusted input
// surface — with arbitrary bytes: malformed input must produce an
// error, never a panic, and input that loads must survive Build and
// canonicalize deterministically. Seeded with the shared corpus
// (internal/scenario/scenariotest): the shipped scenario files plus the
// malformed shapes the regression tests guard.
func FuzzLoad(f *testing.F) {
	for _, d := range scenariotest.Corpus(f) {
		f.Add(d.Body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is always fine; panicking is not
		}
		sys, r0, err := spec.Build()
		if err != nil {
			return
		}
		if len(r0) != sys.Network().NumConnections() {
			t.Fatalf("Build returned %d initial rates for %d connections", len(r0), sys.Network().NumConnections())
		}
		// A spec that builds must canonicalize, and deterministically.
		c1, err := spec.Canonical()
		if err != nil {
			t.Fatalf("spec builds but does not canonicalize: %v", err)
		}
		c2, err := spec.Canonical()
		if err != nil || !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization is not deterministic")
		}
	})
}
