// Package scenariotest holds the shared seed corpus of scenario
// documents: the checked-in scenarios/*.json files plus the malformed
// shapes the loader's regression tests guard. The loader's fuzz
// target, the canonical-form soundness property and the serving
// layer's status-code parity table all run over the same documents.
package scenariotest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// Doc is one named corpus document.
type Doc struct {
	Name string
	Body []byte
}

// seeds are the hand-written corpus entries.
var seeds = []Doc{
	{"trailing-garbage", []byte(`{"name":"x"}!!!`)},
	{"two-documents", []byte(`{"name":"x"} {"name":"y"}`)},
	{"negative-maxsteps", []byte(`{"maxSteps": -1, "gateways": [{"name":"G","mu":1}], "connections": [{"path":["G"]}]}`)},
	{"negative-initial", []byte(`{"initial": [-1], "gateways": [{"name":"G","mu":1}], "connections": [{"path":["G"]}]}`)},
	{"overflowing-mu", []byte(`{"gateways": [{"name":"G","mu":1e999}], "connections": [{"path":["G"]}]}`)},
	{"not-json", []byte(`not json`)},
	{"empty", []byte(``)},
}

// scenarioDir returns the repository's scenarios directory.
func scenarioDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "..", "scenarios")
}

// Files returns every scenarios/*.json document, named by file name
// and sorted.
func Files(tb testing.TB) []Doc {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(scenarioDir(), "*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no scenario files found (%v)", err)
	}
	sort.Strings(paths)
	docs := make([]Doc, len(paths))
	for i, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		docs[i] = Doc{filepath.Base(p), body}
	}
	return docs
}

// Corpus returns the scenario files followed by the seeds.
func Corpus(tb testing.TB) []Doc {
	tb.Helper()
	return append(Files(tb), seeds...)
}

// Hetero returns n heterogeneous discrete scenario documents of 64 to
// 512 connections each, cycling through the four discipline × feedback
// corners on 2–6-gateway parking lots, every connection with its own
// multiplicative-law gain. The documents are a pure function of n, so
// benchmarks over them are comparable across runs.
func Hetero(n int) [][]byte {
	corners := [4][2]string{{"fairshare", "individual"}, {"fifo", "individual"}, {"fairshare", "aggregate"}, {"fifo", "aggregate"}}
	docs := make([][]byte, n)
	for i := range docs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		conns := 64 * (1 + i%8)
		gws := 2 + i%5
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"name":"hetero-%d","discipline":%q,"feedback":%q,"gateways":[`, i, corners[i%4][0], corners[i%4][1])
		for g := 0; g < gws; g++ {
			if g > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name":"g%d","mu":%.4f,"latency":%.3f}`, g, (1+rng.Float64())*float64(conns)/float64(gws), 0.05+0.1*rng.Float64())
		}
		b.WriteString(`],"connections":[`)
		for c := 0; c < conns; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			lo := rng.Intn(gws)
			hi := lo + rng.Intn(gws-lo)
			if c == 0 {
				lo, hi = 0, gws-1
			}
			b.WriteString(`{"path":[`)
			for g := lo; g <= hi; g++ {
				if g > lo {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `"g%d"`, g)
			}
			eta := 1.2 + 0.7*(float64(c)+rng.Float64())/float64(conns)
			fmt.Fprintf(&b, `],"law":{"kind":"multiplicative","eta":%.9f,"bss":%.6f}}`, eta, 0.2+0.6*rng.Float64())
		}
		b.WriteString("]}\n")
		docs[i] = b.Bytes()
	}
	return docs
}
