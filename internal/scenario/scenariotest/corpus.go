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

// PopulationDoc is a discrete population document: two count=N
// classes, 128 connections across gateways A and B and 64 on B alone,
// each class sharing one additive law. Its 192 connections stay under
// every automatic fluid threshold, so each entry point solves it on
// the discrete backend, and under Fair Share with individual feedback
// it converges in under a hundred steps.
var PopulationDoc = []byte(`{
  "name": "population-discrete",
  "discipline": "fairshare",
  "feedback": "individual",
  "gateways": [{"name": "A", "mu": 1.0, "latency": 0.1}, {"name": "B", "mu": 2.0, "latency": 0.1}],
  "connections": [
    {"path": ["A", "B"], "count": 128, "law": {"kind": "additive", "eta": 0.004, "bss": 0.3}},
    {"path": ["B"], "count": 64, "law": {"kind": "additive", "eta": 0.006, "bss": 0.4}}
  ],
  "maxSteps": 4000
}
`)

// PopulationFault is the fault spec the population document's
// faulted runs use: feedback loss, then an outage of gateway A.
const PopulationFault = "seed=3,loss=0.5@50-120,outage=0@150-170"

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

// corners are the four discipline × feedback combinations of the
// paper, in the order documents cycle through them.
var corners = [4][2]string{{"fairshare", "individual"}, {"fifo", "individual"}, {"fairshare", "aggregate"}, {"fifo", "aggregate"}}

// Hetero returns n heterogeneous discrete scenario documents of 64 to
// 512 connections each, cycling through the four discipline × feedback
// corners on 2–6-gateway parking lots, every connection with its own
// multiplicative-law gain. The documents are a pure function of n, so
// benchmarks over them are comparable across runs.
func Hetero(n int) [][]byte {
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

// Pool returns a discrete population document in the shape of the
// benchmark's pool workload: one count=N entry per element of counts,
// each a class of identical multiplicative-law sources, on a
// 2–3-gateway parking lot under aggregate feedback. The first class
// crosses every gateway and each other class a contiguous stretch of
// them. The seed draws the discipline, capacities, latencies, routes
// and gains, so a document is a pure function of its arguments.
func Pool(seed int64, counts ...int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	disc := [2]string{"fairshare", "fifo"}[rng.Intn(2)]
	g := 2 + rng.Intn(2)
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":"pool-%d","discipline":%q,"feedback":"aggregate","gateways":[`, seed, disc)
	for a := 0; a < g; a++ {
		if a > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"g%d","mu":%.4f,"latency":%.3f}`, a, 1+rng.Float64(), 0.05+0.1*rng.Float64())
	}
	b.WriteString(`],"connections":[`)
	for c, count := range counts {
		if c > 0 {
			b.WriteByte(',')
		}
		lo, hi := 0, g-1
		if c > 0 {
			lo = rng.Intn(g)
			hi = lo + rng.Intn(g-lo)
		}
		b.WriteString(`{"path":[`)
		for a := lo; a <= hi; a++ {
			if a > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"g%d"`, a)
		}
		fmt.Fprintf(&b, `],"count":%d,"law":{"kind":"multiplicative","eta":%.6f,"bss":0.5}}`, count, 0.8+0.8*rng.Float64())
	}
	b.WriteString("]}\n")
	return b.Bytes()
}

// FluidPool returns fluid-sized population document i of the
// benchmark's pool workload for the given seed: byte for byte the
// odd document 2i+1 of ffbench's pool-churn corpus. It has 2–3
// classes of identical multiplicative-law sources, N = 2¹⁶–2²³ each,
// on a 2–3-gateway parking lot; the first class crosses every gateway
// and each other class a contiguous stretch of them. The structure —
// the discipline × feedback corner (i mod 4), the class and gateway
// counts and the population ladder — is a function of i alone and
// repeats every 128 documents; the seed draws capacities, latencies,
// routes, gains and, under individual feedback, targets.
func FluidPool(seed int64, i int) []byte {
	doc := 2*i + 1
	rng := rand.New(rand.NewSource(seed*1_000_003 + 2*7_919_000_017 + int64(doc)))
	corner := corners[i%4]
	classes := 2 + (doc/8)%2
	g := 2 + (doc/16)%2
	rung := doc / 32
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"name":"pool-%d","discipline":%q,"feedback":%q,"gateways":[`, doc, corner[0], corner[1])
	for a := 0; a < g; a++ {
		if a > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"g%d","mu":%.4f,"latency":%.3f}`, a, 1+rng.Float64(), 0.05+0.1*rng.Float64())
	}
	b.WriteString(`],"connections":[`)
	for c := 0; c < classes; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		lo, hi := 0, g-1
		if c > 0 {
			lo = rng.Intn(g)
			hi = lo + rng.Intn(g-lo)
		}
		b.WriteString(`{"path":[`)
		for a := lo; a <= hi; a++ {
			if a > lo {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"g%d"`, a)
		}
		count := int64(1) << (16 + (rung+3*c)%8)
		eta := 0.8 + 0.8*rng.Float64()
		bss := 0.5
		if corner[1] == "individual" {
			bss = 0.2 + 0.6*rng.Float64()
		}
		fmt.Fprintf(&b, `],"count":%d,"law":{"kind":"multiplicative","eta":%.6f,"bss":%.4f}}`, count, eta, bss)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}
