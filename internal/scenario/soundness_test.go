package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// A cache hit skips Build. That is sound only if the canonical bytes
// capture everything Build and fluid.FromSpec read: two specs with
// equal canonical bytes must both build or both fail, with the same
// error text, on each backend. These tests pin that property over the
// shared corpus, variants of it that must canonicalize equal, and
// targeted pairs at every normalization the encoding performs.

// outcome is what a backend makes of a spec: "ok" plus the initial
// rates, population, step budget and report name, or the error text.
func outcome(sp *scenario.Spec, backend string) string {
	var (
		r0  []float64
		pop float64
		err error
	)
	if backend == "fluid" {
		var sys *fluid.System
		if sys, r0, err = fluid.FromSpec(sp); err == nil {
			pop = sys.Population()
		}
	} else {
		sys, r, berr := sp.Build()
		if r0, err = r, berr; err == nil {
			pop = float64(sys.Network().NumConnections())
		}
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("ok %v %v %d %q", r0, pop, sp.RunOptions().MaxSteps, sp.Name)
}

// checkSound asserts the property for one pair: when the canonical
// bytes agree, so does every backend's outcome. It reports whether
// the bytes agree; a spec that does not canonicalize has no key, so
// two such specs count as agreeing (no cache entry can mix them up).
func checkSound(t *testing.T, name string, a, b *scenario.Spec) (sameCanon bool) {
	t.Helper()
	ca, errA := a.Canonical()
	cb, errB := b.Canonical()
	if errA != nil || errB != nil {
		return errA != nil && errB != nil
	}
	if !bytes.Equal(ca, cb) {
		return false
	}
	for _, backend := range []string{"discrete", "fluid"} {
		if oa, ob := outcome(a, backend), outcome(b, backend); oa != ob {
			t.Errorf("%s: equal canonical bytes, different %s outcomes:\n%.300s\nvs\n%.300s", name, backend, oa, ob)
		}
	}
	return true
}

func load(t *testing.T, js string) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Load(strings.NewReader(js))
	if err != nil {
		t.Fatalf("Load(%s): %v", js, err)
	}
	return sp
}

// variants returns respellings of sp that must canonicalize equal to
// it: a JSON round trip (key order, whitespace), upper-cased kinds,
// defaults spelled out, unconsumed law and signal parameters set, and
// count 0 and 1 swapped.
func variants(t *testing.T, sp *scenario.Spec) map[string]*scenario.Spec {
	t.Helper()
	clone := func() *scenario.Spec {
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		return load(t, string(data))
	}
	out := map[string]*scenario.Spec{"round-trip": clone()}

	upper := clone()
	upper.Discipline = strings.ToUpper(upper.Discipline)
	upper.Feedback = strings.ToUpper(upper.Feedback)
	upper.Signal.Kind = strings.ToUpper(upper.Signal.Kind)
	for i := range upper.Connections {
		upper.Connections[i].Law.Kind = strings.ToUpper(upper.Connections[i].Law.Kind)
	}
	out["upper-case kinds"] = upper

	spelled := clone()
	for kind, def := range map[*string]string{&spelled.Discipline: "fairshare", &spelled.Feedback: "individual", &spelled.Signal.Kind: "rational"} {
		if *kind == "" {
			*kind = def
		}
	}
	if strings.EqualFold(spelled.Discipline, "fs") {
		spelled.Discipline = "fairshare"
	}
	for i := range spelled.Connections {
		if spelled.Connections[i].Law.Kind == "" {
			spelled.Connections[i].Law.Kind = "additive"
		}
	}
	out["defaults spelled out"] = spelled

	junk := clone()
	switch strings.ToLower(junk.Signal.Kind) {
	case "", "rational":
		junk.Signal.K, junk.Signal.Theta, junk.Signal.Threshold = 7, 7, 7
	case "power":
		junk.Signal.Theta, junk.Signal.Threshold = 7, 7
	}
	for i := range junk.Connections {
		law := &junk.Connections[i].Law
		switch strings.ToLower(law.Kind) {
		case "", "additive", "multiplicative":
			law.Beta, law.P = 7, 7
		case "fairrate", "window":
			law.BSS, law.P = 7, 7
		case "power":
			law.Beta = 7
		}
	}
	out["unconsumed parameters"] = junk

	counts := clone()
	for i := range counts.Connections {
		switch counts.Connections[i].Count {
		case 0:
			counts.Connections[i].Count = 1
		case 1:
			counts.Connections[i].Count = 0
		}
	}
	out["count 0 and 1 swapped"] = counts
	return out
}

func TestCanonicalSoundOverCorpus(t *testing.T) {
	docs := scenariotest.Corpus(t)
	for i, d := range scenariotest.Hetero(4) {
		docs = append(docs, scenariotest.Doc{Name: fmt.Sprintf("hetero-%d", i), Body: d})
	}
	checked := 0
	for _, d := range docs {
		sp, err := scenario.Load(bytes.NewReader(d.Body))
		if err != nil {
			continue
		}
		for vname, v := range variants(t, sp) {
			if !checkSound(t, d.Name+"/"+vname, sp, v) {
				t.Errorf("%s/%s: a respelling canonicalizes differently", d.Name, vname)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no corpus document loaded")
	}
}

func TestCanonicalSoundTargetedPairs(t *testing.T) {
	const gw = `"gateways":[{"name":"A","mu":1,"latency":0.1},{"name":"B","mu":2}]`
	conn := func(extra string) string {
		return `"connections":[{"path":["A","B"],"law":{"kind":"additive","eta":0.1,"bss":0.5}` + extra + `}]`
	}
	cases := []struct {
		name string
		a, b string
		same bool // whether the canonical bytes agree (or both fail)
	}{
		{"key case and order", `{"name":"n",` + gw + `,` + conn("") + `}`,
			`{"CONNECTIONS":[{"LAW":{"BSS":0.5,"Eta":0.1,"kind":"additive"},"Path":["A","B"]}],"Gateways":[{"Mu":1,"name":"A","latency":0.1},{"mu":2,"name":"B"}],"NAME":"n"}`, true},
		{"discipline alias", `{"discipline":"fs",` + gw + `,` + conn("") + `}`, `{"discipline":"FairShare",` + gw + `,` + conn("") + `}`, true},
		{"feedback default", `{` + gw + `,` + conn("") + `}`, `{"feedback":"Individual",` + gw + `,` + conn("") + `}`, true},
		{"signal default", `{"signal":{"k":3},` + gw + `,` + conn("") + `}`, `{"signal":{"kind":"rational"},` + gw + `,` + conn("") + `}`, true},
		{"law default", `{` + gw + `,"connections":[{"path":["A"],"law":{"eta":0.1,"bss":0.5}}]}`,
			`{` + gw + `,"connections":[{"path":["A"],"law":{"kind":"ADDITIVE","eta":0.1,"bss":0.5,"beta":3,"p":9}}]}`, true},
		{"dropped fairrate bss", `{` + gw + `,"connections":[{"path":["A"],"law":{"kind":"fairrate","eta":0.1,"beta":0.5}}]}`,
			`{` + gw + `,"connections":[{"path":["A"],"law":{"kind":"fairrate","eta":0.1,"beta":0.5,"bss":4}}]}`, true},
		{"power law p is consumed", `{` + gw + `,"connections":[{"path":["A"],"law":{"kind":"power","eta":0.1,"bss":0.5,"p":2}}]}`,
			`{` + gw + `,"connections":[{"path":["A"],"law":{"kind":"power","eta":0.1,"bss":0.5,"p":3}}]}`, false},
		{"duplicate gateway name", `{"gateways":[{"name":"A","mu":1},{"name":"A","mu":1}],` + conn("") + `}`,
			`{"connections":[{"path":["A","B"],"law":{"bss":0.5,"eta":0.1}}],"gateways":[{"mu":1,"name":"A"},{"mu":1,"name":"A"}]}`, true},
		{"unknown gateway name", `{` + gw + `,"connections":[{"path":["A","C"]}]}`, `{` + gw + `,"connections":[{"path":["A","C"],"count":1}]}`, true},
		{"empty gateway name", `{"gateways":[{"name":"","mu":1}],"connections":[{"path":[""]}]}`, `{"connections":[{"path":[""],"count":0}],"gateways":[{"mu":1,"name":""}]}`, true},
		{"initial length mismatch", `{` + gw + `,` + conn("") + `,"initial":[0.1,0.2]}`, `{"initial":[0.1,0.2],` + gw + `,` + conn(`,"count":1`) + `}`, true},
		{"negative initial", `{` + gw + `,` + conn("") + `,"initial":[-1]}`, `{"initial":[-1],` + gw + `,` + conn("") + `}`, true},
		{"count 0 and 1", `{` + gw + `,` + conn(`,"count":0`) + `}`, `{` + gw + `,` + conn(`,"count":1`) + `}`, true},
		{"count N", `{` + gw + `,` + conn(`,"count":5`) + `}`, `{` + gw + `,` + conn(`,"count":5`) + `,"initial":[]}`, true},
		{"count N with initial", `{` + gw + `,` + conn(`,"count":3`) + `,"initial":[0.1,0.1,0.1]}`, `{"initial":[0.1,0.1,0.1],` + gw + `,` + conn(`,"count":3`) + `}`, true},
		{"count N is not N entries", `{` + gw + `,` + conn(`,"count":2`) + `}`,
			`{` + gw + `,"connections":[{"path":["A","B"],"law":{"eta":0.1,"bss":0.5}},{"path":["A","B"],"law":{"eta":0.1,"bss":0.5}}]}`, false},
		{"count MaxCount", fmt.Sprintf(`{`+gw+`,`+conn(`,"count":%d`)+`}`, scenario.MaxCount), fmt.Sprintf(`{`+gw+`,`+conn(`,"count":%d`)+`,"name":""}`, scenario.MaxCount), true},
		{"count MaxCount+1", fmt.Sprintf(`{`+gw+`,`+conn(`,"count":%d`)+`}`, scenario.MaxCount+1), fmt.Sprintf(`{`+gw+`,`+conn(`,"count":%d`)+`,"name":""}`, scenario.MaxCount+1), true},
		{"negative count", `{` + gw + `,` + conn(`,"count":-1`) + `}`, `{"name":"",` + gw + `,` + conn(`,"count":-1`) + `}`, true},
		{"power signal needs k > 0", `{"signal":{"kind":"power","k":0},` + gw + `,` + conn("") + `}`, `{"signal":{"kind":"Power","k":0,"theta":2},` + gw + `,` + conn("") + `}`, true},
		{"negative maxSteps", `{` + gw + `,` + conn("") + `,"maxSteps":-1}`, `{"maxSteps":-1,` + gw + `,` + conn("") + `}`, true},
		{"no connections", `{` + gw + `}`, `{` + gw + `,"connections":[]}`, true},
		{"idle gateway", `{` + gw + `,"connections":[{"path":["A"]}]}`, `{` + gw + `,"connections":[{"path":["A"],"count":0}]}`, true},
		// Every field Build reads is encoded: these pairs differ in one
		// such field and build differently, so equal bytes would be a
		// soundness hole.
		{"mu is encoded", `{"gateways":[{"name":"A","mu":0,"latency":0.1},{"name":"B","mu":2}],` + conn("") + `}`, `{` + gw + `,` + conn("") + `}`, false},
		{"latency is encoded", `{"gateways":[{"name":"A","mu":1,"latency":-1},{"name":"B","mu":2}],` + conn("") + `}`, `{` + gw + `,` + conn("") + `}`, false},
		{"gateway name is encoded", `{"gateways":[{"name":"C","mu":1,"latency":0.1},{"name":"B","mu":2}],` + conn("") + `}`, `{` + gw + `,` + conn("") + `}`, false},
		{"path is encoded", `{` + gw + `,"connections":[{"path":["B","A"]}]}`, `{` + gw + `,"connections":[{"path":["A","B"]}]}`, false},
		{"count is encoded", `{` + gw + `,` + conn(`,"count":2`) + `}`, `{` + gw + `,` + conn(`,"count":3`) + `}`, false},
		{"initial is encoded", `{` + gw + `,` + conn("") + `,"initial":[-1]}`, `{` + gw + `,` + conn("") + `,"initial":[1]}`, false},
		{"signal parameter is encoded", `{"signal":{"kind":"power","k":0},` + gw + `,` + conn("") + `}`, `{"signal":{"kind":"power","k":2},` + gw + `,` + conn("") + `}`, false},
		{"maxSteps is encoded", `{` + gw + `,` + conn("") + `,"maxSteps":2}`, `{` + gw + `,` + conn("") + `,"maxSteps":1}`, false},
		{"name is encoded", `{"name":"a",` + gw + `,` + conn("") + `}`, `{"name":"b",` + gw + `,` + conn("") + `}`, false},
		{"-0 and +0 initial", `{` + gw + `,` + conn("") + `,"initial":[-0]}`, `{` + gw + `,` + conn("") + `,"initial":[0]}`, false},
		{"-0 and +0 latency", `{"gateways":[{"name":"A","mu":1,"latency":-0},{"name":"B","mu":2}],` + conn("") + `}`, `{` + gw + `,` + conn("") + `}`, false},
	}
	for _, c := range cases {
		a, b := load(t, c.a), load(t, c.b)
		if got := checkSound(t, c.name, a, b); got != c.same {
			t.Errorf("%s: canonical bytes agree = %v, want %v", c.name, got, c.same)
		}
	}

	// Non-finite parameters cannot come from JSON, but a spec built in
	// code can carry them; canonicalization refuses them, so they never
	// reach a cache key.
	nan := load(t, `{`+gw+`,`+conn("")+`}`)
	nan.Connections[0].Law.Eta = math.NaN()
	if _, err := nan.Canonical(); err == nil {
		t.Error("a NaN law parameter canonicalized")
	}
}
