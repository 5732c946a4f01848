package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// respellings are bodies in spellings the fast path must decline: each
// either decodes through encoding/json to what it means there, or gets
// its error text from it.
var respellings = []string{
	`{"Name": "x", "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"NAME": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": 1}], "connections": [{"Path": ["G"], "law": {"Kind": "additive"}}]}`,
	`{"name": "a", "name": "b", "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": 1, "mu": 2}], "connections": [{"path": ["G"]}]}`,
	`{"name": nul, "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"name": nullx, "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"bogus": null, "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"name": null, "name": "x"}`,
	`{"gateways": [{"name": "\u0067", "mu": 1}], "connections": [{"path": ["g"]}]}`,
	`{"name": "a\nb", "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"name": "Ω", "gateways": [{"name": "é", "mu": 1}], "connections": [{"path": ["é"]}]}`,
	"{\"name\": \"\xff\", \"gateways\": [{\"name\": \"G\", \"mu\": 1}], \"connections\": [{\"path\": [\"G\"]}]}",
	`{"gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"], "count": 1.0}]}`,
	`{"maxSteps": 1e3, "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"], "count": 99999999999999999999}]}`,
	`{"gateways": [{"name": "G", "mu": 1e999}], "connections": [{"path": ["G"]}]}`,
	"\xef\xbb\xbf{\"gateways\": [{\"name\": \"G\", \"mu\": 1}], \"connections\": [{\"path\": [\"G\"]}]}",
	`{"gateways": [{"name": "G", "mu": 01}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": .5}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": "1"}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": 1,}], "connections": [{"path": ["G"]}]}`,
	`{"gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}], "extra": true}`,
	"{\"gateways\": [{\"name\": \"G\", \"mu\": 1}]\f}",
	`null`,
	` null `,
	`{"scenario": null}`,
	`{"scenario": null, "fault": "seed=1"}`,
	`{"fault": null}`,
	`{"Scenario": {}}`,
	`{"fault": "seed=1"}`,
	`{"scenario": {}, "name": "x"}`,
	`{"scenario": {}, "fault": 3}`,
	`{"scenario": {}, "scenario": {}}`,
	`{"scenario": {"nam": "x"}}`,
	`{"name":"x"}!!!`,
	`{"name":"x"} {"name":"y"}`,
	``,
}

// commonSpellings are bodies the fast path must accept, beside the
// corpus files and scenariotest.Hetero.
var commonSpellings = []string{
	`{}`,
	` {"name": "x"} `,
	"\t{\r\n\"gateways\" :[ {\"name\":\"G\" , \"mu\":1E2}\n]\t}\n",
	`{"gateways": [{"name": "G", "mu": -0}], "connections": [{"path": ["G"], "count": -0}]}`,
	`{"gateways": [{"name": "G", "mu": 1e-400, "latency": -1.5e+3}], "connections": [{"path": ["G"], "count": -7}], "maxSteps": -1}`,
	`{"gateways": [], "connections": [], "initial": []}`,
	`{"connections": [{"path": []}, {}, {"path": ["A", "A"]}, {"law": {}}], "gateways": [{}]}`,
	`{"signal": {"kind": "binary", "threshold": 0.5, "k": 2, "theta": 1}, "initial": [0.1, 2]}`,
	"{\"discipline\": \"fs\", \"feedback\": \"aggregate\", \"name\": \"~\x7f\"}",
	`{"scenario": {}}`,
	`{"scenario": {}, "fault": ""}`,
	`{"fault": "seed=3,loss=0.5@10-40", "scenario": {"name": "x"}}`,
	`{"connections": [{"path": ["G"]}], "gateways": [{"name": "G", "mu": 1}]}`,
	`{"gateways": [{"name": "g", "mu": 1}], "connections": [{"path": ["g"]}]}`,
	`{"name": null, "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"]}]}`,
	`{"initial": null, "gateways": [{"name": "G", "mu": 1}], "connections": [{"path": ["G"], "law": null}]}`,
	`{"gateways": null, "connections": null, "signal": null, "discipline": null, "feedback": null, "maxSteps": null}`,
	`{"gateways": [null, {"name": null, "mu": null, "latency": null}], "initial": [null, 1]}`,
	`{"connections": [null, {"path": null, "count": null, "law": {"kind": null, "eta": null}}, {"path": ["G", null]}]}`,
	`{"signal": {"kind": null, "k": null, "theta": null, "threshold": null}}`,
	`{"scenario": {"name": null}, "fault": null}`,
}

// checkFast runs the fast path on body and, when it accepts, checks its
// result against the reference decoder: the same Spec (nil and empty
// slices told apart), the same fault and the same canonical encoding.
// It reports whether the fast path accepted.
func checkFast(t *testing.T, body []byte) bool {
	t.Helper()
	spec, fault, ok := decodeFast(body)
	if !ok {
		return false
	}
	want, wantFault, err := decodeRequest(body)
	if err != nil {
		t.Fatalf("%q: fast path accepted a body the reference rejects: %v", body, err)
	}
	if !reflect.DeepEqual(spec, want) || fault != wantFault {
		t.Fatalf("%q: fast path decoded %+v (fault %q), reference %+v (fault %q)", body, spec, fault, want, wantFault)
	}
	if got, want := sliceShape(spec), sliceShape(want); got != want {
		t.Fatalf("%q: nil/empty slices %s, reference %s", body, got, want)
	}
	c1, err1 := spec.Canonical()
	c2, err2 := want.Canonical()
	if !bytes.Equal(c1, c2) || (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("%q: canonical encodings differ: %q (%v) vs %q (%v)", body, c1, err1, c2, err2)
	}
	return true
}

// sliceShape spells out which of the spec's slices are nil (n), empty
// (e) or populated (p), so a nil/empty mix-up names itself.
func sliceShape(s *Spec) string {
	shape := func(isNil bool, n int) byte {
		switch {
		case isNil:
			return 'n'
		case n == 0:
			return 'e'
		}
		return 'p'
	}
	b := []byte{shape(s.Gateways == nil, len(s.Gateways)), shape(s.Connections == nil, len(s.Connections)), shape(s.Initial == nil, len(s.Initial)), ':'}
	for _, c := range s.Connections {
		b = append(b, shape(c.Path == nil, len(c.Path)))
	}
	return string(b)
}

// TestDecodeFastSpellings: the common spelling takes the fast path and
// agrees with the reference; every other spelling declines it, so
// DecodeRequest's answer — the decoded spec or the error text — is the
// reference's.
func TestDecodeFastSpellings(t *testing.T) {
	var accept [][]byte
	for _, d := range scenariotest.Files(t) {
		accept = append(accept, d.Body, []byte(`{"fault": "seed=3", "scenario": `+string(d.Body)+`}`))
	}
	accept = append(accept, scenariotest.Hetero(8)...)
	for _, body := range commonSpellings {
		accept = append(accept, []byte(body))
	}
	for _, body := range accept {
		if !checkFast(t, body) {
			t.Errorf("%.60q: fast path declined the common spelling", body)
		}
	}
	for _, body := range respellings {
		if checkFast(t, []byte(body)) {
			t.Errorf("%q: fast path accepted a rare spelling", body)
		}
	}
}

// TestDecodeFastMarshaled: json.Marshal of a Spec, the body a Go
// client builds, is in the common spelling; it writes null for every
// nil slice, so a spec without initial rates carries "initial": null.
func TestDecodeFastMarshaled(t *testing.T) {
	nulls := 0
	for _, d := range scenariotest.Files(t) {
		spec, err := Load(bytes.NewReader(d.Body))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if bytes.Contains(body, []byte(`"initial":null`)) {
			nulls++
		}
		if !checkFast(t, body) {
			t.Errorf("%s: fast path declined the marshaled spec %s", d.Name, body)
		}
	}
	if nulls == 0 {
		t.Error(`no marshaled scenario file carries "initial": null`)
	}
}

// TestDecodeFastInterns: every path entry shares its gateway's string,
// and every law kind one string.
func TestDecodeFastInterns(t *testing.T) {
	spec, _, ok := decodeFast(scenariotest.Hetero(1)[0])
	if !ok {
		t.Fatal("fast path declined a Hetero document")
	}
	names := map[string]string{}
	for _, g := range spec.Gateways {
		names[g.Name] = g.Name
	}
	kind := spec.Connections[0].Law.Kind
	for i, c := range spec.Connections {
		for _, name := range c.Path {
			if !sameString(name, names[name]) {
				t.Fatalf("connection %d: path entry %q is a copy of its gateway's name", i, name)
			}
		}
		if !sameString(c.Law.Kind, kind) {
			t.Fatalf("connection %d: law kind %q is not interned", i, c.Law.Kind)
		}
	}
}

// sameString reports whether a and b are one string, bytes shared.
func sameString(a, b string) bool {
	return a == b && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestDecodeRequestAllocs guards the fast path against reflection or
// per-token allocation creeping back in. Over scenariotest.Hetero(16)
// DecodeRequest measured 13–19 allocations per document, growing with
// the gateway count (2–6), not the connection count (64–512): the
// Spec, the gateways slice as it grows, one connections array, one
// shared path array, each distinct string, the Validated and its
// canonical bytes. Under the race detector, which drops pooled
// scratch at random, it measured up to 34. The bound is the
// connection count plus 32; the encoding/json decoder made about 4.5
// allocations per connection there.
func TestDecodeRequestAllocs(t *testing.T) {
	for _, doc := range scenariotest.Hetero(16) {
		spec, _, ok := decodeFast(doc)
		if !ok {
			t.Fatalf("fast path declined a Hetero document")
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeRequest(doc); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(len(spec.Connections) + 32); allocs > limit {
			t.Errorf("%s (%d connections): %v allocations per decode, limit %v", spec.Name, len(spec.Connections), allocs, limit)
		}
	}
}

// TestDecodeFastScratch guards what the decoder's scratch buys: a warm
// decoder, reused as the pool reuses it, allocates the connections and
// path arrays once each at their exact size instead of growing them by
// doubling. Over scenariotest.Hetero(16) a decode measured 1.01–1.15
// times the two arrays' exact size, the spec, gateways and strings
// included; appending straight into the spec without the scratch
// measured 1.8–3.6 times. The bound is 1.25 times plus 4 KB, which
// leaves room for allocator size classes. The decoder is driven
// directly, not through the pool, which the race detector empties at
// random.
func TestDecodeFastScratch(t *testing.T) {
	d := fastDecoders.New().(*fastDecoder)
	var ms runtime.MemStats
	for _, doc := range scenariotest.Hetero(16) {
		spec, _, ok := d.decode(doc)
		d.reset()
		if !ok {
			t.Fatalf("fast path declined a Hetero document")
		}
		entries := 0
		for _, c := range spec.Connections {
			entries += len(c.Path)
		}
		exact := float64(len(spec.Connections))*float64(unsafe.Sizeof(ConnectionSpec{})) + float64(entries)*float64(unsafe.Sizeof(""))
		const runs = 20
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for range runs {
			d.decode(doc)
			d.reset()
		}
		runtime.ReadMemStats(&ms)
		perDecode := float64(ms.TotalAlloc-before) / runs
		t.Logf("%s: %.0f bytes per decode, %.2f times the arrays' %.0f", spec.Name, perDecode, perDecode/exact, exact)
		if limit := 1.25*exact + 4096; perDecode > limit {
			t.Errorf("%s (%d connections): %.0f bytes per decode, limit %.0f", spec.Name, len(spec.Connections), perDecode, limit)
		}
	}
}

// FuzzDecodeRequest is the fast path's differential test. Whenever it
// accepts a body, the reference decoder must decode the same Spec and
// fault with the same canonical encoding; whenever it declines,
// DecodeRequest's result is the reference's by construction.
func FuzzDecodeRequest(f *testing.F) {
	for _, d := range scenariotest.Corpus(f) {
		f.Add(d.Body)
	}
	for _, doc := range scenariotest.Hetero(8) {
		f.Add(doc)
	}
	for _, body := range append(respellings, commonSpellings...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFast(t, body)
	})
}
