package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// TestDecodeRequestForms: a bare scenario and the same scenario in an
// envelope decode to the same spec and canonical bytes, and only the
// envelope carries a fault spec.
func TestDecodeRequestForms(t *testing.T) {
	for _, d := range scenariotest.Files(t) {
		want, err := Load(bytes.NewReader(d.Body))
		if err != nil {
			t.Fatal(err)
		}
		canon, err := want.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			body, fault string
		}{
			{string(d.Body), ""},
			{`{"scenario": ` + string(d.Body) + `}`, ""},
			{`{"fault": "seed=3", "scenario": ` + string(d.Body) + `}`, "seed=3"},
		} {
			v, err := DecodeRequest([]byte(c.body))
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			if !reflect.DeepEqual(v.Spec(), want) {
				t.Errorf("%s: decoded spec differs from Load's", d.Name)
			}
			if v.Fault() != c.fault {
				t.Errorf("%s: fault %q, want %q", d.Name, v.Fault(), c.fault)
			}
			if !bytes.Equal(v.Canonical(), canon) {
				t.Errorf("%s: canonical bytes differ from Spec.Canonical", d.Name)
			}
		}
	}
}

// TestDecodeRequestSyntaxErrors: a document that is not JSON is
// rejected with json.Unmarshal's wording, trailing data included,
// whichever form it was meant to take.
func TestDecodeRequestSyntaxErrors(t *testing.T) {
	for _, body := range []string{
		``, ` `, `{`, `{"name":`, `{"name":"x"`, `{"name":"x"}!!!`, `{"name":"x"} {"name":"y"}`,
		`{"name":"x"}'`, `{"name":"x"}"`, "{\"name\":\"x\"}\x01", "{\"name\":\"x\"}\xff", `not json`,
		`12x`, `{"scenario": }`, `{"scenario": {"name":"x"}!!!}`, `[1,]`, `{"nam":"typo"} x`,
		`{"gateways":[{"name":"G","mu":1e999}]} }`,
	} {
		want := json.Unmarshal([]byte(body), new(any))
		if want == nil {
			t.Fatalf("%q is valid JSON", body)
		}
		_, err := DecodeRequest([]byte(body))
		if err == nil || err.Error() != "request: "+want.Error() {
			t.Errorf("%q: error %v, want %q", body, err, "request: "+want.Error())
		}
	}
}

// TestDecodeRequestEnvelopeBoundary: a body must be an object, only an
// exact top-level "scenario" key makes an envelope, an envelope admits
// no scenario fields, and a bare scenario admits no fault.
func TestDecodeRequestEnvelopeBoundary(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{`[]`, `request: json: cannot unmarshal array into Go value of type map[string]json.RawMessage`},
		{`{"Scenario": {}}`, `scenario: json: unknown field "Scenario"`},
		{`{"fault": "seed=1"}`, `scenario: json: unknown field "fault"`},
		{`{"scenario": {}, "name": "x"}`, `request: json: unknown field "name"`},
		{`{"scenario": {"nam": "x"}}`, `scenario: json: unknown field "nam"`},
		{`{"scenario": {}, "fault": 3}`, `request: json: cannot unmarshal number into Go struct field envelope.fault of type string`},
	} {
		if _, err := DecodeRequest([]byte(c.body)); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.body, err, c.want)
		}
	}
	for _, body := range []string{`null`, `{"scenario": null}`, `{"scenario": {}, "fault": ""}`} {
		if _, err := DecodeRequest([]byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// TestAppendCanonicalWarmBufferAllocatesNothing guards the hit path's
// canonical encoding over the heterogeneous corpus the serving
// benchmarks send: into a buffer that already has room it makes no
// allocation at all.
func TestAppendCanonicalWarmBufferAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 1<<20)
	for _, doc := range scenariotest.Hetero(16) {
		sp, err := Load(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if buf, err = sp.AppendCanonical(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%q: AppendCanonical into a warm buffer allocates %v times", sp.Name, allocs)
		}
	}
}
