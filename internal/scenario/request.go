package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
)

// Validated is a request document the strict decoder accepted: the
// scenario, the fault spec an envelope carried ("" for a bare
// scenario), and the scenario's canonical bytes. Its fields are
// unexported, so a Validated only ever comes from DecodeRequest, and
// its canonical bytes always belong to its spec.
//
// A Validated is not a promise that the spec builds — that costs Build
// (or the fluid backend's FromSpec), which a server runs only on a
// cache miss. It is the promise that the spec's content address is
// sound: the canonical encoding validated every kind, parameter, count
// and step bound it encodes, and two specs with equal canonical bytes
// either both build or both fail with the same error.
type Validated struct {
	spec  *Spec
	fault string
	canon []byte
}

// Spec returns the decoded scenario. It must not be modified: the
// canonical bytes were computed from it.
func (v *Validated) Spec() *Spec { return v.spec }

// Fault returns the envelope's compact fault spec, still unparsed (""
// for a bare scenario).
func (v *Validated) Fault() string { return v.fault }

// Canonical returns the spec's canonical bytes (see Spec.Canonical).
// The caller must not modify them.
func (v *Validated) Canonical() []byte { return v.canon }

// envelope is the explicit request form: a scenario document plus an
// optional compact fault spec (docs/ROBUSTNESS.md grammar).
type envelope struct {
	Scenario json.RawMessage `json:"scenario"`
	Fault    string          `json:"fault"`
}

// canonBufs recycles the scratch buffers DecodeRequest encodes
// canonical bytes into, so a request allocates only their exact-size
// copy.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// DecodeRequest decodes a serving request body — a bare scenario
// document or an envelope {"scenario": {...}, "fault": "..."}, told
// apart by a top-level "scenario" key, which the scenario format does
// not have — and canonicalizes its scenario. It is as strict as Load:
// unknown fields and trailing data are errors, and a body that is not
// one JSON document is rejected with json.Unmarshal's wording.
//
// A bare scenario, the common form, costs one strict decode straight
// into the Spec. Only a body that decode rejects is examined further,
// as the envelope form or for the error to report.
//
//ffc:taint sanitizer
func DecodeRequest(body []byte) (*Validated, error) {
	spec, fault, err := decodeRequest(body)
	if err != nil {
		return nil, err
	}
	buf := canonBufs.Get().(*[]byte)
	defer canonBufs.Put(buf)
	*buf, err = spec.AppendCanonical((*buf)[:0])
	if err != nil {
		return nil, err
	}
	return &Validated{spec: spec, fault: fault, canon: bytes.Clone(*buf)}, nil
}

// decodeRequest is DecodeRequest's decoding half.
func decodeRequest(body []byte) (*Spec, string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var s Spec
	bareErr := dec.Decode(&s)
	if bareErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) == 0 {
		return &s, "", nil
	}
	// The probe is what tells the two forms apart; failing it — a
	// syntax error, trailing data, a body that is not an object —
	// outranks every other error.
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, "", fmt.Errorf("request: %v", err)
	}
	raw, ok := probe["scenario"]
	if !ok {
		return nil, "", fmt.Errorf("scenario: %w", bareErr)
	}
	var env envelope
	dec = json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return nil, "", fmt.Errorf("request: %v", err)
	}
	spec, err := Load(bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	return spec, env.Fault, nil
}
