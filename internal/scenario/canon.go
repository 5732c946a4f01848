package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/nettheory/feedbackflow/internal/finite"
)

// CanonicalVersion tags the canonical encoding; it changes whenever
// the encoding below changes, so stale cache entries keyed on an old
// encoding can never be served against a new one.
const CanonicalVersion = "ffc-scenario-canon/v1"

// Canonical returns a deterministic byte encoding of the spec, the
// content-address the run cache (internal/runcache) hashes: two specs
// produce the same bytes exactly when they describe the same run.
//
// The encoding normalizes everything JSON leaves open:
//
//   - key order and whitespace vanish (fields are re-emitted in a
//     fixed order, one line each);
//   - kind aliases and defaults collapse ("" and "fs" both encode as
//     "fairshare"; an absent signal encodes as "rational");
//   - parameters a kind does not consume are dropped (an additive law
//     with a stray "p" is the same law without it);
//   - floats are rendered with strconv's 'x' format, which is exact —
//     two specs canonicalize equal only when their parameters are
//     bit-equal (so -0 and +0 are distinct, conservatively);
//   - strings are quoted with strconv.Quote, so names containing
//     newlines or '=' cannot forge field boundaries.
//
// Gateway and connection order is preserved: it determines the index
// space of the report, so reordering is a semantically different
// scenario. Canonical validates as it encodes (unknown kinds,
// non-finite parameters, counts out of range, negative maxSteps) and
// errors on specs Build would reject for those reasons, with Build's
// wording; it does not repeat Build's topological checks.
func (s *Spec) Canonical() ([]byte, error) {
	return s.AppendCanonical(nil)
}

// AppendCanonical appends the canonical encoding (see Canonical) to
// dst and returns the extended buffer. Encoding into a buffer with
// room to spare allocates nothing, so a caller that reuses its buffer
// canonicalizes for free.
func (s *Spec) AppendCanonical(dst []byte) ([]byte, error) {
	b := append(dst, CanonicalVersion...)
	b = append(b, "\nname="...)
	b = strconv.AppendQuote(b, s.Name)

	disc, err := canonDiscipline(s.Discipline)
	if err != nil {
		return dst, err
	}
	b = append(b, "\ndiscipline="...)
	b = append(b, disc...)

	feed, err := canonFeedback(s.Feedback)
	if err != nil {
		return dst, err
	}
	b = append(b, "\nfeedback="...)
	b = append(b, feed...)
	b = append(b, '\n')

	if b, err = appendSignal(b, s.Signal); err != nil {
		return dst, err
	}

	for _, g := range s.Gateways {
		if finite.IsBad(g.Mu) {
			return dst, finiteParam("gateway "+g.Name+" mu", g.Mu)
		}
		if finite.IsBad(g.Latency) {
			return dst, finiteParam("gateway "+g.Name+" latency", g.Latency)
		}
		b = append(b, "gateway="...)
		b = strconv.AppendQuote(b, g.Name)
		b = append(b, " mu="...)
		b = appendFloat(b, g.Mu)
		b = append(b, " latency="...)
		b = appendFloat(b, g.Latency)
		b = append(b, '\n')
	}

	for ci, c := range s.Connections {
		b = append(b, "conn=["...)
		for i, name := range c.Path {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, name)
		}
		b = append(b, ']')
		// A count of 0 or 1 is one connection and is not emitted, so
		// every pre-count spec keeps its exact canonical bytes (and its
		// cache address). "count=" cannot collide with path content —
		// names inside the brackets are quoted.
		n, err := c.count()
		if err != nil {
			return dst, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		if n > 1 {
			b = append(b, " count="...)
			b = strconv.AppendInt(b, n, 10)
		}
		b = append(b, " law="...)
		if b, err = appendLaw(b, c.Law); err != nil {
			return dst, fmt.Errorf("scenario: connection %d: %w", ci, err)
		}
		b = append(b, '\n')
	}

	if len(s.Initial) > 0 {
		b = append(b, "initial="...)
		for i, v := range s.Initial {
			if finite.IsBad(v) {
				return dst, finiteParam(fmt.Sprintf("initial[%d]", i), v)
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, '\n')
	}
	if s.MaxSteps < 0 {
		return dst, fmt.Errorf("scenario: maxSteps %d is negative (0 means the default)", s.MaxSteps)
	}
	if s.MaxSteps != 0 {
		b = append(b, "maxsteps="...)
		b = strconv.AppendInt(b, int64(s.MaxSteps), 10)
		b = append(b, '\n')
	}
	return b, nil
}

// appendSignal appends the signal line: the normalized kind plus only
// the parameters that kind consumes.
func appendSignal(b []byte, sp SignalSpec) ([]byte, error) {
	kind, err := canonSignal(sp.Kind)
	if err != nil {
		return b, err
	}
	b = append(b, "signal="...)
	b = append(b, kind...)
	var (
		param string
		v     float64
	)
	switch kind {
	case "rational":
		return append(b, '\n'), nil
	case "power":
		param, v = "k", sp.K
	case "exponential":
		param, v = "theta", sp.Theta
	case "binary":
		param, v = "threshold", sp.Threshold
	}
	if finite.IsBad(v) {
		return b, finiteParam("signal "+param, v)
	}
	b = append(b, ' ')
	b = append(b, param...)
	b = append(b, '=')
	b = appendFloat(b, v)
	return append(b, '\n'), nil
}

// appendLaw appends a law's normalized kind followed by " name=value"
// for each parameter the kind consumes. The law field of Canonical and
// the fluid backend's class key (FluidClasses) are both this encoding,
// so two laws share a class exactly when they canonicalize equal.
func appendLaw(b []byte, sp LawSpec) ([]byte, error) {
	kind, err := canonLaw(sp.Kind)
	if err != nil {
		return b, err
	}
	b = append(b, kind...)
	params, n := lawParams(kind, sp)
	for _, p := range params[:n] {
		if finite.IsBad(p.v) {
			return b, finiteParam("law "+p.name, p.v)
		}
		b = append(b, ' ')
		b = append(b, p.name...)
		b = append(b, '=')
		b = appendFloat(b, p.v)
	}
	return b, nil
}

// The canon* resolvers are the one alias table per kind: each maps
// every accepted spelling (case-insensitively, "" being the default)
// to the kind's canonical name, and rejects any other with the error
// both Canonical and Build report. Build's compilers switch on the
// names they return.

func canonDiscipline(kind string) (string, error) {
	switch strings.ToLower(kind) {
	case "", "fs", "fairshare":
		return "fairshare", nil
	case "fifo":
		return "fifo", nil
	}
	return "", fmt.Errorf("scenario: unknown discipline %q", kind)
}

func canonFeedback(kind string) (string, error) {
	switch strings.ToLower(kind) {
	case "", "individual":
		return "individual", nil
	case "aggregate":
		return "aggregate", nil
	}
	return "", fmt.Errorf("scenario: unknown feedback style %q", kind)
}

func canonSignal(kind string) (string, error) {
	switch k := strings.ToLower(kind); k {
	case "", "rational":
		return "rational", nil
	case "power", "exponential", "binary":
		return k, nil
	}
	return "", fmt.Errorf("scenario: unknown signal kind %q", kind)
}

func canonLaw(kind string) (string, error) {
	switch k := strings.ToLower(kind); k {
	case "", "additive":
		return "additive", nil
	case "multiplicative", "power", "fairrate", "window":
		return k, nil
	}
	return "", fmt.Errorf("unknown law kind %q", kind)
}

// appendFloat renders v exactly: 'x' is hexadecimal floating point with
// the shortest exact mantissa, so distinct float64 bit patterns render
// distinctly and equal values identically on every platform.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'x', -1, 64)
}
