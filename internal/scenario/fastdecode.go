package scenario

import (
	"bytes"
	"strconv"
	"sync"
)

// The fast path. decodeFast takes the common spelling of a request —
// exact field names, each at most once, ASCII strings without escapes
// and plain integer literals for the integer fields — in one
// byte-level pass straight into a Spec, without reflection. A null
// field value leaves the field's zero value alone, as encoding/json
// does, so json.Marshal of a Spec (which writes "initial": null) is
// in the common spelling. On anything else — a key-case variant, a
// duplicate key, a null body or envelope scenario, an escape, a
// non-ASCII byte, 1.0 for an integer, a float out of range, any syntax
// error — it declines, and decodeRequest's encoding/json path runs
// instead. That path is the reference: every body the fast
// path accepts decodes there to a reflect.DeepEqual Spec and fault
// (FuzzDecodeRequest), and every error text comes from it.

// fastDecoder is one fast-path decode's state. Between decodes it
// sits in fastDecoders with its scratch emptied.
type fastDecoder struct {
	data []byte
	pos  int
	// conns and paths collect a connections array before it is copied
	// out at its exact size; every connection's path is a window of
	// one shared backing array.
	conns []ConnectionSpec
	paths []string
	// names interns every string the document holds, so each gateway
	// name on a path and each law kind shares one allocation.
	names map[string]string
}

var fastDecoders = sync.Pool{New: func() any {
	return &fastDecoder{paths: make([]string, 0, 64), names: make(map[string]string)}
}}

// maxPooledScratch bounds the scratch a decoder keeps across decodes,
// so one huge document does not pin its buffers in the pool.
const maxPooledScratch = 1 << 14

// maxFields bounds an object's keys: the request's top level, with
// the scenario's eight fields and the envelope's two, has the most.
const maxFields = 10

// decodeFast decodes body if it is in the common spelling, and
// reports ok = false otherwise. It never returns an error: a body it
// declines may still be valid, and one that is not gets its error
// text from the reference path.
func decodeFast(body []byte) (spec *Spec, fault string, ok bool) {
	d := fastDecoders.Get().(*fastDecoder)
	spec, fault, ok = d.decode(body)
	if d.reset() {
		fastDecoders.Put(d)
	}
	return spec, fault, ok
}

// decode runs one fast-path decode of body on d; reset readies d for
// the next.
func (d *fastDecoder) decode(body []byte) (*Spec, string, bool) {
	d.data, d.pos = body, 0
	return d.request()
}

// reset empties the decoder's scratch and reports whether it is small
// enough to keep in the pool.
func (d *fastDecoder) reset() bool {
	d.data = nil
	clear(d.conns[:cap(d.conns)])
	clear(d.paths[:cap(d.paths)])
	d.conns, d.paths = d.conns[:0], d.paths[:0]
	if cap(d.conns) > maxPooledScratch || cap(d.paths) > maxPooledScratch || len(d.names) > maxPooledScratch {
		return false
	}
	clear(d.names)
	return true
}

// request decodes a bare scenario object or an envelope, which is the
// whole body apart from surrounding whitespace. A body or envelope
// scenario that is not an object, a top-level object that mixes
// scenario fields with envelope keys, or an envelope without a
// scenario declines.
func (d *fastDecoder) request() (*Spec, string, bool) {
	var (
		bare, inner   = new(Spec), (*Spec)(nil)
		isBare, isEnv bool
		fault         string
	)
	ok := d.peek() == '{' && d.object(func(key []byte) bool {
		switch string(key) {
		case "scenario":
			isEnv, inner = true, new(Spec)
			return d.peek() == '{' && d.object(func(key []byte) bool { return d.specField(inner, key) })
		case "fault":
			isEnv = true
			return d.text(&fault)
		}
		isBare = true
		return d.specField(bare, key)
	})
	d.skipSpace()
	if !ok || d.pos != len(d.data) || isBare && isEnv {
		return nil, "", false
	}
	if isEnv {
		return inner, fault, inner != nil
	}
	return bare, "", true
}

// specField decodes the value of the scenario field key.
func (d *fastDecoder) specField(s *Spec, key []byte) bool {
	switch string(key) {
	case "name":
		return d.text(&s.Name)
	case "discipline":
		return d.text(&s.Discipline)
	case "feedback":
		return d.text(&s.Feedback)
	case "signal":
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "kind":
				return d.text(&s.Signal.Kind)
			case "k":
				return d.float(&s.Signal.K)
			case "theta":
				return d.float(&s.Signal.Theta)
			case "threshold":
				return d.float(&s.Signal.Threshold)
			}
			return false
		})
	case "gateways":
		if d.null() {
			return true
		}
		s.Gateways = []GatewaySpec{}
		return d.array(func() bool {
			s.Gateways = append(s.Gateways, GatewaySpec{})
			g := &s.Gateways[len(s.Gateways)-1]
			return d.object(func(key []byte) bool {
				switch string(key) {
				case "name":
					return d.text(&g.Name)
				case "mu":
					return d.float(&g.Mu)
				case "latency":
					return d.float(&g.Latency)
				}
				return false
			})
		})
	case "connections":
		return d.connections(s)
	case "initial":
		if d.null() {
			return true
		}
		s.Initial = []float64{}
		return d.array(func() bool {
			s.Initial = append(s.Initial, 0)
			return d.float(&s.Initial[len(s.Initial)-1])
		})
	case "maxSteps":
		var n int64
		ok := d.integer(&n)
		s.MaxSteps = int(n)
		return ok && int64(s.MaxSteps) == n
	}
	return false
}

// connections decodes the connections array into the scratch, then
// copies it out at its exact size with every path a window of one
// backing array.
func (d *fastDecoder) connections(s *Spec) bool {
	if d.null() {
		return true
	}
	d.conns, d.paths = d.conns[:0], d.paths[:0]
	ok := d.array(func() bool {
		d.conns = append(d.conns, ConnectionSpec{})
		c := &d.conns[len(d.conns)-1]
		return d.object(func(key []byte) bool {
			switch string(key) {
			case "path":
				if d.null() {
					return true
				}
				// The window into the scratch marks the path present
				// (non-nil, even when empty) and records its length.
				start := len(d.paths)
				ok := d.array(func() bool {
					d.paths = append(d.paths, "")
					return d.text(&d.paths[len(d.paths)-1])
				})
				c.Path = d.paths[start:len(d.paths):len(d.paths)]
				return ok
			case "law":
				return d.object(func(key []byte) bool {
					switch string(key) {
					case "kind":
						return d.text(&c.Law.Kind)
					case "eta":
						return d.float(&c.Law.Eta)
					case "beta":
						return d.float(&c.Law.Beta)
					case "bss":
						return d.float(&c.Law.BSS)
					case "p":
						return d.float(&c.Law.P)
					}
					return false
				})
			case "count":
				return d.integer(&c.Count)
			}
			return false
		})
	})
	if !ok {
		return false
	}
	s.Connections = make([]ConnectionSpec, len(d.conns))
	copy(s.Connections, d.conns)
	paths := make([]string, len(d.paths))
	copy(paths, d.paths)
	off := 0
	for i := range s.Connections {
		c := &s.Connections[i]
		if c.Path != nil {
			n := len(c.Path)
			c.Path = paths[off : off+n : off+n]
			off += n
		}
	}
	return true
}

// object decodes one JSON object, or null, calling field with each key
// and the decoder at its value; field declines a key it does not know
// by returning false. A repeated key declines.
func (d *fastDecoder) object(field func(key []byte) bool) bool {
	if d.null() {
		return true
	}
	if !d.token('{') {
		return false
	}
	if d.peek() == '}' {
		d.pos++
		return true
	}
	var seen [maxFields][]byte
	for n := 0; ; n++ {
		d.skipSpace()
		key, ok := d.rawString()
		if !ok || n == maxFields {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !d.token(':') || !field(key) {
			return false
		}
		switch d.next() {
		case ',':
		case '}':
			return true
		default:
			return false
		}
	}
}

// array decodes one JSON array, calling elem with the decoder at each
// element. Its caller decides what a null in its place means.
func (d *fastDecoder) array(elem func() bool) bool {
	if !d.token('[') {
		return false
	}
	if d.peek() == ']' {
		d.pos++
		return true
	}
	for {
		if !elem() {
			return false
		}
		switch d.next() {
		case ',':
		case ']':
			return true
		default:
			return false
		}
	}
}

// text decodes a string, or null, into *s, interned.
func (d *fastDecoder) text(s *string) bool {
	if d.null() {
		return true
	}
	b, ok := d.rawString()
	if !ok {
		return false
	}
	if *s, ok = d.names[string(b)]; !ok {
		*s = string(b)
		d.names[*s] = *s
	}
	return true
}

// rawString scans a string at the decoder's position and returns its
// contents. It declines escapes, control characters and non-ASCII
// bytes, which encoding/json would unescape, reject or (for invalid
// UTF-8) replace.
func (d *fastDecoder) rawString() ([]byte, bool) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// float decodes a number, or null, into *x with strconv.ParseFloat, as
// encoding/json does; a literal out of float64's range declines.
func (d *fastDecoder) float(x *float64) bool {
	if d.null() {
		return true
	}
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*x = v
	return err == nil
}

// integer decodes a number, or null, into *n with strconv.ParseInt,
// as encoding/json does for integer fields, so a fraction or exponent
// (1.0, 1e3) or an overflow declines.
func (d *fastDecoder) integer(n *int64) bool {
	if d.null() {
		return true
	}
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	*n = v
	return err == nil
}

// null consumes a null literal if one is next. Each reader takes null
// as encoding/json does on a fresh Spec: the value keeps its zero
// value, so a null slice stays nil.
func (d *fastDecoder) null() bool {
	d.skipSpace()
	if !bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		return false
	}
	d.pos += 4
	return true
}

// number scans a literal in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (d *fastDecoder) number() ([]byte, bool) {
	d.skipSpace()
	b, start := d.data, d.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	d.pos = i
	return b[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// token skips whitespace and consumes c.
func (d *fastDecoder) token(c byte) bool {
	if d.peek() != c {
		return false
	}
	d.pos++
	return true
}

// next skips whitespace and consumes the next byte, 0 at the end.
func (d *fastDecoder) next() byte {
	c := d.peek()
	if d.pos < len(d.data) {
		d.pos++
	}
	return c
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *fastDecoder) peek() byte {
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// skipSpace skips JSON whitespace.
func (d *fastDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}
