package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the report's JSON encoding to dst and returns the
// extended slice. The bytes are exactly those json.MarshalIndent(r, "",
// "  ") produces — encoding/json stays the reference, and
// FuzzRunReportJSON holds the two together — but they come from one
// pass over the report, without reflection. A report carries O(N + Σ
// path lengths) floats, and encoding/json spends a MarshalJSON call
// and an allocation on each, a validation pass over each result and an
// indentation pass over the whole document; here each float is one
// strconv.AppendFloat into dst.
//
// omitempty follows encoding/json: a Float is empty when it == 0, so
// -0 is omitted and NaN is not; a slice is empty when its length is 0.
// A nil slice renders as null and an empty one as [].
func (r *RunReport) AppendJSON(dst []byte) []byte {
	w := reportWriter{b: dst}
	w.open('{')
	w.str("schema", r.Schema)
	if r.Scenario != "" {
		w.str("scenario", r.Scenario)
	}
	w.int("steps", int64(r.Steps))
	w.bool("converged", r.Converged)
	w.int("wall_ns", r.WallNS)
	w.float("initial_residual", r.InitialResidual)
	w.float("final_residual", r.FinalResidual)
	w.float("min_residual", r.MinResidual)
	w.float("max_residual", r.MaxResidual)
	w.floats("rates", r.Rates)
	w.floats("signals", r.Signals)
	w.floats("delays", r.Delays)
	w.key("gateways")
	if r.Gateways == nil {
		w.null()
	} else {
		w.open('[')
		for i := range r.Gateways {
			g := &r.Gateways[i]
			w.next()
			w.open('{')
			w.int("gateway", int64(g.Gateway))
			w.int("connections", int64(g.Connections))
			w.float("utilization", g.Utilization)
			w.float("total_queue", g.TotalQueue)
			w.float("max_queue", g.MaxQueue)
			w.floats("queues", g.Queues)
			w.close('}')
		}
		w.close(']')
	}
	if r.Backend != "" {
		w.str("backend", r.Backend)
	}
	if r.Population != 0 {
		w.int("population", r.Population)
	}
	if len(r.ClassWeights) != 0 {
		w.floats("class_weights", r.ClassWeights)
	}
	if f := r.Fault; f != nil {
		w.key("fault")
		w.open('{')
		w.str("spec", f.Spec)
		w.count("signals_lost", f.SignalsLost)
		w.count("signals_delayed", f.SignalsDelayed)
		w.count("signals_noised", f.SignalsNoised)
		w.count("degraded_steps", f.DegradedSteps)
		w.count("outage_steps", f.OutageSteps)
		w.count("churned_steps", f.ChurnedSteps)
		w.count("stuck_steps", f.StuckSteps)
		w.count("greedy_steps", f.GreedySteps)
		w.close('}')
	}
	if rc := r.Recovery; rc != nil {
		w.key("recovery")
		w.open('{')
		w.floats("baseline", rc.Baseline)
		w.bool("reconverged", rc.Reconverged)
		w.int("reconverge_step", int64(rc.ReconvergeStep))
		w.int("time_to_reconverge", int64(rc.TimeToReconverge))
		w.float("max_rate_excursion", rc.MaxRateExcursion)
		if rc.MaxQueueExcursion != 0 {
			w.float("max_queue_excursion", rc.MaxQueueExcursion)
		}
		w.float("final_distance", rc.FinalDistance)
		if len(rc.Starvation) != 0 {
			w.key("starvation")
			w.open('[')
			for _, s := range rc.Starvation {
				w.next()
				w.open('{')
				w.int("connection", int64(s.Connection))
				w.int("longest_window", int64(s.LongestWindow))
				w.int("total_steps", int64(s.TotalSteps))
				w.bool("starved_at_end", s.StarvedAtEnd)
				w.close('}')
			}
			w.close(']')
		}
		w.close('}')
	}
	w.close('}')
	return w.b
}

// reportWriter appends JSON in json.MarshalIndent's layout with a
// two-space indent: every member and element on its own line, one
// indent per nesting level, and an empty object or array as {} or [].
type reportWriter struct {
	b     []byte
	depth int
	empty bool // the innermost open container has no member yet
}

// indents is a newline followed by the indentation of the deepest
// level a RunReport reaches (a gateway's queues, a starvation entry's
// fields: four levels), so one slice of it starts any line.
const indents = "\n        "

func (w *reportWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *reportWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.b = append(w.b, indents[:1+2*w.depth]...)
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts the next member or element of the open container.
func (w *reportWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.b = append(w.b, indents[:1+2*w.depth]...)
}

// key starts a member; every key in the schema is plain ASCII.
func (w *reportWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, `": `...)
}

func (w *reportWriter) null() { w.b = append(w.b, "null"...) }

func (w *reportWriter) str(k, s string) {
	w.key(k)
	w.b = appendString(w.b, s)
}

func (w *reportWriter) int(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

// count is an omitempty integer member.
func (w *reportWriter) count(k string, v int64) {
	if v != 0 {
		w.int(k, v)
	}
}

func (w *reportWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *reportWriter) float(k string, f Float) {
	w.key(k)
	w.b = appendFloat(w.b, f)
}

func (w *reportWriter) floats(k string, xs []Float) {
	w.key(k)
	if xs == nil {
		w.null()
		return
	}
	w.open('[')
	for _, x := range xs {
		w.next()
		w.b = appendFloat(w.b, x)
	}
	w.close(']')
}

// appendFloat appends f as Float.MarshalJSON encodes it.
func appendFloat(b []byte, f Float) []byte {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape is copied as is; any other string is
// json.Marshal's encoding of it, so the escaping of HTML characters,
// control characters, U+2028, U+2029 and invalid UTF-8 is
// encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
