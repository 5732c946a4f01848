package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse decodes the compact fault spec grammar used by ffc -fault.
// A spec is a comma-separated list of clauses:
//
//	seed=N                 RNG seed (default 1)
//	loss=P[@F-T]           signal loss probability P in [0,1]
//	delay=D[@F-T]          signals delivered D steps late
//	noise=A[@F-T]          uniform ±A signal noise, clamped to [0,1]
//	quantum=Q[@F-T]        signals quantized to multiples of Q
//	rejoin=R               restart rate after churn (default 0.01)
//	degrade=G:X[@F-T]      gateway G serves at X times nominal rate
//	outage=G[@F-T]         gateway G fully out (degrade with X = 0)
//	churn=C[@F-T]          connection C leaves at F, rejoins at T
//	stuck=C[@F-T]          connection C's rate frozen
//	greedy=C[@F-T]         connection C refuses rate decreases
//
// The optional @F-T suffix restricts a clause to the half-open step
// window [F,T); @F- leaves the window open-ended, and omitting the
// suffix applies the clause to the whole run. degrade/outage/churn/
// stuck/greedy clauses may repeat. The empty spec parses to the zero
// Config (inject nothing).
//
// Parse validates ranges and shapes but not topology indices — pass
// the result through Config.Validate once the model is known.
func Parse(spec string) (Config, error) {
	cfg := Config{Seed: 1, RejoinRate: 0.01}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Config{}, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, found := strings.Cut(clause, "=")
		if !found || key == "" || val == "" {
			return Config{}, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		val, window, err := splitWindow(val)
		if err != nil {
			return Config{}, err
		}
		hasWindow := !window.whole()
		switch key {
		case "seed":
			if hasWindow {
				return Config{}, fmt.Errorf("fault: seed takes no window")
			}
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad seed %q", val)
			}
			cfg.Seed = seed
		case "loss":
			v, err := parseProb(key, val)
			if err != nil {
				return Config{}, err
			}
			if v > 0 { // a zero clause is a no-op; keep the config canonical
				cfg.Loss, cfg.LossWindow = v, window
			}
		case "delay":
			d, err := strconv.Atoi(val)
			if err != nil || d < 0 || d > 1<<20 {
				return Config{}, fmt.Errorf("fault: bad delay %q (want an integer in [0, 2^20])", val)
			}
			if d > 0 {
				cfg.Delay, cfg.DelayWindow = d, window
			}
		case "noise":
			v, err := parseProb(key, val)
			if err != nil {
				return Config{}, err
			}
			if v > 0 {
				cfg.Noise, cfg.NoiseWindow = v, window
			}
		case "quantum":
			v, err := parseProb(key, val)
			if err != nil {
				return Config{}, err
			}
			if v > 0 {
				cfg.Quantum, cfg.QuantumWindow = v, window
			}
		case "rejoin":
			if hasWindow {
				return Config{}, fmt.Errorf("fault: rejoin takes no window")
			}
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
				return Config{}, fmt.Errorf("fault: bad rejoin rate %q (want a positive number)", val)
			}
			cfg.RejoinRate = r
		case "degrade":
			gw, factor, found := strings.Cut(val, ":")
			if !found {
				return Config{}, fmt.Errorf("fault: degrade wants gateway:factor, got %q", val)
			}
			g, err := parseIndex("degrade gateway", gw)
			if err != nil {
				return Config{}, err
			}
			f, err := parseProb("degrade factor", factor)
			if err != nil {
				return Config{}, err
			}
			cfg.Degrade = append(cfg.Degrade, GatewayFault{Gateway: g, Factor: f, Window: window})
		case "outage":
			g, err := parseIndex("outage gateway", val)
			if err != nil {
				return Config{}, err
			}
			cfg.Degrade = append(cfg.Degrade, GatewayFault{Gateway: g, Factor: 0, Window: window})
		case "churn":
			f, err := parseConnFault(key, val, window)
			if err != nil {
				return Config{}, err
			}
			cfg.Churn = append(cfg.Churn, f)
		case "stuck":
			f, err := parseConnFault(key, val, window)
			if err != nil {
				return Config{}, err
			}
			cfg.Stuck = append(cfg.Stuck, f)
		case "greedy":
			f, err := parseConnFault(key, val, window)
			if err != nil {
				return Config{}, err
			}
			cfg.Greedy = append(cfg.Greedy, f)
		default:
			return Config{}, fmt.Errorf("fault: unknown clause %q", key)
		}
	}
	if !cfg.Enabled() {
		// Only seed/rejoin given: normalize to the canonical zero
		// config so "parses to identity" is a structural fact.
		return Config{}, nil
	}
	if err := cfg.Validate(-1, -1); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// splitWindow splits an optional trailing @F-T window off a clause
// value.
func splitWindow(val string) (string, Window, error) {
	val, suffix, found := strings.Cut(val, "@")
	if !found {
		return val, Window{}, nil
	}
	from, to, found := strings.Cut(suffix, "-")
	if !found {
		return "", Window{}, fmt.Errorf("fault: window %q wants from-to", suffix)
	}
	f, err := parseIndex("window start", from)
	if err != nil {
		return "", Window{}, err
	}
	w := Window{From: f}
	if to != "" {
		t, err := parseIndex("window end", to)
		if err != nil {
			return "", Window{}, err
		}
		if t <= f {
			return "", Window{}, fmt.Errorf("fault: window [%d,%d) is empty", f, t)
		}
		w.To = t
	}
	if w.whole() {
		// "@0-" parses as the whole run; keep it canonical.
		w = Window{}
	}
	return val, w, nil
}

func parseProb(what, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) || v < 0 || v > 1 {
		return 0, fmt.Errorf("fault: bad %s %q (want a number in [0,1])", what, val)
	}
	return v, nil
}

func parseIndex(what, val string) (int, error) {
	// Reject "", "+1", "1e2", etc.: indices are plain decimal digits.
	if val == "" {
		return 0, fmt.Errorf("fault: bad %s %q (want a non-negative integer)", what, val)
	}
	for _, ch := range val {
		if ch < '0' || ch > '9' {
			return 0, fmt.Errorf("fault: bad %s %q (want a non-negative integer)", what, val)
		}
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("fault: bad %s %q: %v", what, val, err)
	}
	return v, nil
}

func parseConnFault(what, val string, w Window) (ConnFault, error) {
	c, err := parseIndex(what+" connection", val)
	if err != nil {
		return ConnFault{}, err
	}
	return ConnFault{Conn: c, Window: w}, nil
}
