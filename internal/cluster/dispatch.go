package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// upstream is one attempt's outcome: either a transport error or the
// replica's full HTTP answer with the headers the gateway re-exports.
type upstream struct {
	replica    int
	hedge      bool
	status     int
	body       []byte
	cache      string // X-FFCD-Cache
	trace      string // X-FFCD-Trace-ID as the replica assigned it
	retryAfter string // Retry-After on 429/503
	err        error  // transport-level failure (no HTTP answer)
}

// retryable reports whether the outcome is safe and useful to resend
// elsewhere. Transport errors never carried the request to a handler
// (or lost the answer — /run and /batch are idempotent by content
// address, so resending is safe either way); 503 is a replica draining
// or shedding; 429 is admission backpressure that Retry-After paces.
// Everything else — success or a deterministic 4xx — is final.
func (u upstream) retryable() bool {
	return u.err != nil || u.status == http.StatusServiceUnavailable || u.status == http.StatusTooManyRequests
}

// dispatch drives one logical request to completion across the
// preference list: launch on the first admitted replica, hedge to the
// next after HedgeAfter of silence, retry retryable outcomes with
// capped jittered backoff, and return the first final answer. It
// returns errPoolUnhealthy (wrapped in upstream.err) when no replica
// is admitted at all, and the last failing outcome when the attempt
// budget runs dry. trace, when nonzero, is forwarded as
// X-FFCD-Trace-ID on every attempt; sp (nil-safe) receives the
// probe/dispatch/retry phase boundaries.
func (g *Gateway) dispatch(ctx context.Context, path string, body []byte, prefs []int, trace obs.TraceID, sp *obs.Span) upstream {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()

	maxLaunch := g.cfg.MaxAttempts + 1 // retries budget + one hedge
	results := make(chan upstream, maxLaunch)
	attempts := 0 // normal launches, capped at MaxAttempts
	hedged := false
	outstanding := 0
	cursor := 0 // rotating index into prefs

	// launch sends the request to the next admitted replica in
	// preference order — skipping ejected replicas and open breakers —
	// and reports whether anything was launched.
	launch := func(hedge bool) bool {
		for scanned := 0; scanned < len(prefs); scanned++ {
			r := g.replicas[prefs[cursor%len(prefs)]]
			cursor++
			if r.st.isEjected() || !r.br.allow(g.clock.Now()) {
				continue
			}
			if hedge {
				hedged = true
			} else {
				attempts++
			}
			outstanding++
			go g.forward(ctx, r, path, body, trace, hedge, results)
			return true
		}
		return false
	}

	// feedback turns an outcome into breaker and health signals: any
	// HTTP answer proves the replica alive for ejection purposes, but
	// 5xx still counts against its breaker and health; a transport
	// error counts against both.
	feedback := func(u upstream) {
		r := g.replicas[u.replica]
		if u.err != nil || u.status >= 500 {
			r.br.failure(g.clock.Now())
			g.observeHealth(r, false)
			return
		}
		r.br.success()
		g.observeHealth(r, true)
	}

	sp.Phase("probe")
	if !launch(false) {
		g.shed.Inc()
		return upstream{err: errPoolUnhealthy}
	}
	sp.Phase("dispatch")

	var hedgeTimer <-chan time.Time
	if g.cfg.HedgeAfter > 0 && len(prefs) > 1 {
		hedgeTimer = g.clock.After(g.cfg.HedgeAfter)
	}
	retrying := false
	for {
		select {
		case u := <-results:
			outstanding--
			feedback(u)
			if !u.retryable() {
				if u.hedge && u.status == http.StatusOK {
					g.hedgeWins.Inc()
				}
				return u
			}
			if !retrying {
				retrying = true
				sp.Phase("retry")
			}
			if attempts >= g.cfg.MaxAttempts {
				// Budget spent: drain any in-flight hedge, else give the
				// caller the last failure to render.
				if outstanding > 0 {
					continue
				}
				return u
			}
			if outstanding > 0 {
				// A hedge is still running; let it race rather than
				// stacking a third copy behind a backoff sleep.
				continue
			}
			if err := g.clock.Sleep(ctx, g.backoff(attempts, u.retryAfter)); err != nil {
				return upstream{err: ctx.Err()}
			}
			if !launch(false) {
				// Everything admitted a moment ago is now ejected or
				// open; the last failure is the truest answer we have.
				return u
			}
			g.retries.Inc()

		case <-hedgeTimer:
			hedgeTimer = nil
			if !hedged && launch(true) {
				g.hedges.Inc()
			}

		case <-ctx.Done():
			return upstream{err: ctx.Err()}
		}
	}
}

// backoff computes the delay before retry number attempt (1-based
// count of launches so far). A parseable Retry-After is honored as the
// replica's explicit pacing signal; otherwise capped exponential
// backoff with seeded multiplicative jitter.
func (g *Gateway) backoff(attempt int, retryAfter string) time.Duration {
	d := g.cfg.BaseDelay << (attempt - 1)
	if d <= 0 || d > g.cfg.MaxDelay {
		d = g.cfg.MaxDelay
	}
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
			if d > g.cfg.MaxDelay {
				d = g.cfg.MaxDelay
			}
			return d
		}
	}
	g.jmu.Lock()
	f := 1 - g.cfg.Jitter + 2*g.cfg.Jitter*g.jitter.Float64()
	g.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// forward performs one upstream POST and delivers the outcome. The
// delivery select keeps the goroutine from outliving a dispatch that
// already returned: the results buffer absorbs stragglers while the
// dispatch runs, and ctx cancellation releases them after it returns.
func (g *Gateway) forward(ctx context.Context, r *replica, path string, body []byte, trace obs.TraceID, hedge bool, out chan<- upstream) {
	start := g.clock.Now()
	u := upstream{replica: r.idx, hedge: hedge}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		u.err = err
	} else {
		req.Header.Set("Content-Type", "application/json")
		if trace != 0 {
			req.Header.Set("X-FFCD-Trace-ID", trace.String())
		}
		resp, derr := g.client.Do(req)
		if derr != nil {
			u.err = derr
		} else {
			u.status = resp.StatusCode
			u.cache = resp.Header.Get("X-FFCD-Cache")
			u.trace = resp.Header.Get("X-FFCD-Trace-ID")
			u.retryAfter = resp.Header.Get("Retry-After")
			u.body, u.err = readCapped(resp.Body, resp.ContentLength, g.cfg.MaxResponseBytes)
			resp.Body.Close()
		}
	}
	r.lat.Observe(g.clock.Now().Sub(start).Seconds())
	select {
	case out <- u:
	case <-ctx.Done():
	}
}

// readCapped reads a response body up to max bytes, erroring — rather
// than truncating or reading without bound — when the body exceeds
// the cap. A Content-Length (declared; -1 for none) sizes the buffer
// as serve.ReadSized does, so a replica's report is read into one
// allocation; it is only a hint, and the cap binds whatever it says.
// Reading to EOF on the happy path is also what hands the connection
// back to the transport for reuse; over the cap the Close that follows
// severs the connection instead, which is the right outcome for a
// replica streaming garbage. Every response path — winners, retried
// non-2xx answers, hedge losers — funnels through this, so no forward
// goroutine can be pinned by an unbounded stream.
func readCapped(body io.Reader, declared, max int64) ([]byte, error) {
	b, err := serve.ReadSized(io.LimitReader(body, max+1), declared, max)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > max {
		return nil, fmt.Errorf("cluster: upstream response exceeds %d bytes", max)
	}
	return b, nil
}
