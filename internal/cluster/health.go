package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"

	"github.com/nettheory/feedbackflow/internal/obs"
)

// maxProbeDrain bounds how much of a /healthz response body a probe
// will drain before closing; sane bodies are a few hundred bytes.
const maxProbeDrain = 64 << 10

// replica is one pool member: its base URL, health/breaker state, and
// per-replica instruments.
type replica struct {
	idx  int
	base string // e.g. "http://127.0.0.1:8080", no trailing slash

	st replicaState
	br breaker

	// Instruments. gateway.replica.<i>.healthy (1 = in rotation,
	// 0 = ejected) and .ring_share (ring keyspace share) are GaugeFuncs
	// read from st and the ring at scrape time.
	lat      *obs.Histogram // gateway.replica.<i>.latency
	breakerG *obs.Gauge     // breakerClosed/HalfOpen/Open
}

// replicaState is the ejection state machine fed by both active
// /healthz probes and passive request outcomes: EjectAfter consecutive
// failures take the replica out of rotation, ReadmitAfter consecutive
// probe successes put it back. Ejection gates routing only — probing
// continues while ejected, which is the readmission path.
type replicaState struct {
	mu      sync.Mutex
	ejected bool
	fails   int // consecutive failures (probe or passive)
	oks     int // consecutive successes while ejected
}

// fail records a failed probe or request against the replica and
// reports whether this call ejected it.
func (s *replicaState) fail(ejectAfter int) (ejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.oks = 0
	s.fails++
	if !s.ejected && s.fails >= ejectAfter {
		s.ejected = true
		return true
	}
	return false
}

// ok records a successful probe or request and reports whether this
// call readmitted the replica.
func (s *replicaState) ok(readmitAfter int) (readmitted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails = 0
	if !s.ejected {
		return false
	}
	s.oks++
	if s.oks >= readmitAfter {
		s.ejected = false
		s.oks = 0
		return true
	}
	return false
}

// isEjected reports whether the replica is out of rotation.
func (s *replicaState) isEjected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ejected
}

// Run is the active health-check loop: probe every replica, sleep the
// probe interval, repeat until ctx is done. cmd/ffcgw runs it
// alongside ListenAndServe; tests call ProbeAll directly for
// deterministic stepping.
func (g *Gateway) Run(ctx context.Context) error {
	for {
		g.ProbeAll(ctx)
		if err := g.clock.Sleep(ctx, g.cfg.ProbeInterval); err != nil {
			return ctx.Err()
		}
	}
}

// ProbeAll probes every replica's /healthz once, concurrently, feeding
// the ejection machines. A replica that answers anything but 200 —
// including the 503 a draining ffcd flips to — counts as failed, so a
// replica announcing shutdown is ejected before its listener
// disappears. The probes run in parallel so one black-holed replica
// costs the round ProbeTimeout once, not once per dead replica —
// ejection latency stays within a few probe intervals however many
// replicas fail together.
func (g *Gateway) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range g.replicas {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			g.probeOne(ctx, r)
		}(r)
	}
	wg.Wait()
}

func (g *Gateway) probeOne(ctx context.Context, r *replica) {
	g.probes.Inc()
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, r.base+"/healthz", nil)
	if err == nil {
		resp, derr := g.client.Do(req)
		if derr == nil {
			// Drain a bounded amount before Close: enough to let a sane
			// /healthz body (a few hundred bytes) finish and the probe
			// connection be reused, without letting a misbehaving
			// replica pin the probe goroutine on an endless stream.
			io.CopyN(io.Discard, resp.Body, maxProbeDrain)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	if ok {
		g.observeHealth(r, true)
	} else {
		g.probeFails.Inc()
		g.observeHealth(r, false)
	}
}

// observeHealth feeds one health signal — active probe or passive
// request outcome — into the replica's ejection machine and keeps the
// counters in step.
func (g *Gateway) observeHealth(r *replica, ok bool) {
	if ok {
		if r.st.ok(g.cfg.ReadmitAfter) {
			g.readmissions.Inc()
		}
		return
	}
	if r.st.fail(g.cfg.EjectAfter) {
		g.ejections.Inc()
	}
}
