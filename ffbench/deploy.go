package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/nettheory/feedbackflow/internal/cluster"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// deployment is a running ffcd pool, optionally fronted by one ffcgw,
// all in this process and reached over loopback HTTP.
type deployment struct {
	replicas []*serve.Server
	addrs    []string // replica listen addresses, host:port
	gw       *cluster.Gateway
	url      string // where clients POST /run

	// replicaSpans and gatewaySpans collect the completed spans when
	// the deployment is traced; both are nil otherwise.
	replicaSpans *spanSink
	gatewaySpans *spanSink

	gwTransport *http.Transport
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	mu          sync.Mutex
	errs        []error
}

// replicaName is replica i's base URL as the gateway knows it. The
// ring hashes these names, so fixed names (resolved to the ephemeral
// ports by the gateway client's dialer) give every run of a seed the
// same key placement, and with it the same hit/miss sequence.
func replicaName(i int) string { return "ffcd-" + strconv.Itoa(i) }

// deploy starts w's replicas (and gateway) on 127.0.0.1:0 and returns
// once every listener is bound: ListenAndServe reports its address
// only after net.Listen succeeded, so there is nothing to poll.
func deploy(w *workload, traced bool) (*deployment, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{cancel: cancel}
	var replicaTracer, gatewayTracer *obs.Tracer
	if traced {
		d.replicaSpans = &spanSink{}
		replicaTracer = obs.NewTracer(d.replicaSpans)
		if w.Gateway {
			d.gatewaySpans = &spanSink{}
			gatewayTracer = obs.NewTracer(d.gatewaySpans)
		}
	}
	for i := 0; i < w.Replicas; i++ {
		s := serve.New(serve.Config{CacheEntries: w.CacheEntries, Tracer: replicaTracer})
		addr, err := d.listen(ctx, s.ListenAndServe)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("ffcd replica %d: %w", i, err)
		}
		d.replicas = append(d.replicas, s)
		d.addrs = append(d.addrs, addr)
	}
	d.url = "http://" + d.addrs[0]
	if !w.Gateway {
		return d, nil
	}

	names := make([]string, len(d.addrs))
	byHost := make(map[string]string, len(d.addrs))
	for i, a := range d.addrs {
		names[i] = "http://" + replicaName(i)
		byHost[replicaName(i)+":80"] = a
	}
	var dialer net.Dialer
	d.gwTransport = &http.Transport{
		DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
			a, ok := byHost[hostport]
			if !ok {
				return nil, fmt.Errorf("unknown replica %q", hostport)
			}
			return dialer.DialContext(ctx, network, a)
		},
		MaxIdleConnsPerHost: 4,
	}
	gw, err := cluster.New(cluster.Config{
		Replicas: names,
		Client:   &http.Client{Transport: d.gwTransport},
		Clock: cluster.Clock{
			Now: time.Now,
			Sleep: func(ctx context.Context, dur time.Duration) error {
				t := time.NewTimer(dur)
				defer t.Stop()
				select {
				case <-t.C:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
			After: time.After,
		},
		Tracer: gatewayTracer,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	d.gw = gw
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		gw.Run(ctx) // returns ctx.Err() once the deployment closes
	}()
	addr, err := d.listen(ctx, gw.ListenAndServe)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("ffcgw: %w", err)
	}
	d.url = "http://" + addr
	return d, nil
}

type listenFunc func(ctx context.Context, addr string, drain time.Duration, onReady func(net.Addr)) error

// listen runs one ListenAndServe until the deployment closes and
// returns the address it bound.
func (d *deployment) listen(ctx context.Context, serveFn listenFunc) (string, error) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		err := serveFn(ctx, "127.0.0.1:0", 10*time.Second, func(a net.Addr) { ready <- a.String() })
		if err != nil {
			d.mu.Lock()
			d.errs = append(d.errs, err)
			d.mu.Unlock()
		}
		done <- err
	}()
	select {
	case a := <-ready:
		return a, nil
	case err := <-done:
		return "", err
	}
}

// close drains every server, waits for all of their goroutines to
// return, and reports any error they returned.
func (d *deployment) close() error {
	d.cancel()
	d.wg.Wait()
	if d.gwTransport != nil {
		d.gwTransport.CloseIdleConnections()
	}
	if len(d.errs) > 0 {
		return d.errs[0]
	}
	return nil
}

// cacheCounters sums the replicas' runcache counters.
func (d *deployment) cacheCounters() (hits, misses, evictions, bytes float64) {
	for _, s := range d.replicas {
		snap := s.CacheSnapshot()
		hits += num(snap["runcache.hits"])
		misses += num(snap["runcache.misses"])
		evictions += num(snap["runcache.evictions"])
		bytes += num(snap["runcache.bytes"])
	}
	return
}

// serveCounter sums one serve-layer counter over the replicas.
func (d *deployment) serveCounter(name string) float64 {
	total := 0.0
	for _, s := range d.replicas {
		total += num(s.Snapshot()[name])
	}
	return total
}

// gatewayCounter reads one gateway counter (0 without a gateway).
func (d *deployment) gatewayCounter(name string) float64 {
	if d.gw == nil {
		return 0
	}
	return num(d.gw.Snapshot()[name])
}

// num reads a registry snapshot value: int64 for counters, float64
// for gauges.
func num(v interface{}) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// spanSink keeps every completed span in memory until the run ends.
type spanSink struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	trace  string
	name   string
	durNS  int64
	phases map[string]int64
}

// EmitSpan implements obs.SpanSink; the event is borrowed, so it is
// copied.
func (s *spanSink) EmitSpan(ev *obs.SpanEvent) {
	sp := span{trace: ev.Trace, name: ev.Span, durNS: ev.DurNS, phases: make(map[string]int64, len(ev.Phases))}
	for _, p := range ev.Phases {
		sp.phases[p.Name] += p.DurNS
	}
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *spanSink) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.spans...)
}
