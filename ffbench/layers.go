package main

import (
	"bytes"
	"time"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/queueing"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/signal"
)

// kernelReps is how many times the layer timer repeats each gateway's
// queueing and signal kernel call, so one timing spans tens of
// microseconds rather than a few clock ticks.
const kernelReps = 200

// layerTimes solves w.Sample corpus documents in-process (see
// workload.SampleStride), timing each public call the serving path
// makes: scenario.Load, Build (or fluid.FromSpec for fluid-sized
// populations, as ffcd's auto backend resolves them), Canonical, and
// the solve; and, at each discrete solve's final rates,
// queueing.ObserveInto and signal.GatewaySignalsBatched at every
// gateway. Step and convergence
// counts are exact for a seed.
func layerTimes(c *corpus) (map[string]float64, error) {
	var load, build, canon, coreMS, fluidUS []float64
	var coreSteps, fluidSteps, coreConv, fluidConv, coreRuns, fluidRuns int
	var coreTotal time.Duration
	var observeNS, signalNS, kernelConns float64
	for j := 0; j < c.w.Sample; j++ {
		doc := c.doc(j * c.w.SampleStride % c.w.Corpus)
		t := time.Now()
		sp, err := scenario.Load(bytes.NewReader(doc))
		if err != nil {
			return nil, err
		}
		load = append(load, us(time.Since(t)))
		total, err := sp.TotalConnections()
		if err != nil {
			return nil, err
		}
		opts := sp.RunOptions()
		if total >= fluid.DefaultThreshold {
			t = time.Now()
			sys, r0, err := fluid.FromSpec(sp)
			if err != nil {
				return nil, err
			}
			build = append(build, us(time.Since(t)))
			t = time.Now()
			if _, err := sp.Canonical(); err != nil {
				return nil, err
			}
			canon = append(canon, us(time.Since(t)))
			t = time.Now()
			res, err := sys.Run(r0, opts)
			if err != nil {
				return nil, err
			}
			fluidUS = append(fluidUS, us(time.Since(t)))
			fluidRuns++
			fluidSteps += res.Steps
			if res.Converged {
				fluidConv++
			}
			continue
		}
		t = time.Now()
		sys, r0, err := sp.Build()
		if err != nil {
			return nil, err
		}
		build = append(build, us(time.Since(t)))
		t = time.Now()
		if _, err := sp.Canonical(); err != nil {
			return nil, err
		}
		canon = append(canon, us(time.Since(t)))
		t = time.Now()
		res, err := sys.Run(r0, opts)
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		coreTotal += d
		coreMS = append(coreMS, float64(d.Nanoseconds())/1e6)
		coreRuns++
		coreSteps += res.Steps
		if res.Converged {
			coreConv++
		}
		on, sn, n, err := kernelTimes(sys, res.Rates)
		if err != nil {
			return nil, err
		}
		observeNS += on
		signalNS += sn
		kernelConns += n
	}
	m := map[string]float64{
		"scenario.load_us":      median(load),
		"scenario.build_us":     median(build),
		"scenario.canonical_us": median(canon),
		"core.run_ms":           median(coreMS),
		"core.steps":            float64(coreSteps),
		"fluid.run_us":          median(fluidUS),
		"fluid.steps":           float64(fluidSteps),
	}
	m["core.step_us"] = ratio(us(coreTotal), float64(coreSteps))
	m["core.converged_ratio"] = ratio(float64(coreConv), float64(coreRuns))
	m["fluid.converged_ratio"] = ratio(float64(fluidConv), float64(fluidRuns))
	m["queueing.observe_ns_per_conn"] = ratio(observeNS, kernelConns)
	m["signal.batched_ns_per_conn"] = ratio(signalNS, kernelConns)
	return m, nil
}

// kernelTimes times the per-gateway observation kernels at rates r:
// queueing.ObserveInto (queues and sojourn times under the system's
// discipline) and signal.GatewaySignalsBatched (congestion signals
// under its feedback style), kernelReps times per gateway. It returns
// the total nanoseconds of each and the connection-visits they
// covered.
func kernelTimes(sys *core.System, r []float64) (observeNS, signalNS, conns float64, err error) {
	net := sys.Network()
	var qs queueing.Scratch
	var ss signal.Scratch
	for a := 0; a < net.NumGateways(); a++ {
		ids := net.Connections(a)
		local := make([]float64, len(ids))
		for k, i := range ids {
			local[k] = r[i]
		}
		q := make([]float64, len(ids))
		soj := make([]float64, len(ids))
		sig := make([]float64, len(ids))
		mu := net.Gateway(a).Mu
		t := time.Now()
		for rep := 0; rep < kernelReps; rep++ {
			if err := queueing.ObserveInto(sys.Discipline(), q, soj, local, mu, &qs); err != nil {
				return 0, 0, 0, err
			}
		}
		observeNS += float64(time.Since(t).Nanoseconds())
		t = time.Now()
		for rep := 0; rep < kernelReps; rep++ {
			if err := signal.GatewaySignalsBatched(sig, sys.Style(), sys.SignalFunc(), q, &ss); err != nil {
				return 0, 0, 0, err
			}
		}
		signalNS += float64(time.Since(t).Nanoseconds())
		conns += float64(kernelReps * len(ids))
	}
	return observeNS, signalNS, conns, nil
}

// spanLayers reduces the spans of the traced window's requests (the
// warm-up's are left out by their trace IDs): ffcd's phases (medians
// over the requests that have each phase), the client time outside
// the outermost span, and ffcgw's overhead over its replica, joined on
// the trace ID the gateway forwards.
func spanLayers(d *deployment, win *window) map[string]float64 {
	m := map[string]float64{}
	replica := d.replicaSpans.snapshot()
	phases := map[string][]float64{}
	byTrace := make(map[string]int64, len(replica))
	for _, sp := range replica {
		if _, timed := win.traceLatMS[sp.trace]; !timed || sp.name != "run" {
			continue
		}
		byTrace[sp.trace] = sp.durNS
		for name, ns := range sp.phases {
			phases[name] = append(phases[name], float64(ns)/1e3)
		}
	}
	for _, name := range []string{"parse", "canonicalize", "cache", "queue", "solve", "render"} {
		m["serve."+name+"_us"] = median(phases[name])
	}
	outer := byTrace
	var overhead, route, dispatch []float64
	if d.gatewaySpans != nil {
		outer = map[string]int64{}
		for _, sp := range d.gatewaySpans.snapshot() {
			if _, timed := win.traceLatMS[sp.trace]; !timed || sp.name != "gateway.run" {
				continue
			}
			outer[sp.trace] = sp.durNS
			if rd, ok := byTrace[sp.trace]; ok {
				overhead = append(overhead, float64(sp.durNS-rd)/1e3)
			}
			route = append(route, float64(sp.phases["route"])/1e3)
			dispatch = append(dispatch, float64(sp.phases["dispatch"])/1e3)
		}
	}
	var unattributed []float64
	for trace, latMS := range win.traceLatMS {
		if ns, ok := outer[trace]; ok {
			unattributed = append(unattributed, latMS*1e3-float64(ns)/1e3)
		}
	}
	m["serve.unattributed_us"] = median(unattributed)
	m["cluster.overhead_us"] = median(overhead)
	m["cluster.route_us"] = median(route)
	m["cluster.dispatch_us"] = median(dispatch)
	m["cluster.retries"] = d.gatewayCounter("gateway.retries")
	m["cluster.hedges"] = d.gatewayCounter("gateway.hedges")
	m["cluster.shed"] = d.gatewayCounter("gateway.shed")
	return m
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when there is nothing to divide by (a layer that
// did no work on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
