// Benchmarks: one per reproduced table/figure (the E1–E22 experiment
// suite plus the A1–A3 ablations), each regenerating its exhibit end
// to end, followed by micro-benchmarks of the core model operations.
//
// Run with:
//
//	go test -bench=. -benchmem
package feedbackflow_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	ff "github.com/nettheory/feedbackflow"
	"github.com/nettheory/feedbackflow/internal/scenario/scenariotest"
)

// benchExperiment runs one registered experiment per iteration and
// fails the benchmark if the reproduction checks stop holding.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := ff.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s no longer reproduces:\n%s", id, res.Render())
		}
	}
}

// BenchmarkE1FairShareTable regenerates Table 1 (the Fair Share
// priority decomposition).
func BenchmarkE1FairShareTable(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2TimeScaleInvariance regenerates the Theorem 1 scaling and
// latency-invariance exhibit.
func BenchmarkE2TimeScaleInvariance(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3AggregateManifold regenerates the Theorem 2 steady-state
// manifold exhibit.
func BenchmarkE3AggregateManifold(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4IndividualFairness regenerates the Theorem 3 unique-fair-
// steady-state exhibit.
func BenchmarkE4IndividualFairness(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5StabilityBoundary regenerates the Section 3.3 stability
// boundary (η_crit = 2/N) exhibit.
func BenchmarkE5StabilityBoundary(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Bifurcation regenerates the Section 3.3 period-doubling /
// chaos exhibit.
func BenchmarkE6Bifurcation(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7FSTriangularStability regenerates the Theorem 4
// triangularity exhibit.
func BenchmarkE7FSTriangularStability(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8RobustnessCriterion regenerates the Theorem 5 criterion
// exhibit.
func BenchmarkE8RobustnessCriterion(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Heterogeneity regenerates the Section 3.4 heterogeneous-
// laws exhibit.
func BenchmarkE9Heterogeneity(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10DelayVsReservation regenerates the Section 3.4 factor-N
// delay exhibit.
func BenchmarkE10DelayVsReservation(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11SimValidation regenerates the packet-level validation of
// the analytic queue models (the slowest experiment: ~10⁶ simulated
// events per iteration).
func BenchmarkE11SimValidation(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12DECbitModels regenerates the Section 4 window-vs-rate
// LIMD exhibit.
func BenchmarkE12DECbitModels(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13NetworkValidation regenerates the tandem-network test of
// the Poisson-output approximation.
func BenchmarkE13NetworkValidation(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14BinaryAIMD regenerates the Section 4 binary-feedback
// AIMD oscillation exhibit.
func BenchmarkE14BinaryAIMD(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Asynchrony regenerates the asynchronous-updates
// extension exhibit.
func BenchmarkE15Asynchrony(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16FairQueueing regenerates the Fair Queueing vs Fair Share
// comparison.
func BenchmarkE16FairQueueing(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17ConvergenceRate regenerates the spectral-radius vs
// measured-decay exhibit.
func BenchmarkE17ConvergenceRate(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18Burstiness regenerates the Poisson-assumption
// sensitivity exhibit.
func BenchmarkE18Burstiness(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19WindowDynamics regenerates the genuine window-based
// flow control exhibit.
func BenchmarkE19WindowDynamics(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20Greed regenerates the selfish-sources equilibrium
// exhibit.
func BenchmarkE20Greed(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkAblationJacobian regenerates the A1 finite-difference
// scheme ablation called out in DESIGN.md.
func BenchmarkAblationJacobian(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkAblationSignalFamily regenerates the A2 signal-family
// independence ablation called out in DESIGN.md.
func BenchmarkAblationSignalFamily(b *testing.B) { benchExperiment(b, "A2") }

// --- component micro-benchmarks ---

func benchRates(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 0.8 / float64(n) * (1 + 0.5*float64(i%3))
	}
	return r
}

// BenchmarkFIFOQueues measures the FIFO Q(r) computation (N=32).
func BenchmarkFIFOQueues(b *testing.B) {
	r := benchRates(32)
	var d ff.FIFO
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Queues(r, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairShareQueues sweeps the Fair Share prefix-sum kernel
// (ObserveQueuesInto: one sort, one forward-substitution sweep) across
// gateway populations, through the zero-alloc in-place entry point.
// The per-op cost must scale as N log N — the O(N²) min-scans are
// gone (see docs/PERFORMANCE.md).
func BenchmarkFairShareQueues(b *testing.B) {
	for _, n := range []int{32, 512, 4096, 65536} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { benchFairShareKernel(b, n) })
	}
}

// benchFairShareKernel measures the in-place Fair Share evaluation at
// gateway population n.
func benchFairShareKernel(b *testing.B, n int) {
	r := benchRates(n)
	q := make([]float64, n)
	w := make([]float64, n)
	scr := new(ff.QueueingScratch)
	scr.Grow(n)
	var d ff.FairShare
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ff.ObserveQueuesInto(d, q, w, r, 2, scr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemStep measures one synchronous update of a 32-
// connection individual-feedback Fair Share system.
func BenchmarkSystemStep(b *testing.B) {
	net, err := ff.SingleGateway(32, 2, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	law := ff.AdditiveTSI{Eta: 0.1, BSS: 0.5}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, 32))
	if err != nil {
		b.Fatal(err)
	}
	r := benchRates(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepNoTracer measures the same 32-connection Fair Share
// update through the instrumented step path with tracing disabled.
// Its allocs/op must match BenchmarkSystemStep's exactly: the
// telemetry layer (per-step residual tracking, RunStats, the nil
// tracer check) is free when no tracer is attached. Since the
// workspace kernel landed, both sit at 1 alloc/op — the returned rate
// slice — down from 88 in the pre-plan implementation; the steady
// zero-alloc path is BenchmarkWorkspaceStep.
func BenchmarkStepNoTracer(b *testing.B) {
	net, err := ff.SingleGateway(32, 2, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	law := ff.AdditiveTSI{Eta: 0.1, BSS: 0.5}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, 32))
	if err != nil {
		b.Fatal(err)
	}
	r := benchRates(32)
	var opt ff.RunOptions // nil Tracer: the traced branch must never run
	if opt.Tracer != nil {
		b.Fatal("tracer unexpectedly set")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(r); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSystem builds the standard micro-benchmark system: n
// connections, one gateway, individual-feedback Fair Share.
func benchSystem(b *testing.B, n int) *ff.System {
	b.Helper()
	net, err := ff.SingleGateway(n, 2, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	law := ff.AdditiveTSI{Eta: 0.1, BSS: 0.5}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, n))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkObserve measures one full observation (queues, sojourns,
// signals, delays, bottlenecks) of the 32-connection system through
// the allocating System.Observe, whose result the caller may retain.
func BenchmarkObserve(b *testing.B) {
	sys := benchSystem(b, 32)
	r := benchRates(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Observe(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceObserve measures the same observation through a
// reused Workspace — the allocation-free kernel behind Step and Run.
func BenchmarkWorkspaceObserve(b *testing.B) {
	sys := benchSystem(b, 32)
	ws := sys.NewWorkspace()
	r := benchRates(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Observe(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkspaceStep measures one synchronous update through a
// reused Workspace writing into a caller buffer: the zero-alloc
// steady-state path.
func BenchmarkWorkspaceStep(b *testing.B) {
	sys := benchSystem(b, 32)
	ws := sys.NewWorkspace()
	r := benchRates(32)
	next := make([]float64, len(r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Step(r, next); err != nil {
			b.Fatal(err)
		}
		r, next = next, r
	}
}

// benchRun measures a fixed-length 100-step Run (convergence disabled
// via an unreachable tolerance) at system size n, so ops are
// comparable across sizes.
func benchRun(b *testing.B, n int) {
	sys := benchSystem(b, n)
	r0 := benchRates(n)
	// NoEarlyStop: exactly 100 plain updates, the kernel's cost.
	opt := ff.RunOptions{MaxSteps: 100, NoEarlyStop: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(r0, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures 100-step runs across system sizes up to the
// quarter-million-connection regime; the per-step cost is dominated by
// the Fair Share recursion (O(n log n) sort plus O(n) accumulation at
// the single gateway) and the batched individual-feedback signals.
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{4, 64, 512, 4096, 65536, 262144} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { benchRun(b, n) })
	}
}

// BenchmarkRunPopulation measures a discrete miss on the homogeneous
// populations ffbench's pool workload sends — Build, Run to steady
// state and Report of a document of count=N classes of identical
// sources under aggregate feedback — at 32, 352 and 10⁵ connections.
// Run iterates each class as one weighted slot, so the cost left
// grows with N only through Build and the connection-indexed answer.
func BenchmarkRunPopulation(b *testing.B) {
	for _, counts := range [][]int64{{16, 16}, {256, 64, 32}, {60000, 40000}} {
		n := int64(0)
		for _, c := range counts {
			n += c
		}
		spec, err := ff.LoadScenario(bytes.NewReader(scenariotest.Pool(1, counts...)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, r0, err := spec.Build()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.Run(r0, spec.RunOptions())
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
				if _, err := sys.Report(res, spec.Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunHeterogeneous measures full convergence runs of
// heterogeneous multi-gateway systems in the shape ffcd's solve
// workloads send: 96 connections on random contiguous paths over a
// 4-gateway line, a distinct multiplicative gain and target signal
// per connection, individual feedback, run to steady state. Rates and
// queues change little from one step to the next here, so each
// gateway's sort orders are repaired from the previous step rather
// than rebuilt (see docs/PERFORMANCE.md). It reports the updates each
// run applies as steps/op.
func BenchmarkRunHeterogeneous(b *testing.B) {
	for _, disc := range []ff.Discipline{ff.FairShare{}, ff.FIFO{}} {
		b.Run(disc.Name(), func(b *testing.B) {
			sys, r0 := heteroSystem(b, disc)
			b.ReportAllocs()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := sys.Run(r0, ff.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// heteroSystem builds BenchmarkRunHeterogeneous's system, its gains,
// targets and paths drawn from a fixed seed, and its initial rates.
func heteroSystem(b *testing.B, disc ff.Discipline) (*ff.System, []float64) {
	b.Helper()
	const gw, n = 4, 96
	rng := rand.New(rand.NewSource(1))
	var nb ff.NetworkBuilder
	for a := 0; a < gw; a++ {
		nb.AddGateway(fmt.Sprintf("g%d", a), (1+rng.Float64())*float64(n)/float64(gw), 0.05+0.1*rng.Float64())
	}
	laws := make([]ff.Law, n)
	for i := range laws {
		lo := rng.Intn(gw)
		hi := lo + rng.Intn(gw-lo)
		path := make([]int, 0, hi-lo+1)
		for a := lo; a <= hi; a++ {
			path = append(path, a)
		}
		nb.AddConnection(path...)
		eta := 1.2 + 0.7*(float64(i)+rng.Float64())/float64(n)
		laws[i] = ff.MultiplicativeTSI{Eta: eta, BSS: 0.2 + 0.6*rng.Float64()}
	}
	net, err := nb.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := ff.NewSystem(net, disc, ff.Individual, ff.Rational{}, laws)
	if err != nil {
		b.Fatal(err)
	}
	r0 := make([]float64, n)
	for i := range r0 {
		r0[i] = 0.1
	}
	return sys, r0
}

// benchReplicate measures 8 replications of a short packet-level
// simulation distributed over the given worker count.
func benchReplicate(b *testing.B, workers int) {
	cfg := ff.GatewaySimConfig{
		Rates:      []float64{0.3, 0.4},
		Mu:         1,
		Discipline: ff.SimFIFO,
		Seed:       1,
		Duration:   500,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ff.ReplicateGatewayParallel(cfg, 8, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateParallel compares sequential replication against
// the worker pool. Speedup tracks available CPUs: on a single-core
// host the two are equivalent (the 1-worker case bypasses the pool's
// goroutines entirely), and the output is bit-identical in both.
func BenchmarkReplicateParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchReplicate(b, workers) })
	}
}

// BenchmarkRunToSteadyState measures a full convergence run of the
// quickstart scenario.
func BenchmarkRunToSteadyState(b *testing.B) {
	net, err := ff.SingleGateway(8, 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	law := ff.AdditiveTSI{Eta: 0.1, BSS: 0.5}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, 8))
	if err != nil {
		b.Fatal(err)
	}
	r0 := benchRates(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Run(r0, ff.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkStabilityAnalysis measures a full Jacobian + eigenvalue
// classification at N=16.
func BenchmarkStabilityAnalysis(b *testing.B) {
	net, err := ff.SingleGateway(16, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	law := ff.AdditiveTSI{Eta: 0.1, BSS: 0.5}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, 16))
	if err != nil {
		b.Fatal(err)
	}
	r := benchRates(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ff.AnalyzeStability(sys, r, 1e-7, ff.ForwardDiff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventSim measures the packet-level simulator's event
// throughput (reported as time per simulation of 2000 time units at
// total event rate ≈ 1.8/unit).
func BenchmarkEventSim(b *testing.B) {
	cfg := ff.GatewaySimConfig{
		Rates:      []float64{0.2, 0.3, 0.3},
		Mu:         1,
		Discipline: ff.SimFairShare,
		Seed:       1,
		Duration:   2000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ff.SimulateGateway(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairAllocation measures the Theorem 2 progressive-filling
// construction on a 10-gateway, 40-connection parking lot.
func BenchmarkFairAllocation(b *testing.B) {
	net, err := ff.ParkingLot(10, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ff.FairAllocation(net, ff.Rational{}, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPreemption regenerates the A3 preemption
// ablation for Theorem 5.
func BenchmarkAblationPreemption(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkE21ConjectureSweep regenerates the Section 3.3 conjecture
// evidence sweep.
func BenchmarkE21ConjectureSweep(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22FaultRecovery regenerates the Theorem-5-under-faults
// recovery comparison (four perturbed runs with full trajectories).
func BenchmarkE22FaultRecovery(b *testing.B) { benchExperiment(b, "E22") }

// BenchmarkE23FluidConvergence regenerates the fluid-vs-discrete
// population ladder cross-validation.
func BenchmarkE23FluidConvergence(b *testing.B) { benchExperiment(b, "E23") }
