// Command ffc runs one feedback flow control scenario to steady state
// and reports the resulting throughput allocation, fairness, and
// linear stability — a workbench for exploring the paper's 2×2 design
// space ({aggregate, individual} feedback × {FIFO, FairShare}
// gateways) on canned topologies.
//
// Examples:
//
//	ffc -topology single -n 4 -feedback individual -discipline fairshare
//	ffc -topology parkinglot -hops 3 -feedback aggregate -eta 0.3
//	ffc -law window -eta 0.02 -beta 0.2          # DECbit-style window LIMD
//	ffc -metrics-json run.json -trace 2>steps.tsv # instrumented run
//	ffc -fault "seed=3,loss=0.5@50-120,outage=0@150-170" -steps 2000
//
// With -fault, ffc runs the robustness protocol of docs/ROBUSTNESS.md:
// an unperturbed baseline run to the fixed point, a second run with
// the spec's faults injected, and a recovery analysis of the faulted
// trajectory (time-to-reconvergence, rate and queue excursions,
// starvation windows). The process exits 1 when the system fails to
// reconverge. With -trace, both runs stream to stderr in order.
//
// ffc solves each scenario once and exits. To serve a scenario family
// repeatedly — the same -config documents POSTed over HTTP, solved
// once per distinct spec and answered from a content-addressed result
// cache thereafter — run the ffcd daemon instead (docs/SERVING.md).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	ff "github.com/nettheory/feedbackflow"
	"github.com/nettheory/feedbackflow/internal/cli"
	"github.com/nettheory/feedbackflow/internal/fluid"
	"github.com/nettheory/feedbackflow/internal/obs"
)

// obsFlags carries the telemetry options threaded through every run
// path: -metrics-json and -trace.
type obsFlags struct {
	metricsJSON string
	trace       bool
	traceEvery  int
}

func main() {
	var (
		config   = flag.String("config", "", "JSON scenario file (overrides the topology/law flags)")
		dot      = flag.Bool("dot", false, "print the topology as Graphviz DOT and exit")
		topo     = flag.String("topology", "single", "topology: single, parkinglot, star, ring, dumbbell")
		n        = flag.Int("n", 4, "connections (single) / leaves (star) / size (ring) / pairs (dumbbell)")
		hops     = flag.Int("hops", 3, "gateways in the parking lot / hops per ring connection")
		mu       = flag.Float64("mu", 1.0, "gateway service rate")
		latency  = flag.Float64("latency", 0.1, "line latency per gateway")
		disc     = flag.String("discipline", "fairshare", "gateway discipline: fifo, fairshare")
		feedback = flag.String("feedback", "individual", "feedback style: aggregate, individual")
		lawName  = flag.String("law", "additive", "rate law: additive, multiplicative, fairrate, window")
		eta      = flag.Float64("eta", 0.1, "law gain η")
		beta     = flag.Float64("beta", 0.5, "law decrease factor β (fairrate/window)")
		bss      = flag.Float64("bss", 0.5, "target steady-state signal b_SS (additive/multiplicative)")
		steps    = flag.Int("steps", 200000, "max iteration steps")
		seed     = flag.Int64("seed", 1, "seed for the random initial rates")
		faultStr = flag.String("fault", "", "fault-injection spec, e.g. \"seed=3,loss=0.5@50-120,outage=0@150-170\" (docs/ROBUSTNESS.md)")
		backend  = flag.String("backend", "auto", "solver backend for -config scenarios: auto, discrete, or fluid (docs/FLUID.md)")
	)
	var ofl obsFlags
	flag.StringVar(&ofl.metricsJSON, "metrics-json", "", "write a machine-readable run report to this path (\"-\" for stdout)")
	flag.BoolVar(&ofl.trace, "trace", false, "stream a per-step TSV trace (step, residual, rates, signals) to stderr")
	flag.IntVar(&ofl.traceEvery, "trace-every", 1, "with -trace, emit every k'th step")
	flag.Parse()

	if *dot && (ofl.trace || ofl.metricsJSON != "" || *faultStr != "") {
		fatal(fmt.Errorf("-dot prints a topology and runs nothing; it cannot be combined with -trace, -metrics-json, or -fault"))
	}
	if ofl.traceEvery < 1 {
		fatal(fmt.Errorf("-trace-every must be at least 1, got %d", ofl.traceEvery))
	}
	faultCfg, err := ff.ParseFaultSpec(*faultStr)
	if err != nil {
		fatal(fmt.Errorf("-fault: %w", err))
	}
	switch *backend {
	case "auto", "discrete", "fluid":
	default:
		fatal(fmt.Errorf("-backend %q: want auto, discrete, or fluid", *backend))
	}
	if *backend == "fluid" {
		if *config == "" {
			fatal(fmt.Errorf("-backend=fluid solves declarative scenarios; pass one with -config"))
		}
		if faultCfg.Enabled() {
			fatal(fmt.Errorf("-fault is per-connection and requires the discrete backend"))
		}
	}

	if *config != "" {
		if err := runConfig(*config, ofl, faultCfg, *backend); err != nil {
			fatal(err)
		}
		return
	}

	if *dot {
		net, err := buildTopology(*topo, *n, *hops, *mu, *latency)
		if err != nil {
			fatal(err)
		}
		if err := ff.WriteDOT(os.Stdout, net, *topo); err != nil {
			fatal(err)
		}
		return
	}

	net, err := buildTopology(*topo, *n, *hops, *mu, *latency)
	if err != nil {
		fatal(err)
	}
	discipline, err := parseDiscipline(*disc)
	if err != nil {
		fatal(err)
	}
	style, err := parseFeedback(*feedback)
	if err != nil {
		fatal(err)
	}
	law, err := buildLaw(*lawName, *eta, *beta, *bss)
	if err != nil {
		fatal(err)
	}

	nc := net.NumConnections()
	sys, err := ff.NewSystem(net, discipline, style, ff.Rational{}, ff.UniformLaws(law, nc))
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	r0 := make([]float64, nc)
	for i := range r0 {
		r0[i] = 0.01 + rng.Float64()*0.5**mu/float64(nc)
	}

	fmt.Printf("scenario: %s topology, %s gateways, %s feedback, law %s\n",
		*topo, discipline.Name(), style, law.Name())
	if faultCfg.Enabled() {
		if err := runFaulted(sys, r0, ff.RunOptions{MaxSteps: *steps}, *topo, ofl, faultCfg); err != nil {
			fatal(err)
		}
		return
	}
	if err := runAndReport(sys, r0, ff.RunOptions{MaxSteps: *steps}, *topo, ofl); err != nil {
		fatal(err)
	}
}

// runConfig loads a declarative JSON scenario and reports its run,
// solving with the discrete or fluid backend per -backend ("auto"
// picks fluid once the population reaches fluid.DefaultThreshold
// connections and the run is unfaulted).
func runConfig(path string, ofl obsFlags, faultCfg ff.FaultConfig, backend string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, err := ff.LoadScenario(f)
	if err != nil {
		return err
	}
	useFluid := backend == "fluid"
	if backend == "auto" && !faultCfg.Enabled() {
		total, err := spec.TotalConnections()
		if err != nil {
			return err
		}
		useFluid = total >= fluid.DefaultThreshold
	}
	if useFluid {
		return runFluid(spec, ofl)
	}
	sys, r0, err := spec.Build()
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %s (%s gateways, %s feedback)\n",
		spec.Name, sys.Discipline().Name(), sys.Style())
	if faultCfg.Enabled() {
		return runFaulted(sys, r0, spec.RunOptions(), spec.Name, ofl, faultCfg)
	}
	return runAndReport(sys, r0, spec.RunOptions(), spec.Name, ofl)
}

// runFluid solves a scenario on the fluid backend and prints the
// class-level steady state; fairness and stability analysis are
// defined on the discrete system and are not reported here.
func runFluid(spec *ff.Scenario, ofl obsFlags) error {
	fsys, r0, err := fluid.FromSpec(spec)
	if err != nil {
		return err
	}
	weights := fsys.Weights()
	fmt.Printf("scenario: %s (fluid backend: %.0f connections in %d classes)\n",
		spec.Name, fsys.Population(), fsys.NumClasses())
	opt := spec.RunOptions()
	var tsv *obs.TSVTracer
	if ofl.trace {
		tsv = obs.NewTSVTracer(os.Stderr, ofl.traceEvery)
		opt.Tracer = tsv
	}
	res, err := fsys.Run(r0, opt)
	if err != nil {
		return err
	}
	if tsv != nil {
		if err := tsv.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	report := func() error {
		if ofl.metricsJSON == "" {
			return nil
		}
		rep, err := fsys.Report(res, spec.Name)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		return cli.WriteReport(ofl.metricsJSON, rep)
	}
	if !res.Converged {
		fmt.Printf("did NOT converge after %d steps; last class rates: %s\n",
			res.Steps, fmtRates(res.Rates))
		if err := report(); err != nil {
			return err
		}
		cli.Exit(1)
	}
	fmt.Printf("converged in %d steps (%.2fms, residual %.3g -> %.3g)\n",
		res.Steps, float64(res.Stats.WallTime.Nanoseconds())/1e6,
		res.Stats.InitialResidual, res.Stats.FinalResidual)
	for c := range weights {
		fmt.Printf("class %d: weight %.0f rate %.6g signal %.5f delay %.5f\n",
			c, weights[c], res.Rates[c], res.Final.Signals[c], res.Final.Delays[c])
	}
	return report()
}

// runFaulted runs the -fault robustness protocol: baseline run,
// perturbed run under the injected faults, recovery analysis. The
// printed summary mirrors the Fault and Recovery sections the run
// report carries with -metrics-json.
func runFaulted(sys *ff.System, r0 []float64, opt ff.RunOptions, scenario string, ofl obsFlags, cfg ff.FaultConfig) error {
	var tsv *obs.TSVTracer
	if ofl.trace {
		tsv = obs.NewTSVTracer(os.Stderr, ofl.traceEvery)
		opt.Tracer = tsv
	}
	fmt.Printf("initial rates: %s\n", fmtRates(r0))
	fmt.Printf("fault spec: %s\n", cfg.String())
	res, err := ff.RunPerturbed(sys, r0, cfg, opt)
	if err != nil {
		return err
	}
	if tsv != nil {
		if err := tsv.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	fmt.Printf("baseline: converged in %d steps to %s\n", res.Baseline.Steps, fmtRates(res.Baseline.Rates))
	fmt.Printf("perturbed: ran %d steps, final rates %s\n", res.Perturbed.Steps, fmtRates(res.Perturbed.Rates))
	fmt.Printf("injected: %s\n", fmtFaultCounts(res.Fault))

	rec := res.Recovery
	fmt.Printf("recovery: maxRateExcursion=%.5f maxQueueExcursion=%.5g finalDistance=%.3g\n",
		rec.MaxRateExcursion, rec.MaxQueueExcursion, rec.FinalDistance)
	for _, s := range rec.Starvation {
		fmt.Printf("starvation: connection %d starved %d steps (longest window %d, starved at end: %v)\n",
			s.Connection, s.TotalSteps, s.LongestWindow, s.StarvedAtEnd)
	}
	if rec.Reconverged {
		fmt.Printf("reconverged at step %d (%d steps after the last fault window)\n",
			rec.ReconvergeStep, rec.TimeToReconverge)
	} else {
		fmt.Printf("did NOT reconverge within %d steps of the last fault window\n",
			res.Perturbed.Steps-cfg.QuietAfter(res.Perturbed.Steps))
	}

	if ofl.metricsJSON != "" {
		report, err := sys.Report(res.Perturbed, scenario)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		res.Attach(report)
		if err := cli.WriteReport(ofl.metricsJSON, report); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if !rec.Reconverged {
		cli.Exit(1)
	}
	return nil
}

// fmtFaultCounts renders the non-zero injection counters of a fault
// report in a fixed order.
func fmtFaultCounts(f *ff.FaultReport) string {
	counts := []struct {
		label string
		n     int64
	}{
		{"signalsLost", f.SignalsLost},
		{"signalsDelayed", f.SignalsDelayed},
		{"signalsNoised", f.SignalsNoised},
		{"degradedSteps", f.DegradedSteps},
		{"outageSteps", f.OutageSteps},
		{"churnedSteps", f.ChurnedSteps},
		{"stuckSteps", f.StuckSteps},
		{"greedySteps", f.GreedySteps},
	}
	var parts []string
	for _, c := range counts {
		if c.n != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.label, c.n))
		}
	}
	if len(parts) == 0 {
		return "nothing (no fault window overlapped the run)"
	}
	return strings.Join(parts, " ")
}

// runAndReport iterates the system to steady state and prints the
// throughput, fairness, and stability report, emitting the requested
// telemetry (per-step trace, metrics JSON) along the way.
func runAndReport(sys *ff.System, r0 []float64, opt ff.RunOptions, scenario string, ofl obsFlags) error {
	var tsv *obs.TSVTracer
	if ofl.trace {
		tsv = obs.NewTSVTracer(os.Stderr, ofl.traceEvery)
		opt.Tracer = tsv
	}
	fmt.Printf("initial rates: %s\n", fmtRates(r0))
	res, err := sys.Run(r0, opt)
	if err != nil {
		return err
	}
	if tsv != nil {
		if err := tsv.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	// The report is written last so that -metrics-json - leaves stdout
	// ending in one clean JSON block; the non-converged path still
	// writes it before exiting 1.
	report := func() error {
		if ofl.metricsJSON == "" {
			return nil
		}
		if err := writeMetrics(sys, res, scenario, ofl.metricsJSON); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		return nil
	}
	if !res.Converged {
		fmt.Printf("did NOT converge after %d steps (oscillatory or chaotic); last rates: %s\n",
			res.Steps, fmtRates(res.Rates))
		if err := report(); err != nil {
			return err
		}
		cli.Exit(1)
	}
	fmt.Printf("converged in %d steps (%.2fms, residual %.3g -> %.3g)\n",
		res.Steps, float64(res.Stats.WallTime.Nanoseconds())/1e6,
		res.Stats.InitialResidual, res.Stats.FinalResidual)
	fmt.Printf("steady-state rates: %s\n", fmtRates(res.Rates))
	fmt.Printf("signals b_i: %s   delays d_i: %s\n", fmtRates(res.Final.Signals), fmtRates(res.Final.Delays))

	rep, err := ff.EvaluateFairness(sys, res.Final, res.Rates, 1e-6)
	if err != nil {
		return err
	}
	fmt.Printf("fairness: fair=%v Jain=%.4f", rep.Fair, rep.JainIndex)
	if len(rep.Violations) > 0 {
		fmt.Printf(" (e.g. %s)", rep.Violations[0])
	}
	fmt.Println()

	st, err := ff.AnalyzeStability(sys, res.Rates, 1e-7, ff.ForwardDiff)
	if err != nil {
		return err
	}
	fmt.Printf("stability: unilateral=%v systemic=%v spectralRadius=%.4f triangular=%v\n",
		st.Unilateral, st.Systemic, st.SpectralRadius, st.TriangularOrder != nil)
	return report()
}

// writeMetrics builds the run report and writes it to path.
func writeMetrics(sys *ff.System, res *ff.RunResult, scenario, path string) error {
	report, err := sys.Report(res, scenario)
	if err != nil {
		return err
	}
	return cli.WriteReport(path, report)
}

func buildTopology(kind string, n, hops int, mu, latency float64) (*ff.Network, error) {
	switch strings.ToLower(kind) {
	case "single":
		return ff.SingleGateway(n, mu, latency)
	case "parkinglot":
		return ff.ParkingLot(hops, mu, latency)
	case "star":
		return ff.Star(n, 2*mu, mu, latency)
	case "ring":
		return ff.Ring(n, hops, mu, latency)
	case "dumbbell":
		return ff.Dumbbell(n, 2*mu, mu, latency)
	}
	return nil, fmt.Errorf("unknown topology %q (want single, parkinglot, star, ring, dumbbell)", kind)
}

func parseDiscipline(s string) (ff.Discipline, error) {
	switch strings.ToLower(s) {
	case "fifo":
		return ff.FIFO{}, nil
	case "fairshare", "fs":
		return ff.FairShare{}, nil
	}
	return nil, fmt.Errorf("unknown discipline %q (want fifo, fairshare)", s)
}

func parseFeedback(s string) (ff.FeedbackStyle, error) {
	switch strings.ToLower(s) {
	case "aggregate":
		return ff.Aggregate, nil
	case "individual":
		return ff.Individual, nil
	}
	return 0, fmt.Errorf("unknown feedback style %q (want aggregate, individual)", s)
}

func buildLaw(name string, eta, beta, bss float64) (ff.Law, error) {
	switch strings.ToLower(name) {
	case "additive":
		return ff.AdditiveTSI{Eta: eta, BSS: bss}, nil
	case "multiplicative":
		return ff.MultiplicativeTSI{Eta: eta, BSS: bss}, nil
	case "fairrate":
		return ff.FairRateLIMD{Eta: eta, Beta: beta}, nil
	case "window":
		return ff.WindowLIMD{Eta: eta, Beta: beta}, nil
	}
	return nil, fmt.Errorf("unknown law %q (want additive, multiplicative, fairrate, window)", name)
}

func fmtRates(r []float64) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%.5f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fatal(err error) { cli.Fatal("ffc", err) }
