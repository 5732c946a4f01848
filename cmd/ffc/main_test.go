package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ff "github.com/nettheory/feedbackflow"
	"github.com/nettheory/feedbackflow/internal/cli"
	"github.com/nettheory/feedbackflow/internal/obs"
)

func TestBuildTopology(t *testing.T) {
	cases := []struct {
		kind    string
		nGw     int
		nConn   int
		wantErr bool
	}{
		{"single", 1, 4, false},
		{"parkinglot", 3, 4, false},
		{"star", 5, 4, false},
		{"ring", 4, 4, false},
		{"dumbbell", 9, 4, false},
		{"SINGLE", 1, 4, false}, // case-insensitive
		{"mesh", 0, 0, true},
	}
	for _, c := range cases {
		net, err := buildTopology(c.kind, 4, 3, 1, 0.1)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: want error", c.kind)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.kind, err)
			continue
		}
		if net.NumGateways() != c.nGw || net.NumConnections() != c.nConn {
			t.Errorf("%s: %d gw %d conn, want %d/%d",
				c.kind, net.NumGateways(), net.NumConnections(), c.nGw, c.nConn)
		}
	}
}

func TestParseDiscipline(t *testing.T) {
	d, err := parseDiscipline("fifo")
	if err != nil || d.Name() != "FIFO" {
		t.Errorf("fifo: %v %v", d, err)
	}
	d, err = parseDiscipline("FairShare")
	if err != nil || d.Name() != "FairShare" {
		t.Errorf("FairShare: %v %v", d, err)
	}
	d, err = parseDiscipline("fs")
	if err != nil || d.Name() != "FairShare" {
		t.Errorf("fs: %v %v", d, err)
	}
	if _, err := parseDiscipline("lifo"); err == nil {
		t.Error("lifo: want error")
	}
}

func TestParseFeedback(t *testing.T) {
	if s, err := parseFeedback("aggregate"); err != nil || s.String() != "aggregate" {
		t.Errorf("aggregate: %v %v", s, err)
	}
	if s, err := parseFeedback("Individual"); err != nil || s.String() != "individual" {
		t.Errorf("Individual: %v %v", s, err)
	}
	if _, err := parseFeedback("broadcast"); err == nil {
		t.Error("broadcast: want error")
	}
}

func TestBuildLaw(t *testing.T) {
	for _, name := range []string{"additive", "multiplicative", "fairrate", "window"} {
		l, err := buildLaw(name, 0.1, 0.5, 0.5)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if l.Name() == "" {
			t.Errorf("%s: empty law name", name)
		}
	}
	if _, err := buildLaw("quadratic", 0.1, 0.5, 0.5); err == nil {
		t.Error("quadratic: want error")
	}
}

// TestMetricsJSONRoundTrip is the -metrics-json acceptance check: run
// the canned single-bottleneck scenario, write the report the way the
// flag does, and decode it back — asserting the step count, final
// residual, wall time, and per-gateway queue statistics survive.
func TestMetricsJSONRoundTrip(t *testing.T) {
	net, err := buildTopology("single", 4, 3, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	law, err := buildLaw("additive", 0.1, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run([]float64{0.05, 0.1, 0.15, 0.2}, ff.RunOptions{MaxSteps: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("canned scenario did not converge")
	}

	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeMetrics(sys, res, "single", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, data)
	}

	if rep.Schema != obs.RunReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, obs.RunReportSchema)
	}
	if rep.Scenario != "single" {
		t.Errorf("scenario = %q", rep.Scenario)
	}
	if rep.Steps != res.Steps || rep.Steps <= 0 {
		t.Errorf("steps = %d, want %d (> 0)", rep.Steps, res.Steps)
	}
	if !rep.Converged {
		t.Error("report says not converged")
	}
	if got, want := float64(rep.FinalResidual), res.Stats.FinalResidual; got != want {
		t.Errorf("final residual = %g, want %g", got, want)
	}
	if rep.WallNS <= 0 {
		t.Errorf("wall_ns = %d, want > 0", rep.WallNS)
	}
	if len(rep.Rates) != 4 || len(rep.Signals) != 4 || len(rep.Delays) != 4 {
		t.Fatalf("vector lengths: %d rates, %d signals, %d delays",
			len(rep.Rates), len(rep.Signals), len(rep.Delays))
	}
	if len(rep.Gateways) != 1 {
		t.Fatalf("gateways = %d, want 1", len(rep.Gateways))
	}
	gw := rep.Gateways[0]
	if gw.Connections != 4 || len(gw.Queues) != 4 {
		t.Errorf("gateway: %d connections, %d queues", gw.Connections, len(gw.Queues))
	}
	var total float64
	for _, q := range gw.Queues {
		if q < 0 {
			t.Errorf("negative queue %g", float64(q))
		}
		total += float64(q)
	}
	if got := float64(gw.TotalQueue); total != 0 && (got < 0.999*total || got > 1.001*total) {
		t.Errorf("total queue %g does not match sum of queues %g", got, total)
	}
	if u := float64(gw.Utilization); u <= 0 || u >= 1 {
		t.Errorf("utilization = %g, want in (0, 1)", u)
	}
}

func TestFmtRates(t *testing.T) {
	out := fmtRates([]float64{0.5, 0.25})
	if !strings.HasPrefix(out, "[") || !strings.Contains(out, "0.50000") || !strings.Contains(out, "0.25000") {
		t.Errorf("fmtRates = %q", out)
	}
}

// TestRunFaultedMetricsJSON drives the -fault path end to end: run the
// robustness protocol on a two-connection FairShare system, write the
// report the way -fault -metrics-json does, and check the Fault and
// Recovery sections survive the round trip.
func TestRunFaultedMetricsJSON(t *testing.T) {
	net, err := buildTopology("single", 2, 1, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	law, err := buildLaw("additive", 0.1, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ff.NewSystem(net, ff.FairShare{}, ff.Individual, ff.Rational{}, ff.UniformLaws(law, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ff.ParseFaultSpec("seed=3,loss=0.5@50-120,outage=0@150-170")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ff.RunPerturbed(sys, []float64{0.1, 0.2}, cfg, ff.RunOptions{MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}

	report, err := sys.Report(res.Perturbed, "faulted")
	if err != nil {
		t.Fatal(err)
	}
	res.Attach(report)
	path := filepath.Join(t.TempDir(), "faulted.json")
	if err := cli.WriteReport(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("faulted report does not decode: %v\n%s", err, data)
	}
	if rep.Fault == nil || rep.Recovery == nil {
		t.Fatal("faulted report lacks fault/recovery sections")
	}
	if rep.Fault.SignalsLost == 0 || rep.Fault.OutageSteps != 20 {
		t.Errorf("fault counts: %+v", rep.Fault)
	}
	if !strings.Contains(rep.Fault.Spec, "loss=0.5@50-120") {
		t.Errorf("fault spec %q lost the loss clause", rep.Fault.Spec)
	}
	if !rep.Recovery.Reconverged || rep.Recovery.ReconvergeStep < 170 {
		t.Errorf("recovery: %+v", rep.Recovery)
	}
	// The injected outage overloads the gateway: the queue excursion is
	// +Inf and must round-trip as the quoted string, not a bare token.
	if !math.IsInf(float64(rep.Recovery.MaxQueueExcursion), 1) {
		t.Errorf("max queue excursion = %v, want +Inf", rep.Recovery.MaxQueueExcursion)
	}
}

// TestFmtFaultCounts renders only the non-zero counters.
func TestFmtFaultCounts(t *testing.T) {
	out := fmtFaultCounts(&ff.FaultReport{SignalsLost: 3, OutageSteps: 7})
	if out != "signalsLost=3 outageSteps=7" {
		t.Errorf("fmtFaultCounts = %q", out)
	}
	if out := fmtFaultCounts(&ff.FaultReport{}); !strings.Contains(out, "nothing") {
		t.Errorf("empty counts render as %q", out)
	}
}
