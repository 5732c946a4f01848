package fault

import (
	"fmt"

	"github.com/nettheory/feedbackflow/internal/core"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/recovery"
)

// Result is the outcome of a perturbed run: the unperturbed baseline
// it is measured against, the faulted run itself, what was injected,
// and the recovery analysis.
type Result struct {
	// Baseline is the unperturbed run from the same initial rates; its
	// final rates are the fixed point the recovery analysis measures
	// excursions against.
	Baseline *core.RunResult
	// Perturbed is the faulted run (full horizon, trajectory recorded).
	Perturbed *core.RunResult
	// Fault is the injection accounting (spec and event counts).
	Fault *obs.FaultReport
	// Recovery is the recovery analysis of the perturbed trajectory.
	Recovery *recovery.Report
}

// Attach adds the Fault and Recovery sections to a RunReport built
// from the perturbed run.
func (res *Result) Attach(rep *obs.RunReport) {
	rep.Fault = res.Fault
	rep.Recovery = res.Recovery.Publish()
}

// RunPerturbed runs the Theorem-5-style robustness protocol on sys:
// an unperturbed baseline run to the fixed point, then a faulted run
// from the same initial rates with cfg injected, then the recovery
// analysis of the faulted trajectory against the baseline.
//
// The faulted run executes the full step horizon (convergence cannot
// end it early: the system may sit at the fixed point between fault
// windows) and records its trajectory and total-queue series for the
// analysis. opts.Hook, Record, and NoEarlyStop are owned by this
// function; set everything else (MaxSteps, Tol, Tracer, ...) freely.
func RunPerturbed(sys *core.System, r0 []float64, cfg Config, opts core.RunOptions) (*Result, error) {
	if sys == nil {
		return nil, fmt.Errorf("fault: nil system")
	}
	net := sys.Network()
	inj, err := NewInjector(cfg, net.NumConnections(), net.NumGateways())
	if err != nil {
		return nil, err
	}

	// The baseline is hooked too, by a hook that changes nothing, so
	// that it iterates every connection like the faulted run does
	// (core.System.Run collapses identical connections only when
	// unhooked): the recovery analysis then measures the faults, not
	// the class collapse's rounding.
	baseOpts := opts
	baseOpts.Hook = core.PerConnection{}
	baseOpts.Record = false
	baseOpts.NoEarlyStop = false
	baseline, err := sys.Run(r0, baseOpts)
	if err != nil {
		return nil, fmt.Errorf("fault: baseline run: %w", err)
	}
	if !baseline.Converged {
		return nil, fmt.Errorf("fault: baseline run did not converge in %d steps; recovery needs a fixed point to measure against", baseline.Steps)
	}

	inj.RecordQueues = true
	pertOpts := opts
	pertOpts.Hook = inj
	pertOpts.Record = true
	pertOpts.NoEarlyStop = true
	perturbed, err := sys.Run(r0, pertOpts)
	if err != nil {
		return nil, fmt.Errorf("fault: perturbed run: %w", err)
	}

	// The injector samples the total queue at each pre-update state
	// (states 0..Steps-1); the final observation supplies state Steps,
	// aligning the series with the recorded trajectory.
	queues := append(inj.Queues(), totalQueue(perturbed.Final))

	rec, err := recovery.Analyze(perturbed.Trajectory, baseline.Rates, recovery.Options{
		QuietAfter:    cfg.QuietAfter(perturbed.Steps),
		TotalQueues:   queues,
		BaselineQueue: totalQueue(baseline.Final),
	})
	if err != nil {
		return nil, fmt.Errorf("fault: recovery analysis: %w", err)
	}

	return &Result{
		Baseline:  baseline,
		Perturbed: perturbed,
		Fault:     inj.Report(),
		Recovery:  rec,
	}, nil
}

// totalQueue sums every per-connection queue of an observation (+Inf
// when any gateway is overloaded).
func totalQueue(o *core.Observation) float64 {
	total := 0.0
	for _, row := range o.Queues {
		for _, q := range row {
			total += q
		}
	}
	return total
}
