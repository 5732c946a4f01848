package core

import (
	"fmt"

	"github.com/nettheory/feedbackflow/internal/obs"
)

// Report assembles the machine-readable run report for a completed
// run: the iteration outcome and residual summary from res.Stats plus
// per-gateway queue statistics derived from the final observation.
// This is what ffc -metrics-json emits. On a weighted system the
// vectors stay per class, while each gateway's utilization, total
// queue and connection count are weighted by the class sizes: what
// the expanded population would report.
func (s *System) Report(res *RunResult, scenario string) (*obs.RunReport, error) {
	if res == nil || res.Final == nil {
		return nil, fmt.Errorf("core: report of an incomplete run")
	}
	rep := &obs.RunReport{
		Schema:          obs.RunReportSchema,
		Scenario:        scenario,
		Steps:           res.Steps,
		Converged:       res.Converged,
		WallNS:          res.Stats.WallTime.Nanoseconds(),
		InitialResidual: obs.Float(res.Stats.InitialResidual),
		FinalResidual:   obs.Float(res.Stats.FinalResidual),
		MinResidual:     obs.Float(res.Stats.MinResidual),
		MaxResidual:     obs.Float(res.Stats.MaxResidual),
		Rates:           obs.Floats(res.Rates),
		Signals:         obs.Floats(res.Final.Signals),
		Delays:          obs.Floats(res.Final.Delays),
	}
	for a, queues := range res.Final.Queues {
		// Weighted sums: each entry stands for Weight(i) connections
		// (1 on a discrete system, where 1·x is x bit for bit).
		n, load, total, max := 0.0, 0.0, 0.0, 0.0
		for k, i := range s.net.Connections(a) {
			m := s.Weight(i)
			n += m
			load += m * res.Rates[i]
			total += m * queues[k]
			if queues[k] > max {
				max = queues[k]
			}
		}
		rep.Gateways = append(rep.Gateways, obs.GatewayReport{
			Gateway:     a,
			Connections: int(n),
			Queues:      obs.Floats(queues),
			Utilization: obs.Float(load / s.net.Gateway(a).Mu),
			TotalQueue:  obs.Float(total),
			MaxQueue:    obs.Float(max),
		})
	}
	return rep, nil
}
