package main

import (
	"scoop/internal/dynamics"
	"scoop/internal/exp"
	"scoop/internal/netsim"
)

// spec is one benchmark workload. cfg builds the one-trial
// experiment configuration for a trial seed; everything a run
// simulates follows from that configuration.
type spec struct {
	name string
	cfg  func(seed int64) exp.Config
	// trials is how many trial seeds an untraced invocation pools, so
	// the simulated ratios vary less from one benchmark seed to the next.
	trials int
}

// workloads stress different layers, so each is the control for an
// optimisation aimed at another: paper-63 Trickle and node receive,
// scale-1000 the event heap, radio fan-out, link tables and setup,
// faults-250 query Trickle, the planner and the reliability layer.
var workloads = []spec{
	{"paper-63", paper63, 16},
	{"scale-1000", scale1000, 4},
	{"faults-250", faults250, 4},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// paper63 is exp.Default with one trial: 63 uniform nodes, REAL data,
// 15 s sample and query intervals, 40 virtual minutes.
func paper63(seed int64) exp.Config {
	cfg := exp.Default()
	cfg.Trials = 1
	cfg.Seed = seed
	return cfg
}

// scale1000 is the perfbench sim-rate shape at N=1000: a grid with a
// warm-up of a quarter of the run.
func scale1000(seed int64) exp.Config { return gridShape(1000, 8*netsim.Minute, seed) }

func gridShape(n int, duration netsim.Time, seed int64) exp.Config {
	cfg := exp.Default()
	cfg.N = n
	cfg.Topology = "grid"
	cfg.Duration = duration
	cfg.Warmup = duration / 4
	cfg.Trials = 1
	cfg.Seed = seed
	return cfg
}

// faults250 runs the reliability layer under the composed fault
// campaign plus standard churn and drift, with a mixed tuple/aggregate
// query stream every 5 s and a reindex every minute.
func faults250(seed int64) exp.Config { return faultsShape(250, 20*netsim.Minute, seed) }

func faultsShape(n int, duration netsim.Time, seed int64) exp.Config {
	cfg := gridShape(n, duration, seed)
	cfg.LinkLoss = 0.3
	cfg.Faults = "campaign"
	script := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration, 0.05, 0.3, seed+101)
	cfg.Dynamics = &script
	cfg.QueryDeadline = 8 * netsim.Second
	cfg.QueryRetryMax = 4
	cfg.AggRatio = 0.5
	cfg.AggErrBudget = 0.05
	cfg.QueryInterval = 5 * netsim.Second
	cfg.ReindexInterval = 60 * netsim.Second
	return cfg
}
