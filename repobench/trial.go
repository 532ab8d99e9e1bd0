package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"

	"scoop/internal/core"
	"scoop/internal/dynamics"
	"scoop/internal/exp"
	scoopmetrics "scoop/internal/metrics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
	"scoop/internal/workload"
)

// simResult is everything a trial simulates. Two runs of one config
// and seed must produce equal simResults, whatever the host, the
// tracing or the wall-clock cost.
type simResult struct {
	stats     core.RunStats
	breakdown scoopmetrics.Breakdown
	// queryBytes is the Query+Reply+AggReply bytes sent.
	queryBytes int64
	// issued counts the queries the workload issued (retries excluded).
	issued int64
}

// diff reports the first difference between two simulated results, or
// "" when they agree. RunStats compares every exported int64 field
// except ReindexWallNanos, the one wall-clock field.
func (s simResult) diff(o simResult) string {
	if d := statsDiff(s.stats, o.stats); d != "" {
		return d
	}
	if s.breakdown != o.breakdown {
		return fmt.Sprintf("breakdown %+v != %+v", s.breakdown, o.breakdown)
	}
	if s.queryBytes != o.queryBytes {
		return fmt.Sprintf("query-path bytes %d != %d", s.queryBytes, o.queryBytes)
	}
	if s.issued != o.issued {
		return fmt.Sprintf("queries issued %d != %d", s.issued, o.issued)
	}
	return ""
}

func statsDiff(a, b core.RunStats) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 || f.Name == "ReindexWallNanos" {
			continue
		}
		if x, y := va.Field(i).Int(), vb.Field(i).Int(); x != y {
			return fmt.Sprintf("RunStats.%s %d != %d", f.Name, x, y)
		}
	}
	return ""
}

// fromExp extracts the simulated result of exp.Run's single trial.
// exp.Run does not count the queries the workload issued, so the
// caller supplies that count from its own run.
func fromExp(res exp.Result, issued int64) simResult {
	tr := res.PerTrial[0]
	return simResult{
		stats:      tr.Stats,
		breakdown:  tr.Breakdown,
		queryBytes: tr.QueryBytes + tr.ReplyBytes + tr.AggReplyBytes,
		issued:     issued,
	}
}

// cost is the wall-clock and memory price of one trial.
type cost struct {
	topologyNs int64 // topology build
	networkNs  int64 // simulator, network, fault script, source and policy config
	attachNs   int64 // app construction and Network.Attach (per-node RNG seeding)
	startNs    int64 // Network.Start: link-table freeze plus every Init
	loopNs     int64 // Network.Run
	allocBytes uint64
	heapBytes  uint64 // live heap after a GC, network still reachable
	gcCPUs     float64
	gcCycles   uint64
}

func (c cost) setupNs() int64 { return c.topologyNs + c.networkNs + c.attachNs + c.startNs }

// outcome is one trial's result. layers is nil for untraced trials.
type outcome struct {
	sim    simResult
	cost   cost
	layers *tracer
}

// readRuntime reads the GC and allocation totals a trial's cost is
// the difference of.
func readRuntime() (gcCPUs float64, gcCycles uint64, alloc uint64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return samples[0].Value.Float64(), samples[1].Value.Uint64(), ms.TotalAlloc
}

// runTrial simulates cfg's first trial the way exp.Run does, on the
// serial engine, timing each setup step and the event loop. With
// traced set, every app is wrapped in a timedApp and the workload's
// query issues are timed too. setupOnly stops after Network.Start.
//
// Only the configurations the benchmark's workloads use are supported:
// the Scoop policy, value-range queries, no region partitioning.
func runTrial(cfg exp.Config, traced, setupOnly bool) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial panicked: %v", r)
		}
	}()
	if err := cfg.Validate(); err != nil {
		return outcome{}, err
	}
	if cfg.Policy != policy.Scoop || cfg.NodePct >= 0 || cfg.Regions > 1 {
		return outcome{}, fmt.Errorf("repobench: unsupported config (policy %s, node pct %v, regions %d)",
			cfg.Policy, cfg.NodePct, cfg.Regions)
	}
	runtime.GC()
	gc0, cyc0, alloc0 := readRuntime()
	seed := cfg.Seed
	c := &out.cost

	t0 := mono()
	var topo *netsim.Topology
	switch cfg.Topology {
	case "", "uniform":
		topo = netsim.UniformTopology(cfg.N, math.Sqrt(float64(cfg.N))*1.008, 3.5, seed)
	case "grid":
		topo = netsim.GridTopology(cfg.N, 2.5, seed)
	default:
		return outcome{}, fmt.Errorf("repobench: unsupported topology %q", cfg.Topology)
	}
	t1 := mono()
	c.topologyNs = t1 - t0

	sim := netsim.NewSimulator(seed ^ 0x53c00b)
	ctr := scoopmetrics.NewCounters()
	net := netsim.NewNetwork(sim, topo, ctr, netsim.DefaultParams())
	if cfg.LinkLoss > 0 {
		net.ScaleAllLinks(1 - cfg.LinkLoss)
	}
	dyn := cfg.Dynamics
	if cfg.Faults != "" {
		fs, err := dynamics.FaultScenario(cfg.Faults, cfg.N, cfg.Warmup, cfg.Duration, seed+211)
		if err != nil {
			return outcome{}, err
		}
		var merged dynamics.Script
		if dyn != nil {
			merged.Append(*dyn)
		}
		merged.Append(fs)
		dyn = &merged
	}
	src, err := workload.NewSource(cfg.Source, cfg.N, seed+13)
	if err != nil {
		return outcome{}, err
	}
	lo, hi := src.Domain()
	sampler := src
	var drift *workload.Drift
	if dyn.HasData() {
		drift = workload.NewDrift(src)
		sampler = drift
	}
	ccfg, err := policy.Config(cfg.Policy, cfg.N, lo, hi)
	if err != nil {
		return outcome{}, err
	}
	ccfg.SampleInterval = cfg.SampleInterval
	if cfg.ReindexInterval > 0 {
		ccfg.RemapInterval = cfg.ReindexInterval
	}
	if cfg.DisableReindex {
		ccfg.RemapLimit = 1
	}
	if dyn.HasChurn() && ccfg.StatStaleAfter == 0 {
		ccfg.StatStaleAfter = 3 * ccfg.SummaryInterval
	}
	ccfg.AggForcePlan = cfg.AggForce
	ccfg.QueryDeadline = cfg.QueryDeadline
	ccfg.QueryRetryMax = cfg.QueryRetryMax
	if cfg.Modify != nil {
		cfg.Modify(&ccfg)
	}
	t2 := mono()
	c.networkNs = t2 - t1

	var tr *tracer
	attach := func(id netsim.NodeID, app netsim.App) { net.Attach(id, app) }
	if traced {
		tr = &tracer{sim: sim}
		out.layers = tr
		attach = func(id netsim.NodeID, app netsim.App) { net.Attach(id, tr.wrap(app, id == 0)) }
	}
	stats := &core.RunStats{}
	base := core.NewBase(ccfg, stats, cfg.Warmup)
	attach(0, base)
	for i := 1; i < cfg.N; i++ {
		attach(netsim.NodeID(i), core.NewNode(ccfg, stats, sampler.Next, cfg.Warmup))
	}
	t3 := mono()
	c.attachNs = t3 - t2

	net.Start()
	t4 := mono()
	c.startNs = t4 - t3
	if setupOnly {
		return out, nil
	}

	var rg *workload.RangeGen
	var mixed *workload.MixedGen
	if cfg.QueryInterval > 0 {
		rg = workload.NewRangeGen(lo, hi, seed+29)
		if cfg.QueryWidth > 0 {
			rg.WidthLo, rg.WidthHi = cfg.QueryWidth, cfg.QueryWidth
		}
		if cfg.AggRatio > 0 {
			mixed = workload.NewMixedGen(rg, cfg.AggRatio, cfg.AggErrBudget, seed+31)
			mixed.Ops = cfg.AggOps
		}
	}
	if !dyn.Empty() {
		tg := dynamics.Targets{Net: net, LossBase: 1 - cfg.LinkLoss}
		if rg != nil {
			tg.Query = rg
		}
		if drift != nil {
			tg.Data = drift
		}
		if tr != nil {
			tg.Observer = func(dynamics.Event) { tr.dynEvents++ }
		}
		dyn.Attach(sim, tg)
	}
	// Dynamics events go on the heap before the first query tick, as in
	// exp.Run: equal-time control events run in scheduling order.
	if cfg.QueryInterval > 0 {
		var tick func()
		tick = func() {
			var req workload.Request
			if mixed != nil {
				req = mixed.NextRequest(sim.Now())
			} else {
				req = workload.Request{Query: rg.Next(sim.Now())}
			}
			var s int64
			if tr != nil {
				s = mono()
			}
			if req.Agg != nil {
				aq := *req.Agg
				if aq.TimeLo < cfg.Warmup {
					aq.TimeLo = cfg.Warmup
				}
				base.IssueAgg(aq)
			} else {
				q := req.Query
				if q.TimeLo < cfg.Warmup {
					q.TimeLo = cfg.Warmup
				}
				base.IssueQuery(q)
			}
			if tr != nil {
				tr.issueNs += mono() - s
			}
			out.sim.issued++
			if sim.Now()+cfg.QueryInterval <= cfg.Duration {
				sim.After(cfg.QueryInterval, tick)
			}
		}
		sim.At(cfg.Warmup+cfg.QueryInterval, tick)
	}

	if tr != nil {
		tr.markLoop()
	}
	l0 := mono()
	net.Run(cfg.Duration)
	c.loopNs = mono() - l0
	base.FinalizeVerdicts()

	out.sim.stats = *stats
	out.sim.breakdown = ctr.Snapshot()
	out.sim.queryBytes = ctr.SentBytesClass(scoopmetrics.Query) +
		ctr.SentBytesClass(scoopmetrics.Reply) + ctr.SentBytesClass(scoopmetrics.AggReply)
	if tr != nil {
		tr.tx = ctr.TotalWithBeacons()
		tr.dropsCollision = ctr.Drops(scoopmetrics.DropCollision)
		tr.dropsQueue = ctr.Drops(scoopmetrics.DropQueue)
		tr.dropsRetries = ctr.Drops(scoopmetrics.DropRetries)
	}

	gc1, cyc1, alloc1 := readRuntime()
	c.allocBytes = alloc1 - alloc0
	c.gcCPUs = gc1 - gc0
	c.gcCycles = cyc1 - cyc0
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapBytes = ms.HeapAlloc
	runtime.KeepAlive(net)
	return out, nil
}
