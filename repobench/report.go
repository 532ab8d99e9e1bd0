package main

import (
	"math"
	"sort"
)

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// median returns the median of xs (NaN when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// medianOf is the median of f over the outcomes.
func medianOf(outs []outcome, f func(outcome) float64) float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return median(xs)
}

// addEndToEnd reports the end-to-end metrics of the pooled trial
// seeds. Each seed contributes the median wall and memory cost of its
// runs: sim_rate is the pool's virtual time over the sum of those
// medians, and the memory figures are their mean. The simulated ratios
// pool the seeds' counts.
func addEndToEnd(m map[string]metric, pool []*pooled, setups []float64) {
	m["setup_s"] = metric{median(setups), "s"}
	var virtual, wall, alloc, heap, msgs float64
	var produced, stored, qbytes, issued, replies, expected int64
	for _, p := range pool {
		if len(p.plain) == 0 {
			return // the seed's failures are already counted
		}
		virtual += float64(p.cfg.Duration) / 1000
		wall += medianOf(p.plain, func(o outcome) float64 { return secs(o.cost.setupNs() + o.cost.loopNs) })
		alloc += medianOf(p.plain, func(o outcome) float64 { return float64(o.cost.allocBytes) })
		heap += medianOf(p.plain, func(o outcome) float64 { return float64(o.cost.heapBytes) })
		s := p.plain[0].sim
		msgs += s.breakdown.Total()
		produced += s.stats.Produced
		stored += s.stats.StoredUnique
		qbytes += s.queryBytes
		issued += s.issued
		replies += s.stats.RepliesReceived
		expected += s.stats.RepliesExpected
	}
	n := float64(len(pool))
	m["sim_rate"] = metric{virtual / wall, "sim-s/s"}
	m["alloc_mb"] = metric{alloc / n / 1e6, "MB"}
	m["heap_retained_mb"] = metric{heap / n / 1e6, "MB"}
	m["msgs_per_reading"] = metric{msgs / float64(produced), "msgs/reading"}
	m["bytes_per_query"] = metric{float64(qbytes) / float64(issued), "B/query"}
	m["data_success"] = metric{float64(stored) / float64(produced), "ratio"}
	m["query_success"] = metric{float64(replies) / float64(expected), "ratio"}
}

// layerMetrics flattens one traced run into its per-layer metrics.
func layerMetrics(o outcome) map[string]metric {
	t, c, st := o.layers, o.cost, o.sim.stats
	cbNs, loopCalls := t.loopCallbacks()
	selfNs := c.loopNs - cbNs - t.issueNs
	s := func(slot int) float64 { return secs(t.ns[slot]) }
	n := func(slot int) float64 { return float64(t.calls[slot]) }
	launches := o.sim.issued + st.QueryRetries
	return map[string]metric{
		"setup.topology_s": {secs(c.topologyNs), "s"},
		"setup.network_s":  {secs(c.networkNs), "s"},
		"setup.attach_s":   {secs(c.attachNs), "s"},
		"setup.start_s":    {secs(c.startNs), "s"},

		"netsim.self_s":          {secs(selfNs), "s"},
		"netsim.callbacks":       {float64(loopCalls), "count"},
		"netsim.ns_per_callback": {float64(selfNs) / float64(loopCalls), "ns"},
		"netsim.pending_max":     {float64(t.pendingMax), "count"},
		"netsim.tx":              {float64(t.tx), "count"},
		"netsim.drops_collision": {float64(t.dropsCollision), "count"},
		"netsim.drops_queue":     {float64(t.dropsQueue), "count"},
		"netsim.drops_retries":   {float64(t.dropsRetries), "count"},

		"core.node_recv_s":       {s(slotNodeRecv), "s"},
		"core.node_recv_calls":   {n(slotNodeRecv), "count"},
		"core.snoop_s":           {s(slotSnoop), "s"},
		"core.snoop_calls":       {n(slotSnoop), "count"},
		"core.base_recv_s":       {s(slotBaseRecv), "s"},
		"core.sample_s":          {s(timerSample), "s"},
		"core.summary_s":         {s(timerSummary), "s"},
		"core.batch_s":           {s(timerBatch), "s"},
		"core.reply_s":           {s(timerReply), "s"},
		"core.aggflush_s":        {s(timerAggFlush), "s"},
		"core.reliability_s":     {s(timerRel), "s"},
		"core.init_s":            {s(slotInit), "s"},
		"core.other_timer_calls": {n(slotOtherTimer), "count"},

		"trickle.query_s":       {s(timerQuery), "s"},
		"trickle.query_fires":   {n(timerQuery), "count"},
		"trickle.mapping_s":     {s(timerMapping), "s"},
		"trickle.mapping_fires": {n(timerMapping), "count"},

		"routing.tree_s":     {s(timerTree), "s"},
		"routing.tree_fires": {n(timerTree), "count"},
		"routing.beacons":    {o.sim.breakdown.Beacon, "count"},

		"index.remap_s":     {s(timerRemap), "s"},
		"index.remap_calls": {n(timerRemap), "count"},
		"index.built":       {float64(st.IndexesBuilt), "count"},
		"index.suppressed":  {float64(st.IndexesSuppressed), "count"},

		"query.issue_s":     {secs(t.issueNs), "s"},
		"query.issued":      {float64(o.sim.issued), "count"},
		"query.retries":     {float64(st.QueryRetries), "count"},
		"query.retry_share": {float64(st.QueryRetries) / float64(launches), "ratio"},

		"dynamics.events": {float64(t.dynEvents), "count"},

		"runtime.gc_cpu_s":  {c.gcCPUs, "s"},
		"runtime.gc_cycles": {float64(c.gcCycles), "count"},
	}
}

// addLayers reports the median of every per-layer metric over the
// traced runs, plus the tracing overhead: the median traced loop wall
// over the median untraced one.
func addLayers(m map[string]metric, traced, plain []outcome) {
	if len(traced) == 0 || len(plain) == 0 {
		return
	}
	per := make([]map[string]metric, len(traced))
	for i, o := range traced {
		per[i] = layerMetrics(o)
	}
	for k, first := range per[0] {
		xs := make([]float64, len(per))
		for i, p := range per {
			xs[i] = p[k].Value
		}
		m[k] = metric{median(xs), first.Unit}
	}
	loop := func(o outcome) float64 { return secs(o.cost.loopNs) }
	m["trace_overhead"] = metric{medianOf(traced, loop) / medianOf(plain, loop), "ratio"}
}
