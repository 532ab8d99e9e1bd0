package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync/atomic"
	"testing"

	"scoop/internal/core"
	"scoop/internal/exp"
	"scoop/internal/netsim"
)

// Shrunken versions of each workload's shape, small enough for a
// plain go test.
func smallPaper(seed int64) exp.Config {
	cfg := paper63(seed)
	cfg.N = 30
	cfg.Duration = 6 * netsim.Minute
	cfg.Warmup = 2 * netsim.Minute
	return cfg
}

func smallScale(seed int64) exp.Config { return gridShape(100, 4*netsim.Minute, seed) }

func smallFaults(seed int64) exp.Config { return faultsShape(64, 8*netsim.Minute, seed) }

// TestDriverMatchesExpRun pins the driver to exp.Run: untraced and
// traced runs of each shape simulate exactly what exp.Run does, with
// the invariant checker passing.
func TestDriverMatchesExpRun(t *testing.T) {
	shapes := []struct {
		name string
		cfg  func(int64) exp.Config
	}{{"paper", smallPaper}, {"scale", smallScale}, {"faults", smallFaults}}
	for _, s := range shapes {
		cfg := s.cfg(5)
		t.Run(s.name, func(t *testing.T) {
			ref := cfg
			ref.CheckInvariants = true
			res, err := exp.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runTrial(cfg, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if d := plain.sim.diff(fromExp(res, plain.sim.issued)); d != "" {
				t.Fatalf("driver differs from exp.Run: %s", d)
			}
			traced, err := runTrial(cfg, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if d := traced.sim.diff(plain.sim); d != "" {
				t.Fatalf("traced run differs from untraced: %s", d)
			}
			if plain.sim.issued == 0 || plain.sim.stats.Produced == 0 {
				t.Fatalf("degenerate run: %+v", plain.sim)
			}
		})
	}
}

// TestDiffComparesCountersNotWallClock plants a change in one RunStats
// counter and checks the comparison reports it, and ignores the wall
// clock.
func TestDiffComparesCountersNotWallClock(t *testing.T) {
	a := simResult{stats: core.RunStats{QueryRetries: 3}}
	b := a
	b.stats.QueryRetries = 4
	if a.diff(b) == "" {
		t.Fatal("a QueryRetries difference went unnoticed")
	}
	b = a
	b.stats.ReindexWallNanos = 99
	if d := a.diff(b); d != "" {
		t.Fatalf("wall-clock field compared: %s", d)
	}
}

// TestLayerAccountingCloses checks that a traced run's layer times plus
// netsim.self_s add up to the event loop's wall time, that no callback
// used a timer ID outside core's table, and that the metric names match
// BENCHMARK.json.
func TestLayerAccountingCloses(t *testing.T) {
	// Seed 2 reaches every timer, agg flush included.
	o, err := runTrial(smallFaults(2), true, false)
	if err != nil {
		t.Fatal(err)
	}
	m := layerMetrics(o)
	if n := m["core.other_timer_calls"].Value; n != 0 {
		t.Fatalf("%v callbacks with an unknown timer ID", n)
	}
	for id := timerSample; id <= timerRel; id++ {
		if o.layers.calls[id] == 0 {
			t.Errorf("timer %d never fired: the workload no longer reaches its layer", id)
		}
	}
	parts := []string{
		"netsim.self_s", "query.issue_s",
		"core.node_recv_s", "core.snoop_s", "core.base_recv_s", "core.sample_s",
		"core.summary_s", "core.batch_s", "core.reply_s", "core.aggflush_s",
		"core.reliability_s", "core.init_s",
		"trickle.query_s", "trickle.mapping_s", "routing.tree_s", "index.remap_s",
	}
	sum := -secs(o.layers.nsAtLoop[slotInit]) // Init calls made by Network.Start
	for _, p := range parts {
		v, ok := m[p]
		if !ok {
			t.Fatalf("metric %s missing", p)
		}
		sum += v.Value
	}
	if loop := secs(o.cost.loopNs); math.Abs(sum-loop) > 1e-6 {
		t.Fatalf("layer times sum to %.9f s, loop took %.9f s", sum, loop)
	}
	if self := m["netsim.self_s"].Value; self <= 0 {
		t.Fatalf("netsim.self_s = %v", self)
	}

	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	m["trace_overhead"] = metric{}
	listed := map[string]bool{}
	for _, e := range bench.PerLayer {
		listed[e.Name] = true
		if _, ok := m[e.Name]; !ok {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, the traced run does not report it", e.Name)
		}
	}
	for name := range m {
		if !listed[name] {
			t.Errorf("traced run reports %s, BENCHMARK.json does not list it", name)
		}
	}
	rep := measure(spec{cfg: smallPaper, trials: 2}, 1, 0.01, false, io.Discard)
	if !rep.Correct {
		t.Fatalf("end-to-end run failed: %+v", rep)
	}
	if len(rep.Metrics) != len(bench.EndToEnd) {
		t.Errorf("end-to-end run reports %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(bench.EndToEnd))
	}
	for _, e := range bench.EndToEnd {
		if v, ok := rep.Metrics[e.Name]; !ok || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, %v", e.Name, v, ok)
		}
	}
}

// TestFailedRunsAreCounted checks that a panicking or erroring run
// counts as a failed operation against the runs attempted, and that
// the next workload still runs.
func TestFailedRunsAreCounted(t *testing.T) {
	var calls atomic.Int32
	panicky := func(seed int64) exp.Config {
		cfg := smallPaper(seed)
		cfg.Modify = func(*core.Config) {
			// The first call is exp.Run's reference, which runs on a
			// goroutine of its own; every later one is a driver run.
			if calls.Add(1) > 1 {
				panic("planted")
			}
		}
		return cfg
	}
	rep := measure(spec{cfg: panicky, trials: 1}, 1, 0.01, false, io.Discard)
	if rep.Correct || rep.Failed == 0 || rep.Attempted <= rep.Failed {
		t.Fatalf("panicking runs: %+v", rep)
	}

	invalid := func(seed int64) exp.Config {
		cfg := smallPaper(seed)
		cfg.N = 1
		return cfg
	}
	rep = measure(spec{cfg: invalid, trials: 2}, 1, 0.01, false, io.Discard)
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Fatalf("invalid config: %+v", rep)
	}

	rep = measure(spec{cfg: smallScale, trials: 1}, 1, 0.01, true, io.Discard)
	if !rep.Correct || rep.Failed != 0 || rep.Metrics["trace_overhead"].Value <= 0 {
		t.Fatalf("a good workload after failing ones: %+v", rep)
	}
}
