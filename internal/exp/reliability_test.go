package exp

import (
	"strings"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/netsim"
)

// completeness is the fraction of settled queries that produced a
// usable answer: fully collected (complete) or answered from retained
// summaries with an honest error bound (degraded). The invariant
// checker guarantees every journalled query settles exactly once, so
// the verdict counters sum to the number of issued queries.
func completeness(r Result) float64 {
	good := r.Stats.QueryVerdictComplete + r.Stats.QueryVerdictDegraded
	total := good + r.Stats.QueryVerdictPartial + r.Stats.QueryVerdictFailed
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// TestReliabilityAcceptance is the headline robustness claim of
// DESIGN.md §19: under 40% ambient link loss plus a regional blackout
// (a quarter of the run with a third of the network unreachable), the
// deadline-retry and summary-degradation machinery lifts query
// completeness to at least 0.95, at no more than 2x the query-class
// bytes of the fault-free run in the same lossy environment. A third
// run with the reliability layer disabled pins the counterfactual: the
// same faults without retries deliver barely two thirds of the
// expected replies.
func TestReliabilityAcceptance(t *testing.T) {
	base := Default()
	base.N = 20
	base.Duration = 30 * netsim.Minute
	base.Warmup = 2 * netsim.Minute
	base.Trials = 1
	base.Seed = 17
	base.CheckInvariants = true
	base.AggRatio = 0.5
	base.LinkLoss = 0.4
	base.QueryDeadline = 8 * netsim.Second
	base.QueryRetryMax = 7

	faulted := base
	faulted.Faults = "blackout"

	rel, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if c := completeness(rel); c < 0.95 {
		t.Errorf("completeness %.3f under loss+blackout, want >= 0.95 "+
			"(complete=%d partial=%d degraded=%d failed=%d)",
			c, rel.Stats.QueryVerdictComplete, rel.Stats.QueryVerdictPartial,
			rel.Stats.QueryVerdictDegraded, rel.Stats.QueryVerdictFailed)
	}
	if rel.Stats.QueryRetries == 0 {
		t.Error("no retries fired under 40% loss plus blackout")
	}

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Breakdown.Query <= 0 {
		t.Fatal("fault-free run sent no query bytes")
	}
	if ratio := rel.Breakdown.Query / clean.Breakdown.Query; ratio > 2 {
		t.Errorf("query-class bytes %.0f are %.2fx the fault-free %.0f, budget is 2x",
			rel.Breakdown.Query, ratio, clean.Breakdown.Query)
	}

	noRetry := faulted
	noRetry.QueryDeadline = 0
	noRetry.QueryRetryMax = 0
	off, err := Run(noRetry)
	if err != nil {
		t.Fatal(err)
	}
	lossy := float64(off.Stats.RepliesReceived) / float64(off.Stats.RepliesExpected)
	lifted := float64(rel.Stats.RepliesReceived) / float64(rel.Stats.RepliesExpected)
	if lifted <= lossy {
		t.Errorf("retries did not lift reply delivery: %.3f with reliability vs %.3f without",
			lifted, lossy)
	}
}

// TestDeadReceiverConservation runs the benchmark's faults-250 shape
// (250-node grid, composed fault campaign, churn, drift, retries and
// aggregates) at trial seed 15 with the invariant checker on. In that
// run node 165's data frames reach an addressee that churn kills
// mid-air, after the sender's ack was already drawn; the readings must
// be charged to the dead-receiver purge rather than vanish. The
// region-parallel engine reports the purge from a region goroutine, so
// it runs too.
func TestDeadReceiverConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("250-node, 20-minute fault campaign")
	}
	cfg := Default()
	cfg.N = 250
	cfg.Topology = "grid"
	cfg.Duration = 20 * netsim.Minute
	cfg.Warmup = cfg.Duration / 4
	cfg.Trials = 1
	cfg.Seed = 15
	cfg.LinkLoss = 0.3
	cfg.Faults = "campaign"
	script := dynamics.Standard(cfg.N, cfg.Warmup, cfg.Duration, 0.05, 0.3, cfg.Seed+101)
	cfg.Dynamics = &script
	cfg.QueryDeadline = 8 * netsim.Second
	cfg.QueryRetryMax = 4
	cfg.AggRatio = 0.5
	cfg.AggErrBudget = 0.05
	cfg.QueryInterval = 5 * netsim.Second
	cfg.ReindexInterval = 60 * netsim.Second
	cfg.CheckInvariants = true
	for _, k := range []int{1, 4} {
		cfg.Regions = k
		if _, err := Run(cfg); err != nil {
			t.Fatalf("regions=%d: %v", k, err)
		}
	}
}

// TestFaultWindowsOverlapRejected: a configured script whose blackout
// overlaps the seeded fault scenario's blackout is valid on its own,
// so only the per-trial check of the merged timeline can reject it —
// before it reaches netsim, which keeps one window per primitive.
func TestFaultWindowsOverlapRejected(t *testing.T) {
	cfg := Default()
	cfg.N = 20
	cfg.Trials = 1
	cfg.Duration = 10 * netsim.Minute
	cfg.Warmup = 2 * netsim.Minute
	script := dynamics.Blackout(1, 2, cfg.Warmup, cfg.Duration)
	cfg.Dynamics = &script
	cfg.Faults = "blackout"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("Run error = %v, want an overlapping-blackout rejection", err)
	}
}
