package main

import (
	"fmt"
	"io"
	"math"
	"sync"

	"scoop/internal/exp"
)

// trialSeedStride is exp.Run's per-trial seed step: trial t of a cell
// seeded s simulates seed s + t*trialSeedStride. A benchmark seed s
// pools the same trial seeds.
const trialSeedStride = 7919

// setupSamples is the least number of setups behind the setup_s
// median; setup-only runs top up what the timed runs leave short.
const setupSamples = 25

// refWorkers bounds the exp.Run references running at once.
const refWorkers = 2

// maxFailures stops the timed runs of an invocation that keeps failing.
const maxFailures = 10

// pooled is one trial seed of an invocation and its verified runs.
type pooled struct {
	cfg    exp.Config
	exp    *exp.Result // exp.Run's result for cfg; nil when it failed
	first  *simResult  // the first run's simulated result
	plain  []outcome   // verified untraced runs
	traced []outcome   // verified traced runs
}

// runner counts operations and failures across one invocation. A run
// that errors, panics or simulates something other than its reference
// counts as failed; the remaining runs go on.
type runner struct {
	attempted, failed int
	log               io.Writer
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.log, "repobench: FAILED: "+format+"\n", args...)
}

// references runs exp.Run on every pooled config, refWorkers at a
// time. The first one runs with the invariant checker on.
func (r *runner) references(pool []*pooled) {
	res := make([]exp.Result, len(pool))
	errs := make([]error, len(pool))
	sem := make(chan struct{}, refWorkers)
	var wg sync.WaitGroup
	for i, p := range pool {
		cfg := p.cfg
		cfg.CheckInvariants = i == 0
		wg.Add(1)
		go func(i int, cfg exp.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res[i], errs[i] = runExp(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, p := range pool {
		r.attempted++
		if errs[i] != nil {
			r.fail("exp.Run, seed %d: %v", p.cfg.Seed, errs[i])
			continue
		}
		p.exp = &res[i]
	}
}

func runExp(cfg exp.Config) (res exp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	return exp.Run(cfg)
}

// trial runs p's config once and keeps the run if its simulated result
// equals exp.Run's and every earlier run's.
func (r *runner) trial(p *pooled, traced bool) {
	r.attempted++
	o, err := runTrial(p.cfg, traced, false)
	if err != nil {
		r.fail("seed %d: %v", p.cfg.Seed, err)
		return
	}
	if traced && o.layers.calls[slotOtherTimer] != 0 {
		r.fail("seed %d: %d callbacks with a timer ID outside 1..%d",
			p.cfg.Seed, o.layers.calls[slotOtherTimer], timerRel)
		return
	}
	if p.exp != nil {
		if d := o.sim.diff(fromExp(*p.exp, o.sim.issued)); d != "" {
			r.fail("seed %d: driver differs from exp.Run: %s", p.cfg.Seed, d)
			return
		}
	}
	if p.first == nil {
		p.first = &o.sim
	} else if d := o.sim.diff(*p.first); d != "" {
		r.fail("seed %d: run differs from the seed's first run: %s", p.cfg.Seed, d)
		return
	}
	if traced {
		p.traced = append(p.traced, o)
	} else {
		p.plain = append(p.plain, o)
	}
}

// covered reports whether every pooled seed has a verified run of each
// kind the invocation needs.
func covered(pool []*pooled, traced bool) bool {
	for _, p := range pool {
		if len(p.plain) == 0 || (traced && len(p.traced) == 0) {
			return false
		}
	}
	return true
}

// measure runs workload w for seed and the wall-clock budget, and
// reports its metrics. Untraced, it pools w.trials trial seeds,
// round-robin, and reports the end-to-end metrics. Traced, it
// alternates untraced and traced runs of the first trial seed and
// reports the per-layer metrics. Either way every trial seed is first
// run through exp.Run, and runs go on until the budget is spent and
// every seed has a verified run.
func measure(w spec, seed int64, seconds float64, traced bool, log io.Writer) report {
	k := w.trials
	if traced {
		k = 1
	}
	pool := make([]*pooled, k)
	for i := range pool {
		pool[i] = &pooled{cfg: w.cfg(seed + int64(i)*trialSeedStride)}
	}
	r := &runner{log: log}
	r.references(pool)

	deadline := mono() + int64(seconds*1e9)
	for i := 0; r.failed < maxFailures; i++ {
		if mono() >= deadline && (covered(pool, traced) || r.failed > 0) {
			break
		}
		if traced {
			r.trial(pool[0], i%2 == 1)
		} else {
			r.trial(pool[i%k], false)
		}
	}

	rep := report{Metrics: map[string]metric{}}
	if traced {
		addLayers(rep.Metrics, pool[0].traced, pool[0].plain)
	} else {
		var setups []float64
		for _, p := range pool {
			for _, o := range p.plain {
				setups = append(setups, secs(o.cost.setupNs()))
			}
		}
		for i := 0; len(setups) < setupSamples; i++ {
			r.attempted++
			o, err := runTrial(pool[i%k].cfg, false, true)
			if err != nil {
				r.fail("setup: %v", err)
				break
			}
			setups = append(setups, secs(o.cost.setupNs()))
		}
		addEndToEnd(rep.Metrics, pool, setups)
	}
	rep.Correct = r.failed == 0
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(log, "repobench: metric %s is %v\n", name, m.Value)
			delete(rep.Metrics, name)
			rep.Correct = false
		}
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	return rep
}
