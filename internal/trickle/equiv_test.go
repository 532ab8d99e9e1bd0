package trickle

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// gossipSet is the surface both implementations share.
type gossipSet interface {
	Add(Key)
	Remove(Key)
	Heard(Key)
	OnTimer()
}

type sendRec struct {
	at  netsim.Time
	key Key
}

// probe hosts one implementation on node 0 of a 2-node network and
// records every send and every timer fire with its virtual time.
type probe struct {
	mk    func(api *netsim.NodeAPI, send func(Key)) gossipSet
	tr    gossipSet
	api   *netsim.NodeAPI
	sends []sendRec
	fires []netsim.Time
}

func (p *probe) Init(api *netsim.NodeAPI) {
	p.api = api
	p.tr = p.mk(api, func(k Key) { p.sends = append(p.sends, sendRec{api.Now(), k}) })
}
func (p *probe) Receive(*netsim.Packet) {}
func (p *probe) Snoop(*netsim.Packet)   {}
func (p *probe) Timer(id int) {
	if id == trickleTimer {
		p.fires = append(p.fires, p.api.Now())
		p.tr.OnTimer()
	}
}

type idle struct{}

func (idle) Init(*netsim.NodeAPI)   {}
func (idle) Receive(*netsim.Packet) {}
func (idle) Snoop(*netsim.Packet)   {}
func (idle) Timer(int)              {}

func newProbe(seed int64, mk func(*netsim.NodeAPI, func(Key)) gossipSet) (*probe, *netsim.Simulator) {
	topo := netsim.NewTopology(2)
	topo.Pos = make([]netsim.Point, 2)
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	p := &probe{mk: mk}
	net.Attach(0, p)
	net.Attach(1, idle{})
	net.Start()
	return p, sim
}

// deadline is the earliest pending deadline of the slice
// implementation (-1 when nothing is pending): what rearm arms.
func (t *Trickle) deadline() netsim.Time {
	next := netsim.Time(-1)
	for _, it := range t.items {
		d := it.fireAt
		if it.fired {
			d = it.endAt
		}
		if !it.retired && (next < 0 || d < next) {
			next = d
		}
	}
	return next
}

// deadline is the same quantity for the reference.
func (t *refTrickle) deadline() netsim.Time {
	next := netsim.Time(-1)
	for _, st := range t.items {
		d := st.fireAt
		if st.fired {
			d = st.endAt
		}
		if !st.retired && (next < 0 || d < next) {
			next = d
		}
	}
	return next
}

// equivCoverage counts the corner cases a sequence reached, so the
// property cannot pass vacuously.
type equivCoverage struct {
	reAddRetired int // Add of a key the reference holds retired
	sendRetiring int // send of a key that retired in the same pass
}

// runEquivalence drives the slice Trickle and the reference through
// one seeded random sequence of Add (new, live and retired keys),
// Remove, Heard and timer fires, on two simulators with the same seed.
// After every step both must have produced the same (time, key) sends
// and timer fires, consumed the same node RNG draws (probed by one
// extra draw on each side), scheduled the same number of events, and
// armed the same deadline.
func runEquivalence(t *testing.T, cfg Config, seed int64, cov *equivCoverage) {
	t.Helper()
	var got *Trickle
	var ref *refTrickle
	pg, simG := newProbe(seed, func(api *netsim.NodeAPI, send func(Key)) gossipSet {
		got = New(api, trickleTimer, cfg, send)
		return got
	})
	pr, simR := newProbe(seed, func(api *netsim.NodeAPI, send func(Key)) gossipSet {
		var r *refTrickle
		r = newRef(api, trickleTimer, cfg, func(k Key) {
			if r.items[k].retired {
				cov.sendRetiring++
			}
			send(k)
		})
		ref = r
		return r
	})

	ops := rand.New(rand.NewSource(seed))
	const keys = 12
	for step := 0; step < 400; step++ {
		k := Key(ops.Intn(keys))
		var op string
		switch r := ops.Intn(100); {
		case r < 25:
			op = fmt.Sprintf("Add(%d)", k)
			if st, ok := ref.items[k]; ok && st.retired {
				cov.reAddRetired++
			}
			got.Add(k)
			ref.Add(k)
		case r < 35:
			op = fmt.Sprintf("Remove(%d)", k)
			got.Remove(k)
			ref.Remove(k)
		case r < 55:
			op = fmt.Sprintf("Heard(%d)", k)
			got.Heard(k)
			ref.Heard(k)
		default:
			// Mostly short advances, now and then one long enough for
			// every item to back off to TauHigh or retire.
			span := cfg.TauHigh
			if ops.Intn(10) == 0 {
				span = 8 * cfg.TauHigh
			}
			until := simG.Now() + netsim.Time(ops.Int63n(int64(span)))
			op = fmt.Sprintf("run to %d", until)
			simG.Run(until)
			simR.Run(until)
		}
		where := func() string { return fmt.Sprintf("cfg %+v seed %d step %d (%s)", cfg, seed, step, op) }
		if !slices.Equal(pg.sends, pr.sends) {
			t.Fatalf("%s: sends %v, reference %v", where(), pg.sends, pr.sends)
		}
		if !slices.Equal(pg.fires, pr.fires) {
			t.Fatalf("%s: timer fires %v, reference %v", where(), pg.fires, pr.fires)
		}
		if g, r := got.deadline(), ref.deadline(); g != r {
			t.Fatalf("%s: armed deadline %d, reference %d", where(), g, r)
		}
		if g, r := simG.Pending(), simR.Pending(); g != r {
			t.Fatalf("%s: %d pending events, reference %d", where(), g, r)
		}
		if g, r := pg.api.RandIntn(1<<30), pr.api.RandIntn(1<<30); g != r {
			t.Fatalf("%s: node RNG diverged (probe draw %d, reference %d)", where(), g, r)
		}
	}
}

func TestMatchesReference(t *testing.T) {
	var cov equivCoverage
	for _, taus := range [][2]netsim.Time{{2, 64}, {500, 8 * netsim.Second}} {
		for _, maxRounds := range []int{0, 4, 6} {
			for _, k := range []int{1, 2} {
				cfg := Config{TauLow: taus[0], TauHigh: taus[1], K: k, MaxRounds: maxRounds}
				for seed := int64(1); seed <= 6; seed++ {
					runEquivalence(t, cfg, seed, &cov)
				}
			}
		}
	}
	if cov.reAddRetired == 0 || cov.sendRetiring == 0 {
		t.Fatalf("sequences never reached a corner case: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}
