package trickle

import (
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// harness runs one Trickle instance on node 0 of a 2-node network.
type harness struct {
	tr    *Trickle
	sends []Key
	fires int
	cfg   Config
}

const trickleTimer = 9

func (h *harness) Init(api *netsim.NodeAPI) {
	h.tr = New(api, trickleTimer, h.cfg, func(k Key) { h.sends = append(h.sends, k) })
}
func (h *harness) Receive(p *netsim.Packet) {}
func (h *harness) Snoop(p *netsim.Packet)   {}
func (h *harness) Timer(id int) {
	if id == trickleTimer {
		h.fires++
		h.tr.OnTimer()
	}
}

func newHarness(cfg Config, seed int64) (*harness, *netsim.Simulator) {
	topo := netsim.NewTopology(2)
	topo.Pos = make([]netsim.Point, 2)
	topo.Quality[0][1], topo.Quality[1][0] = 1, 1
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	h := &harness{cfg: cfg}
	net.Attach(0, h)
	net.Attach(1, &harness{cfg: cfg})
	net.Start()
	return h, sim
}

func TestTrickleSendsOncePerInterval(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 1)
	h.tr.Add(5)
	sim.Run(10 * netsim.Second)
	// Fixed 1s intervals for 10s: roughly one send per interval.
	if len(h.sends) < 8 || len(h.sends) > 11 {
		t.Fatalf("sends = %d, want ~10", len(h.sends))
	}
	for _, k := range h.sends {
		if k != 5 {
			t.Fatalf("sent wrong key %d", k)
		}
	}
}

func TestTrickleIntervalDoubling(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: 16 * netsim.Second, K: 1}
	h, sim := newHarness(cfg, 2)
	h.tr.Add(1)
	sim.Run(60 * netsim.Second)
	// Intervals: 1+2+4+8+16+16+... → far fewer than 60 sends.
	if len(h.sends) > 10 {
		t.Fatalf("sends = %d; interval doubling not slowing gossip", len(h.sends))
	}
	if len(h.sends) < 4 {
		t.Fatalf("sends = %d; gossip died prematurely", len(h.sends))
	}
}

func TestTrickleSuppression(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 3)
	h.tr.Add(1)
	// Simulate hearing the same item constantly: suppress every send.
	stop := false
	var feed func()
	feed = func() {
		if stop {
			return
		}
		h.tr.Heard(1)
		sim.After(100*netsim.Millisecond, feed)
	}
	sim.After(1, feed)
	sim.Run(10 * netsim.Second)
	stop = true
	if len(h.sends) > 1 {
		t.Fatalf("sends = %d despite constant hearing; suppression broken", len(h.sends))
	}
}

func TestTrickleKThreshold(t *testing.T) {
	// With K=2, hearing the item once per interval must NOT suppress.
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 2}
	h, sim := newHarness(cfg, 4)
	h.tr.Add(1)
	var feed func()
	feed = func() {
		h.tr.Heard(1)
		sim.After(netsim.Second, feed)
	}
	sim.After(1, feed)
	sim.Run(10 * netsim.Second)
	if len(h.sends) < 7 {
		t.Fatalf("sends = %d; K=2 should not suppress on single hearings", len(h.sends))
	}
}

func TestTrickleMaxRoundsRetires(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1, MaxRounds: 3}
	h, sim := newHarness(cfg, 6)
	h.tr.Add(1)
	sim.Run(20 * netsim.Second)
	if len(h.sends) > 3 {
		t.Fatalf("sends = %d; item should retire after 3 rounds", len(h.sends))
	}
}

// Retired items are dropped, not kept: once the last item passes
// MaxRounds the Trickle holds nothing and its timer stays silent.
func TestTrickleRetiredItemsDropped(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: 4 * netsim.Second, K: 1, MaxRounds: 3}
	h, sim := newHarness(cfg, 12)
	h.tr.Add(3)
	h.tr.Add(1)
	sim.Run(2 * netsim.Second)
	h.tr.Add(2) // retires last, two seconds after the others
	sim.Run(30 * netsim.Second)
	if n := len(h.tr.items); n != 0 {
		t.Fatalf("%d items held after every item passed MaxRounds", n)
	}
	fires, sends := h.fires, len(h.sends)
	sim.Run(sim.Now() + 10*netsim.Minute)
	if h.fires != fires || len(h.sends) != sends {
		t.Fatalf("timer still firing after retirement: %d fires, %d sends later",
			h.fires-fires, len(h.sends)-sends)
	}
	if sim.Pending() != 0 {
		t.Fatalf("%d events still pending; timer not cancelled", sim.Pending())
	}
}

// OnTimer and Heard on a warmed Trickle allocate nothing: the item
// slice, the due scratch and the pooled netsim timer are all reused.
func TestTrickleSteadyStateNoAlloc(t *testing.T) {
	cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 4 * netsim.Second, K: 1}
	h, sim := newHarness(cfg, 13)
	for _, k := range []Key{40, 7, 19, 3, 88, 61, 25, 12} {
		h.tr.Add(k)
	}
	sim.Run(time90s())
	const runs = 200
	h.sends = make([]Key, 0, 8*(runs+1)) // recording sends must not allocate either
	fires := h.fires
	// Each event is one fire of the Trickle timer (nothing else is
	// scheduled), so this measures OnTimer plus the event loop.
	if a := testing.AllocsPerRun(runs, func() { sim.Step() }); a != 0 {
		t.Fatalf("OnTimer allocates %.2f/call, want 0", a)
	}
	if h.fires-fires < runs {
		t.Fatalf("only %d OnTimer calls in %d steps", h.fires-fires, runs)
	}
	if a := testing.AllocsPerRun(1000, func() { h.tr.Heard(19) }); a != 0 {
		t.Fatalf("Heard allocates %.2f/call, want 0", a)
	}
}

func TestTrickleRemove(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 7)
	h.tr.Add(1)
	h.tr.Add(2)
	sim.Run(3 * netsim.Second)
	h.tr.Remove(1)
	if _, ok := h.tr.find(1); ok {
		t.Fatal("Remove left the item in place")
	}
	if _, ok := h.tr.find(2); !ok {
		t.Fatal("Remove removed the wrong item")
	}
	before := len(h.sends)
	sim.Run(sim.Now() + 5*netsim.Second)
	for _, k := range h.sends[before:] {
		if k == 1 {
			t.Fatal("removed item still gossiping")
		}
	}
	if len(h.tr.items) != 1 {
		t.Fatalf("len = %d", len(h.tr.items))
	}
}

func TestTrickleMultipleItemsIndependent(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 8)
	h.tr.Add(10)
	h.tr.Add(20)
	sim.Run(5 * netsim.Second)
	counts := map[Key]int{}
	for _, k := range h.sends {
		counts[k]++
	}
	if counts[10] < 3 || counts[20] < 3 {
		t.Fatalf("per-item sends %v; both items must gossip", counts)
	}
}

func TestTrickleHeardUnknownKeyIgnored(t *testing.T) {
	cfg := DefaultConfig()
	h, sim := newHarness(cfg, 9)
	h.tr.Heard(99) // must not panic
	sim.Run(netsim.Second)
}

func TestTrickleInvalidConfigPanics(t *testing.T) {
	h, _ := newHarness(DefaultConfig(), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = h
	New(nil, 1, Config{TauLow: 10, TauHigh: 5, K: 1}, nil)
}

func TestTrickleReAddRestartsFast(t *testing.T) {
	cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 32 * netsim.Second, K: 1}
	h, sim := newHarness(cfg, 11)
	h.tr.Add(1)
	sim.Run(40 * netsim.Second)
	n := len(h.sends)
	h.tr.Add(1) // re-add resets to TauLow
	sim.Run(sim.Now() + 3*netsim.Second)
	if len(h.sends)-n < 2 {
		t.Fatalf("re-Add did not restart fast gossip (%d new sends)", len(h.sends)-n)
	}
}
