package netsim

import (
	"math"
	"testing"

	"scoop/internal/metrics"
)

func linkTestTopologies() []*Topology {
	return []*Topology{
		GridTopology(64, 2.5, 7),
		UniformTopology(63, 8, 3.5, 11),
		TestbedTopology(62, 3),
	}
}

// TestOutLinksMatchQualityScan pins the determinism contract of the
// link table's out-lists: for every node they must enumerate exactly
// the audible destinations of a fresh Quality-row scan, in ascending
// destination order — the transmit loop draws per-receiver randomness
// in list order, so any deviation silently changes every simulation.
func TestOutLinksMatchQualityScan(t *testing.T) {
	for _, topo := range linkTestTopologies() {
		net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
		for i := 0; i < topo.N; i++ {
			links := net.links.from(NodeID(i))
			k := 0
			for j := 0; j < topo.N; j++ {
				if i == j || topo.Quality[i][j] <= 0 {
					continue
				}
				if k >= len(links) {
					t.Fatalf("node %d: out-list too short (%d entries)", i, len(links))
				}
				if l := links[k]; l.dst != NodeID(j) || l.q != topo.Quality[i][j] || l.scale != 1 {
					t.Fatalf("node %d link %d: got (%d,%v,%v), want (%d,%v,1)",
						i, k, l.dst, l.q, l.scale, j, topo.Quality[i][j])
				}
				k++
			}
			if k != len(links) {
				t.Fatalf("node %d: %d extra out-links", i, len(links)-k)
			}
		}
	}
}

// TestInIndexMatchesQuality checks the by-destination index: the pair
// lookup equals Quality[i][j] for every ordered pair, non-links (and
// self-pairs) included, and finds the very entry the out-list holds.
func TestInIndexMatchesQuality(t *testing.T) {
	for _, topo := range linkTestTopologies() {
		net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
		for i := 0; i < topo.N; i++ {
			for j := 0; j < topo.N; j++ {
				l := net.links.find(NodeID(i), NodeID(j))
				if l == nil {
					if i != j && topo.Quality[i][j] != 0 {
						t.Fatalf("pair %d→%d: audible (q=%v) but not indexed", i, j, topo.Quality[i][j])
					}
					continue
				}
				if i == j || l.dst != NodeID(j) || l.q != topo.Quality[i][j] {
					t.Fatalf("pair %d→%d: found (%d,%v), want q=%v", i, j, l.dst, l.q, topo.Quality[i][j])
				}
			}
		}
	}
}

// TestOutLinksBuiltOnce verifies the table is a snapshot taken once in
// NewNetwork: the hot transmit path reuses one backing array, and a
// later edit of the dense Quality matrix is not seen.
func TestOutLinksBuiltOnce(t *testing.T) {
	topo := GridTopology(16, 2.5, 5)
	net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
	a := net.links.from(1)
	b := net.links.from(1)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("out-list rebuilt between calls (the table must be built once)")
	}
	dst := a[0].dst
	q := topo.Quality[1][dst]
	topo.Quality[1][dst] = 0
	if got := net.quality(1, dst); got != q {
		t.Fatalf("quality after a Quality edit = %v, want the snapshot %v", got, q)
	}
}

// TestScaleTierTopologies exercises the lifted node bound: topologies
// up to MaxNodes build, stay connected, and keep bounded degree (the
// generators hold radio range constant as area grows, so per-node
// neighbourhoods — and therefore per-event cost — stay O(1) in N).
func TestScaleTierTopologies(t *testing.T) {
	for _, n := range []int{250, 1000} {
		topo := GridTopology(n, 2.5, 9)
		if topo.N != n {
			t.Fatalf("N = %d, want %d", topo.N, n)
		}
		net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
		maxDeg := 0
		for i := 0; i < n; i++ {
			if d := len(net.links.from(NodeID(i))); d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg == 0 || maxDeg > 60 {
			t.Fatalf("n=%d: max degree %d outside (0,60] — radio range no longer local", n, maxDeg)
		}
	}
}

// denseLinks is the reference model the link table replaced: N×N
// quality, scale and fault-bit tables and the formula over them. The
// property test below holds the sparse table to it bit for bit.
type denseLinks struct {
	n     int
	qual  []float64
	scale []float64
	mask  []uint8 // bit 1: blackout, bit 2: partition
	burst float64
}

func newDenseLinks(topo *Topology) *denseLinks {
	nn := topo.N
	d := &denseLinks{n: nn, qual: make([]float64, nn*nn), scale: make([]float64, nn*nn), mask: make([]uint8, nn*nn)}
	for i := 0; i < nn; i++ {
		copy(d.qual[i*nn:(i+1)*nn], topo.Quality[i])
	}
	for i := range d.scale {
		d.scale[i] = 1
	}
	return d
}

// setMask sets or clears bit on every pair block selects.
func (d *denseLinks) setMask(bit uint8, on bool, block func(i, j NodeID) bool) {
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			if !block(NodeID(i), NodeID(j)) {
				continue
			}
			if on {
				d.mask[i*d.n+j] |= bit
			} else {
				d.mask[i*d.n+j] &^= bit
			}
		}
	}
}

func (d *denseLinks) quality(src, dst NodeID) float64 {
	i := int(src)*d.n + int(dst)
	if d.mask[i] != 0 {
		return 0
	}
	q := d.qual[i] * d.scale[i]
	if d.burst > 0 {
		q *= 1 - d.burst
	}
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

func (d *denseLinks) dropCause(src, dst NodeID) metrics.DropCause {
	switch m := d.mask[int(src)*d.n+int(dst)]; {
	case m&1 != 0:
		return metrics.DropBlackout
	case m&2 != 0:
		return metrics.DropPartition
	case d.burst > 0:
		return metrics.DropBurst
	}
	return metrics.DropRetries
}

// TestLinkTableMatchesDenseReference applies seeded random sequences of
// ScaleLink (non-links included), ScaleAllLinks, SetBurst, SetBlackout
// and SetPartition, and after every step requires quality() and the
// dropCause class of every ordered pair to be bit-equal to the dense
// reference. Scale factors are non-negative, as every caller's are (the
// complement of a loss fraction, times a standing scale).
func TestLinkTableMatchesDenseReference(t *testing.T) {
	for ti, topo := range []*Topology{UniformTopology(30, 6, 3.0, 21), GridTopology(25, 2.0, 4)} {
		rng := newTestRand(int64(100 + ti))
		net := NewNetwork(NewSimulator(1), topo, metrics.NewCounters(), DefaultParams())
		ref := newDenseLinks(topo)
		node := func() NodeID { return NodeID(rng.Intn(topo.N)) }
		factor := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return 1
			}
			return rng.Float64() * 1.6
		}
		var blackLo, blackHi NodeID
		blackOn, cutOn := false, false
		var cut NodeID
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(5); op {
			case 0:
				src, dst, f := node(), node(), factor()
				net.ScaleLink(src, dst, f)
				ref.scale[int(src)*ref.n+int(dst)] = f
			case 1:
				f := factor()
				net.ScaleAllLinks(f)
				for i := range ref.scale {
					ref.scale[i] = f
				}
			case 2:
				f := rng.Float64()*1.4 - 0.2 // SetBurst clamps to [0,1]
				if rng.Intn(3) == 0 {
					f = 0
				}
				net.SetBurst(f)
				ref.burst = math.Max(0, math.Min(1, f))
			case 3:
				if !blackOn {
					blackLo, blackHi = node(), node()
					if blackLo > blackHi {
						blackLo, blackHi = blackHi, blackLo
					}
				}
				blackOn = !blackOn
				net.SetBlackout(blackLo, blackHi, blackOn)
				lo, hi := blackLo, blackHi
				ref.setMask(1, blackOn, func(i, j NodeID) bool { return i >= lo && i <= hi || j >= lo && j <= hi })
			case 4:
				if !cutOn {
					cut = node()
				}
				cutOn = !cutOn
				net.SetPartition(cut, cutOn)
				b := cut
				ref.setMask(2, cutOn, func(i, j NodeID) bool { return (i < b) != (j < b) })
			}
			for i := 0; i < topo.N; i++ {
				for j := 0; j < topo.N; j++ {
					src, dst := NodeID(i), NodeID(j)
					if got, want := net.quality(src, dst), ref.quality(src, dst); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("topology %d step %d: quality(%d,%d) = %v, dense reference %v", ti, step, i, j, got, want)
					}
					if got, want := net.dropCause(src, dst), ref.dropCause(src, dst); got != want {
						t.Fatalf("topology %d step %d: dropCause(%d,%d) = %v, dense reference %v", ti, step, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestFaultWindowContract pins the descriptor contract: opening a
// second window of the same primitive, or closing a window that is not
// the active one, panics instead of silently diverging from per-link
// semantics.
func TestFaultWindowContract(t *testing.T) {
	net := NewNetwork(NewSimulator(1), GridTopology(16, 2.5, 5), metrics.NewCounters(), DefaultParams())
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	net.SetBlackout(2, 4, true)
	mustPanic("overlapping blackout", func() { net.SetBlackout(6, 8, true) })
	mustPanic("blackout end on another stripe", func() { net.SetBlackout(2, 5, false) })
	net.SetBlackout(2, 4, false)
	mustPanic("blackout end with none open", func() { net.SetBlackout(2, 4, false) })
	net.SetPartition(8, true)
	mustPanic("overlapping partition", func() { net.SetPartition(8, true) })
	mustPanic("partition end on another boundary", func() { net.SetPartition(9, false) })
	net.SetPartition(8, false)
	mustPanic("partition end with none open", func() { net.SetPartition(8, false) })
}

// TestDeadReceiverPurged kills a unicast addressee while its frame is
// on the air. The sender's ack was drawn at transmit start, so it
// believes the frame delivered; the network must report the frame
// through OnPurge exactly once — and not for a snooper that dies too.
func TestDeadReceiverPurged(t *testing.T) {
	topo := NewTopology(3)
	topo.Pos = make([]Point, 3)
	topo.Quality[0][1], topo.Quality[1][0] = 1, 1
	topo.Quality[0][2], topo.Quality[2][0] = 1, 1
	sim := NewSimulator(3)
	ctr := metrics.NewCounters()
	net := NewNetwork(sim, topo, ctr, DefaultParams())
	recs := []*recorder{{}, {}, {}}
	for i, r := range recs {
		net.Attach(NodeID(i), r)
	}
	type purge struct {
		id     NodeID
		reason string
	}
	var purges []purge
	net.OnPurge = func(id NodeID, p *Packet, reason string) { purges = append(purges, purge{id, reason}) }
	net.Start()

	ok := false
	net.api[0].Send(&Packet{Class: metrics.Data, Dst: 1, Size: 200}, func(b bool) { ok = b })
	killed := false
	var poll func()
	poll = func() {
		if ctr.Sent(metrics.Data) > 0 && !killed {
			net.Kill(1)
			net.Kill(2)
			killed = true
		}
		if !killed {
			sim.At(sim.Now()+Millisecond, poll)
		}
	}
	sim.At(Millisecond, poll)
	sim.Run(Minute)
	if !killed || !ok {
		t.Fatalf("killed=%v ok=%v: the sender must see its frame acked before the addressee died", killed, ok)
	}
	if len(recs[1].received) != 0 || len(recs[2].snooped) != 0 {
		t.Fatal("a node that died mid-air still got the frame")
	}
	if len(purges) != 1 || purges[0] != (purge{1, "dead-receiver"}) {
		t.Fatalf("purges = %v, want exactly one dead-receiver purge at node 1", purges)
	}
}
