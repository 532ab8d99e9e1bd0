package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridTopologyBasics(t *testing.T) {
	topo := GridTopology(63, 2.5, 1)
	if topo.N != 63 {
		t.Fatalf("N = %d", topo.N)
	}
	for i := 0; i < topo.N; i++ {
		if topo.Quality[i][i] != 0 {
			t.Fatalf("self-link at %d", i)
		}
	}
}

func TestTopologyQualityRange(t *testing.T) {
	for _, topo := range []*Topology{
		GridTopology(63, 2.5, 2),
		UniformTopology(63, 8, 3.2, 2),
		TestbedTopology(63, 2),
	} {
		for i := 0; i < topo.N; i++ {
			for j := 0; j < topo.N; j++ {
				q := topo.Quality[i][j]
				if q < 0 || q > 1 {
					t.Fatalf("quality out of range: %f", q)
				}
			}
		}
	}
}

func TestTopologyLossBand(t *testing.T) {
	// Audible links span from near-deaf (90% loss) to reliable
	// close-range pairs (10% loss), with most mass in between.
	topo := UniformTopology(63, 8, 3.2, 5)
	for i := 0; i < topo.N; i++ {
		for j := 0; j < topo.N; j++ {
			q := topo.Quality[i][j]
			if q != 0 && (q < 0.09 || q > 0.91) {
				t.Fatalf("audible link quality %f outside band", q)
			}
		}
	}
}

func TestTopologyConnectivityFraction(t *testing.T) {
	// Paper: on average a node hears ~20% of the network. Accept a
	// generous band; the shape of results tolerates it.
	topo := UniformTopology(63, 8, 3.2, 7)
	frac := topo.AvgDegreeFraction()
	if frac < 0.08 || frac > 0.45 {
		t.Fatalf("avg degree fraction %f outside plausible band", frac)
	}
}

func TestTopologyConnected(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, topo := range []*Topology{
			GridTopology(63, 2.5, seed),
			UniformTopology(63, 8, 3.2, seed),
			TestbedTopology(63, seed),
			UniformTopology(101, 10, 3.2, seed),
		} {
			if !biconnectedToBase(topo) {
				t.Fatalf("seed %d: topology not connected to base", seed)
			}
		}
	}
}

// biconnectedToBase checks every node reaches node 0 over links usable
// in both directions (needed for ack-based unicast).
func biconnectedToBase(topo *Topology) bool {
	reach := make([]bool, topo.N)
	reach[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := 0; j < topo.N; j++ {
			if !reach[j] && topo.Quality[i][j] > 0 && topo.Quality[j][i] > 0 {
				reach[j] = true
				queue = append(queue, j)
			}
		}
	}
	for _, r := range reach {
		if !r {
			return false
		}
	}
	return true
}

func TestTopologyAsymmetry(t *testing.T) {
	topo := UniformTopology(63, 8, 3.2, 9)
	asym := 0
	links := 0
	for i := 0; i < topo.N; i++ {
		for j := i + 1; j < topo.N; j++ {
			if topo.Quality[i][j] > 0 && topo.Quality[j][i] > 0 {
				links++
				if math.Abs(topo.Quality[i][j]-topo.Quality[j][i]) > 1e-9 {
					asym++
				}
			}
		}
	}
	if links == 0 {
		t.Fatal("no links")
	}
	if float64(asym)/float64(links) < 0.5 {
		t.Fatalf("only %d/%d links asymmetric; topology should be slightly asymmetric", asym, links)
	}
}

func TestTopologyDeterminism(t *testing.T) {
	a := UniformTopology(63, 8, 3.2, 11)
	b := UniformTopology(63, 8, 3.2, 11)
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("positions differ at %d", i)
		}
		for j := 0; j < a.N; j++ {
			if a.Quality[i][j] != b.Quality[i][j] {
				t.Fatalf("quality differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestTestbedMutualAudibility(t *testing.T) {
	topo := TestbedTopology(63, 4)
	for i := 0; i < topo.N; i++ {
		for j := 0; j < topo.N; j++ {
			if (topo.Quality[i][j] > 0) != (topo.Quality[j][i] > 0) {
				t.Fatalf("one-way audibility between %d and %d", i, j)
			}
		}
	}
}

func TestNewTopologyBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized topology")
		}
	}()
	NewTopology(MaxNodes + 1)
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %f", d)
	}
}

// Property: link quality is always 0 beyond radio range and within
// [0.10, 0.75] when nonzero.
func TestLinkQualityProperty(t *testing.T) {
	f := func(dSeed uint32) bool {
		r := newTestRand(int64(dSeed))
		d := float64(dSeed%600) / 100.0 // 0..6
		q := linkQuality(d, 3.0, r)
		if d >= 3.0 {
			return q == 0
		}
		return q == 0 || (q >= 0.10 && q <= 0.90)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
