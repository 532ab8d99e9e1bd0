package netsim

// linkTable is the network's one runtime link model (DESIGN.md §12): a
// compressed-sparse-row snapshot of Topology.Quality, built once in
// NewNetwork. out holds every audible directed link grouped by source,
// each group in ascending destination order — the order transmit draws
// per-receiver randomness in, so it must equal a fresh Quality row scan
// (the determinism contract). in indexes the same links by destination,
// each group sorted by source, for the pair lookups of carrier sense,
// the collision fold and the ack. A pair absent from the table has
// quality 0.
type linkTable struct {
	outStart []int32 // source i's links are out[outStart[i]:outStart[i+1]]
	out      []link
	inStart  []int32 // destination j's links are in[inStart[j]:inStart[j+1]]
	in       []inLink
}

// link is one directed audible link: the destination, the topology's
// delivery probability q and the scripted loss scale (ScaleLink).
type link struct {
	dst      NodeID
	q, scale float64
}

// inLink is one entry of the by-destination index: the link's source
// and its position in out.
type inLink struct {
	src NodeID
	at  int32
}

func newLinkTable(topo *Topology) linkTable {
	nn := topo.N
	t := linkTable{outStart: make([]int32, nn+1), inStart: make([]int32, nn+1)}
	for i, row := range topo.Quality {
		for j, q := range row {
			if i != j && q > 0 {
				t.out = append(t.out, link{dst: NodeID(j), q: q, scale: 1})
				t.inStart[j+1]++
			}
		}
		t.outStart[i+1] = int32(len(t.out))
	}
	for j := 0; j < nn; j++ {
		t.inStart[j+1] += t.inStart[j]
	}
	// Counting sort by destination: sources are visited in ascending
	// order, so every in-group comes out sorted by source.
	t.in = make([]inLink, len(t.out))
	fill := append([]int32(nil), t.inStart[:nn]...)
	for i := 0; i < nn; i++ {
		for k := t.outStart[i]; k < t.outStart[i+1]; k++ {
			j := t.out[k].dst
			t.in[fill[j]] = inLink{src: NodeID(i), at: k}
			fill[j]++
		}
	}
	return t
}

// from returns src's out-links in ascending destination order.
func (t *linkTable) from(src NodeID) []link { return t.out[t.outStart[src]:t.outStart[src+1]] }

// find returns link src→dst, or nil when the pair is not audible.
func (t *linkTable) find(src, dst NodeID) *link {
	in := t.in[t.inStart[dst]:t.inStart[dst+1]]
	if len(in) == 0 || src < in[0].src || src > in[len(in)-1].src {
		// Most lookups are misses from distant transmitters (carrier
		// sense and the collision fold scan every frame on the air),
		// and the generators number nodes spatially, so the group's
		// source range rejects them without a search.
		return nil
	}
	lo, hi := 0, len(in)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if in[m].src < src {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(in) && in[lo].src == src {
		return &t.out[in[lo].at]
	}
	return nil
}
