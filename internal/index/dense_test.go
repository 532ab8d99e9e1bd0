package index

// XmitsDense is the original dense Floyd–Warshall pass, kept as the
// test oracle the sparse solver is equivalence-tested against (and for
// the ablation benches). Its results agree with Xmits up to
// floating-point association: both compute shortest-path sums of the
// same edge costs, but FW may round a different parenthesisation of
// the same path.
func (g *Graph) XmitsDense() [][]float64 {
	n := g.N
	// One flat backing array: row slices share it, so the O(n²) matrix
	// is a single allocation and the k-loop walks contiguous memory.
	flat := make([]float64, n*n)
	d := make([][]float64, n)
	for i := range d {
		d[i] = flat[i*n : (i+1)*n : (i+1)*n]
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case g.Quality[i][j] >= minUsableQuality:
				d[i][j] = 1.0 / g.Quality[i][j]
			default:
				d[i][j] = Inf
			}
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik >= Inf {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if alt := dik + dk[j]; alt < di[j] {
					di[j] = alt
				}
			}
		}
	}
	return d
}
