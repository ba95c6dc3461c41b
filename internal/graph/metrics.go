package graph

import (
	"math"
	"sort"

	"elites/internal/parallel"
)

// Reciprocity returns the fraction of directed edges whose reverse edge also
// exists: |{(u,v) ∈ E : (v,u) ∈ E}| / |E|. Kwak et al. report 22.1% for the
// whole Twitter graph; the paper reports 33.7% for the verified sub-graph and
// cites 68% for Flickr.
func Reciprocity(g *Digraph) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	// Sharded over source-node ranges; each ordered edge is owned by
	// exactly one chunk, so the partial counts sum exactly.
	parts := chunkReduce(g.NumNodes(), func(lo, hi int) int64 {
		var mutual int64
		for u := lo; u < hi; u++ {
			for _, v := range g.OutNeighbors(u) {
				// Count each direction; a mutual pair contributes 2.
				if g.HasEdge(int(v), u) {
					mutual++
				}
			}
		}
		return mutual
	})
	var mutual int64
	for _, p := range parts {
		mutual += p
	}
	return float64(mutual) / float64(m)
}

// AverageLocalClustering returns the mean local clustering coefficient over
// nodes with undirected degree >= 2, treating the graph as undirected (the
// convention of Watts–Strogatz and of the paper's reported 0.1583).
// Nodes with degree < 2 contribute 0, matching the networkx "average over
// all nodes" convention.
func AverageLocalClustering(g *Digraph) float64 {
	return MeanClustering(ClusteringCoefficients(g, 0))
}

// ClusteringCoefficients returns every node's local clustering coefficient
// in the undirected projection of g, sharded in fixed metricChunk-wide
// chunks over at most workers goroutines (<= 0 means GOMAXPROCS). Each entry
// depends only on the graph, so the vector is identical at every budget.
func ClusteringCoefficients(g *Digraph, workers int) []float64 {
	und := g.Undirected()
	cc := make([]float64, und.NumNodes())
	parallel.ChunkReduce(len(cc), metricChunk, workers, func(lo, hi int) struct{} {
		for u := lo; u < hi; u++ {
			cc[u] = localClustering(und, u)
		}
		return struct{}{}
	})
	return cc
}

// MeanClustering averages a ClusteringCoefficients vector. Partial sums are
// taken per metricChunk chunk and folded in chunk order, so the mean is the
// same float whoever computed the vector and at whatever worker budget.
func MeanClustering(cc []float64) float64 {
	if len(cc) == 0 {
		return 0
	}
	total := 0.0
	for lo := 0; lo < len(cc); lo += metricChunk {
		s := 0.0
		for _, c := range cc[lo:min(lo+metricChunk, len(cc))] {
			s += c
		}
		total += s
	}
	return total / float64(len(cc))
}

// localClustering computes triangles/(d·(d-1)/2) on an already-symmetric
// graph.
func localClustering(und *Digraph, u int) float64 {
	nbrs := und.OutNeighbors(u)
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		vi := nbrs[i]
		row := und.OutNeighbors(int(vi))
		// Count neighbors of vi that are also neighbors of u with id
		// greater than vi (each undirected pair counted once) by merge
		// intersection.
		j, k := 0, 0
		for j < len(row) && k < d {
			switch {
			case row[j] < nbrs[k]:
				j++
			case row[j] > nbrs[k]:
				k++
			default:
				if row[j] > vi {
					links++
				}
				j++
				k++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// DegreeAssortativity returns the Pearson correlation of the (out-degree of
// source, in-degree of target) pairs over all directed edges — the
// out-in degree assortativity of Newman. Negative values indicate
// dissortativity; the paper measures −0.04 for the verified network, in
// contrast to the assortative full Twitter graph.
func DegreeAssortativity(g *Digraph) float64 {
	return DegreeAssortativityWithIn(g, g.InDegrees())
}

// DegreeAssortativityWithIn is DegreeAssortativity with a precomputed
// in-degree vector, saving the O(m) scan when the caller already holds one.
func DegreeAssortativityWithIn(g *Digraph, in []int) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	// Each chunk accumulates the five edge moments over its source range;
	// combining in chunk order keeps the correlation bit-stable under any
	// worker count.
	type moments struct{ sx, sy, sxx, syy, sxy float64 }
	parts := chunkReduce(g.NumNodes(), func(lo, hi int) moments {
		var p moments
		for u := lo; u < hi; u++ {
			du := float64(g.OutDegree(u))
			for _, v := range g.OutNeighbors(u) {
				dv := float64(in[v])
				p.sx += du
				p.sy += dv
				p.sxx += du * du
				p.syy += dv * dv
				p.sxy += du * dv
			}
		}
		return p
	})
	var sx, sy, sxx, syy, sxy float64
	for _, p := range parts {
		sx += p.sx
		sy += p.sy
		sxx += p.sxx
		syy += p.syy
		sxy += p.sxy
	}
	fm := float64(m)
	cov := sxy/fm - (sx/fm)*(sy/fm)
	vx := sxx/fm - (sx/fm)*(sx/fm)
	vy := syy/fm - (sy/fm)*(sy/fm)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// DegreeStats summarizes a degree sequence.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	Median   float64
}

// SummarizeDegrees computes order statistics of a degree slice.
func SummarizeDegrees(deg []int) DegreeStats {
	if len(deg) == 0 {
		return DegreeStats{}
	}
	sorted := make([]int, len(deg))
	copy(sorted, deg)
	sort.Ints(sorted)
	total := 0
	for _, d := range sorted {
		total += d
	}
	mid := len(sorted) / 2
	median := float64(sorted[mid])
	if len(sorted)%2 == 0 {
		median = (float64(sorted[mid-1]) + float64(sorted[mid])) / 2
	}
	return DegreeStats{
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   float64(total) / float64(len(sorted)),
		Median: median,
	}
}

// ArgMax returns the index of the maximum value in deg (first occurrence).
func ArgMax(deg []int) int {
	best := 0
	for i, d := range deg {
		if d > deg[best] {
			best = i
		}
	}
	return best
}
