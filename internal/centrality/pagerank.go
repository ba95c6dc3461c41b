// Package centrality implements the node-importance measures used in the
// paper's Figure 5 analysis: PageRank (power iteration with dangling-mass
// redistribution), Brandes betweenness centrality (exact and source-sampled,
// parallelized over sources with ordered reduction so scores are
// bit-identical at any worker count) and HITS hubs/authorities.
// All routines operate on the CSR digraphs of internal/graph and are
// deterministic given their inputs, whatever the scheduling.
package centrality

import (
	"errors"
	"math"

	"elites/internal/graph"
)

// ErrBadParam flags out-of-range algorithm parameters.
var ErrBadParam = errors.New("centrality: bad parameter")

// PageRankOptions configures the power iteration.
type PageRankOptions struct {
	// Damping is the teleportation damping factor; 0.85 if zero.
	Damping float64
	// Tol is the L1 convergence tolerance; 1e-10 if zero.
	Tol float64
	// MaxIter bounds the iteration count; 200 if zero.
	MaxIter int
}

func (o *PageRankOptions) defaults() PageRankOptions {
	out := PageRankOptions{Damping: 0.85, Tol: 1e-10, MaxIter: 200}
	if o == nil {
		return out
	}
	if o.Damping != 0 {
		out.Damping = o.Damping
	}
	if o.Tol != 0 {
		out.Tol = o.Tol
	}
	if o.MaxIter != 0 {
		out.MaxIter = o.MaxIter
	}
	return out
}

// PageRank computes the PageRank vector of g. The returned scores sum to 1.
// Dangling nodes (zero out-degree — the paper's celebrity sinks) donate their
// rank uniformly, the standard strongly-preferential handling.
func PageRank(g *graph.Digraph, opts *PageRankOptions) ([]float64, error) {
	o := opts.defaults()
	if o.Damping <= 0 || o.Damping >= 1 {
		return nil, ErrBadParam
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, nil
	}
	// Iterate on the reverse graph so each node pulls rank from its
	// in-neighbors; contributions are rank[u]/outdeg[u].
	rev := g.Reverse()
	outDeg := g.OutDegrees()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	var dangling []int
	for u := 0; u < n; u++ {
		if outDeg[u] == 0 {
			dangling = append(dangling, u)
		}
	}
	for iter := 0; iter < o.MaxIter; iter++ {
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		base := (1-o.Damping)/float64(n) + o.Damping*danglingMass/float64(n)
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range rev.OutNeighbors(v) {
				s += rank[u] / float64(outDeg[u])
			}
			next[v] = base + o.Damping*s
		}
		delta := 0.0
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < o.Tol {
			break
		}
	}
	return rank, nil
}

// PersonalizedPageRank computes PageRank with teleportation restricted to
// the given seed set (uniform over seeds). Used by the crawl example to rank
// proximity to the verified core.
func PersonalizedPageRank(g *graph.Digraph, seeds []int, opts *PageRankOptions) ([]float64, error) {
	o := opts.defaults()
	n := g.NumNodes()
	if n == 0 {
		return nil, nil
	}
	if len(seeds) == 0 {
		return nil, ErrBadParam
	}
	tele := make([]float64, n)
	for _, s := range seeds {
		if s < 0 || s >= n {
			return nil, graph.ErrNodeRange
		}
		tele[s] += 1 / float64(len(seeds))
	}
	rev := g.Reverse()
	outDeg := g.OutDegrees()
	rank := make([]float64, n)
	copy(rank, tele)
	next := make([]float64, n)
	var dangling []int
	for u := 0; u < n; u++ {
		if outDeg[u] == 0 {
			dangling = append(dangling, u)
		}
	}
	for iter := 0; iter < o.MaxIter; iter++ {
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		delta := 0.0
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range rev.OutNeighbors(v) {
				s += rank[u] / float64(outDeg[u])
			}
			nv := (1-o.Damping)*tele[v] + o.Damping*(s+danglingMass*tele[v])
			delta += math.Abs(nv - rank[v])
			next[v] = nv
		}
		rank, next = next, rank
		if delta < o.Tol {
			break
		}
	}
	return rank, nil
}

// HITSResult holds hub and authority scores (each L2-normalized).
type HITSResult struct {
	Hubs        []float64
	Authorities []float64
	Iterations  int
}

// HITS runs the Kleinberg hubs-and-authorities iteration to the given
// tolerance (L1 change in both vectors).
func HITS(g *graph.Digraph, maxIter int, tol float64) *HITSResult {
	n := g.NumNodes()
	if maxIter <= 0 {
		maxIter = 100
	}
	if tol <= 0 {
		tol = 1e-10
	}
	hubs := make([]float64, n)
	auth := make([]float64, n)
	for i := range hubs {
		hubs[i] = 1
		auth[i] = 1
	}
	rev := g.Reverse()
	newAuth := make([]float64, n)
	newHubs := make([]float64, n)
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// auth(v) = Σ_{u→v} hub(u)
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range rev.OutNeighbors(v) {
				s += hubs[u]
			}
			newAuth[v] = s
		}
		normalizeL2(newAuth)
		// hub(u) = Σ_{u→v} auth(v)
		for u := 0; u < n; u++ {
			s := 0.0
			for _, v := range g.OutNeighbors(u) {
				s += newAuth[v]
			}
			newHubs[u] = s
		}
		normalizeL2(newHubs)
		delta := 0.0
		for i := range hubs {
			delta += math.Abs(newHubs[i]-hubs[i]) + math.Abs(newAuth[i]-auth[i])
		}
		copy(hubs, newHubs)
		copy(auth, newAuth)
		if delta < tol {
			break
		}
	}
	return &HITSResult{Hubs: hubs, Authorities: auth, Iterations: iters}
}

func normalizeL2(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	s = math.Sqrt(s)
	for i := range v {
		v[i] /= s
	}
}

// DegreeCentrality returns in- and out-degree centralities normalized by
// (n-1).
func DegreeCentrality(g *graph.Digraph) (in, out []float64) {
	n := g.NumNodes()
	in = make([]float64, n)
	out = make([]float64, n)
	if n < 2 {
		return
	}
	norm := 1 / float64(n-1)
	for v, d := range g.InDegrees() {
		in[v] = float64(d) * norm
	}
	for v := 0; v < n; v++ {
		out[v] = float64(g.OutDegree(v)) * norm
	}
	return
}
