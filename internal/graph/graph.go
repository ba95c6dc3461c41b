// Package graph implements the directed-graph substrate of the library: a
// compact immutable CSR (compressed sparse row) digraph, a mutable builder,
// and the structural analyses the paper runs on the Twitter verified-user
// network — strongly and weakly connected components, attracting components,
// reciprocity, clustering, degree assortativity and shortest-path
// distributions.
//
// Graphs at the paper's scale (231k nodes, 79M directed edges) fit in a few
// hundred MB in this representation; node ids are dense [0, N) integers and
// adjacency lists are sorted, enabling O(log d) edge queries and
// cache-friendly traversals.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNodeRange is returned when a node id is outside [0, N).
var ErrNodeRange = errors.New("graph: node id out of range")

// Digraph is an immutable directed graph in CSR form. Use Builder to
// construct one. The zero value is an empty graph.
type Digraph struct {
	n       int
	offsets []int64 // len n+1; out-neighbors of u are adj[offsets[u]:offsets[u+1]]
	adj     []int32 // sorted within each row

	// projection marks a graph built by Undirected, whose own undirected
	// projection is itself.
	projection bool

	// Transpose CSR (in-neighbors), built lazily by InCSR/Reverse and
	// cached for the graph's lifetime. Direction-optimizing traversals
	// (bottom-up BFS in the betweenness kernel and the distance sweeps)
	// read it; everything else never pays for it.
	inOnce sync.Once
	inOff  []int64
	inAdj  []int32
}

// NumNodes returns the number of nodes.
func (g *Digraph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Digraph) NumEdges() int64 {
	if g.n == 0 {
		return 0
	}
	return g.offsets[g.n]
}

// OutDegree returns the out-degree of u.
func (g *Digraph) OutDegree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// OutNeighbors returns the sorted out-neighbor slice of u. The returned
// slice aliases internal storage and must not be modified.
func (g *Digraph) OutNeighbors(u int) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether the directed edge u→v exists, by binary search.
func (g *Digraph) HasEdge(u, v int) bool {
	row := g.OutNeighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// InDegrees computes the in-degree of every node in one pass.
func (g *Digraph) InDegrees() []int {
	in := make([]int, g.n)
	for _, v := range g.adj {
		in[v]++
	}
	return in
}

// OutDegrees returns the out-degree of every node.
func (g *Digraph) OutDegrees() []int {
	out := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		out[u] = g.OutDegree(u)
	}
	return out
}

// buildIn materializes the transpose CSR once. Rows of the transpose are
// filled in increasing source order, so they come out sorted.
func (g *Digraph) buildIn() {
	in := g.InDegrees()
	offsets := make([]int64, g.n+1)
	for u := 0; u < g.n; u++ {
		offsets[u+1] = offsets[u] + int64(in[u])
	}
	adj := make([]int32, g.NumEdges())
	cursor := make([]int64, g.n)
	copy(cursor, offsets[:g.n])
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			adj[cursor[v]] = int32(u)
			cursor[v]++
		}
	}
	g.inOff, g.inAdj = offsets, adj
}

// InCSR returns the transpose adjacency (offsets, in-neighbors) in CSR form:
// the in-neighbors of v are inAdj[inOff[v]:inOff[v+1]], sorted. The transpose
// is built on first use (O(m)) and cached; the returned slices alias internal
// storage and must not be modified. Safe for concurrent use.
func (g *Digraph) InCSR() ([]int64, []int32) {
	g.inOnce.Do(g.buildIn)
	return g.inOff, g.inAdj
}

// Reverse returns the transpose graph (every edge u→v becomes v→u). The
// returned graph shares the cached transpose arrays (both graphs are
// immutable), so calling Reverse after InCSR — or vice versa — transposes
// only once.
func (g *Digraph) Reverse() *Digraph {
	offsets, adj := g.InCSR()
	return &Digraph{n: g.n, offsets: offsets, adj: adj}
}

// Density returns m / (n·(n-1)), the fraction of possible directed edges
// present. The paper reports 0.00148 for the verified network.
func (g *Digraph) Density() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(g.NumEdges()) / (float64(g.n) * float64(g.n-1))
}

// InducedSubgraph returns the subgraph induced by keep (node ids in the
// original graph) plus the mapping orig[i] = original id of new node i.
// Duplicate ids in keep are collapsed.
func (g *Digraph) InducedSubgraph(keep []int) (*Digraph, []int, error) {
	remap := make(map[int32]int32, len(keep))
	orig := make([]int, 0, len(keep))
	for _, u := range keep {
		if u < 0 || u >= g.n {
			return nil, nil, fmt.Errorf("%w: %d", ErrNodeRange, u)
		}
		if _, ok := remap[int32(u)]; !ok {
			remap[int32(u)] = int32(len(orig))
			orig = append(orig, u)
		}
	}
	b := NewBuilder(len(orig))
	for newU, oldU := range orig {
		for _, v := range g.OutNeighbors(oldU) {
			if newV, ok := remap[v]; ok {
				b.AddEdge(newU, int(newV))
			}
		}
	}
	sub := b.Build()
	return sub, orig, nil
}

// Undirected returns the underlying undirected graph as a symmetric digraph:
// each pair {u,v} connected in either direction appears as both u→v and v→u
// exactly once. Self-loops are never present (Builder drops them). Called on
// a graph Undirected itself built, it returns the receiver, so the analyses
// that project internally (KCores, RichClub, AverageLocalClustering, the
// Laplacian operator) accept an already-shared projection at no cost.
func (g *Digraph) Undirected() *Digraph {
	if g.projection {
		return g
	}
	b := NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			b.AddEdge(u, int(v))
			b.AddEdge(int(v), u)
		}
	}
	und := b.Build()
	und.projection = true
	return und
}

// Edges calls fn for every directed edge. Iteration stops if fn returns
// false.
func (g *Digraph) Edges(fn func(u, v int) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !fn(u, int(v)) {
				return
			}
		}
	}
}

// Builder accumulates edges and produces an immutable Digraph. It drops
// self-loops and duplicate edges. Builders are not safe for concurrent use;
// generators shard work and merge.
type Builder struct {
	n    int
	rows [][]int32
}

// NewBuilder returns a builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, rows: make([][]int32, n)}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the directed edge u→v. Self-loops are silently ignored.
// It panics if either endpoint is out of range (generator bugs should fail
// loudly, not corrupt datasets).
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.rows[u] = append(b.rows[u], int32(v))
}

// OutDegree returns the current (pre-dedup) out-degree of u.
func (b *Builder) OutDegree(u int) int { return len(b.rows[u]) }

// Build sorts, dedups and freezes the graph. The builder can be reused after
// Build (it retains its rows), but usually is discarded.
func (b *Builder) Build() *Digraph {
	offsets := make([]int64, b.n+1)
	var total int64
	for u := 0; u < b.n; u++ {
		row := b.rows[u]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		// In-place dedup.
		w := 0
		for i, v := range row {
			if i == 0 || v != row[i-1] {
				row[w] = v
				w++
			}
		}
		b.rows[u] = row[:w]
		total += int64(w)
		offsets[u+1] = total
	}
	adj := make([]int32, total)
	for u := 0; u < b.n; u++ {
		copy(adj[offsets[u]:offsets[u+1]], b.rows[u])
	}
	return &Digraph{n: b.n, offsets: offsets, adj: adj}
}

// FromEdges is a convenience constructor from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Digraph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// NewFromCSR constructs a Digraph directly from CSR arrays. Rows must be
// sorted and free of duplicates/self-loops; this is validated and the arrays
// are used without copying on success. Intended for the binary codec in
// internal/store.
func NewFromCSR(n int, offsets []int64, adj []int32) (*Digraph, error) {
	if len(offsets) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want %d", len(offsets), n+1)
	}
	if offsets[0] != 0 || int64(len(adj)) != offsets[n] {
		return nil, errors.New("graph: inconsistent CSR offsets")
	}
	for u := 0; u < n; u++ {
		if offsets[u] > offsets[u+1] {
			return nil, errors.New("graph: decreasing CSR offsets")
		}
		row := adj[offsets[u]:offsets[u+1]]
		for i, v := range row {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("%w: %d", ErrNodeRange, v)
			}
			if int(v) == u {
				return nil, fmt.Errorf("graph: self-loop at node %d", u)
			}
			if i > 0 && row[i-1] >= v {
				return nil, fmt.Errorf("graph: row %d not strictly sorted", u)
			}
		}
	}
	return &Digraph{n: n, offsets: offsets, adj: adj}, nil
}

// CSR exposes the raw arrays (offsets, adjacency) for serialization. The
// returned slices alias internal storage and must not be modified.
func (g *Digraph) CSR() ([]int64, []int32) { return g.offsets, g.adj }
