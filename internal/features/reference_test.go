package features

import (
	"math"
	"testing"

	"elites/internal/centrality"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/powerlaw"
	"elites/internal/twitter"
)

// reference_test.go pins the production feature matrix to a naive reference
// implementation: straight per-user loops, no sharding, no shared scratch,
// no amortized projections — every per-node quantity recomputed from
// scratch the obvious way. The equivalence is bit-for-bit
// (math.Float64bits, so NaN placement counts too) at every tested worker
// budget, on the canonical generated dataset and on adversarial fixtures.

// referenceMatrix computes the matrix the slow, obvious way.
func referenceMatrix(ds *twitter.Dataset, opts Options, sc *Scorer) *Matrix {
	o := opts.withDefaults()
	g := ds.Graph
	n := g.NumNodes()
	m := &Matrix{
		N: n,
		Rows: Rows{
			Data:  make([]float64, n*NumFeatures),
			Probs: make([]float64, n*NumClasses),
			Class: make([]uint8, n),
		},
		TailXmin: math.NaN(),
	}
	if n == 0 {
		return m
	}

	// In-degrees by full edge scan per node — O(n·m), no InDegrees call.
	inDeg := make([]int, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for _, w := range g.OutNeighbors(v) {
				if int(w) == u {
					inDeg[u]++
				}
			}
		}
	}

	cores := graph.KCores(g)
	m.Degeneracy = cores.MaxCore
	m.CoreK = cores.MaxCore / 2
	if m.CoreK < 1 {
		m.CoreK = 1
	}

	// The sampled Brandes kernel has its own reference suite
	// (internal/centrality); here it is an input, called identically but
	// always at workers=1.
	rng := mathx.NewRNG(o.Seed).Derive("features/betweenness")
	bc := centrality.ApproxBetweennessWorkers(g, o.BetweennessSources, rng, 1)
	pr, err := centrality.PageRank(g, nil)
	if err != nil || pr == nil {
		pr = make([]float64, n)
	}

	// O(n²) pair-counting mid-rank percentiles.
	pct := func(s []float64, u int) float64 {
		if n < 2 {
			return 0
		}
		less, ties := 0, 0
		for v := 0; v < n; v++ {
			switch {
			case s[v] < s[u]:
				less++
			case s[v] == s[u]:
				ties++
			}
		}
		return (float64(less) + 0.5*float64(ties-1)) / float64(n-1)
	}

	xmin := math.NaN()
	if fit, ferr := powerlaw.FitDiscrete(g.OutDegrees(), nil); ferr == nil {
		xmin = fit.Xmin
		m.TailXmin = xmin
	}

	for u := 0; u < n; u++ {
		row := m.Data[u*NumFeatures : (u+1)*NumFeatures]
		outD := len(g.OutNeighbors(u))
		row[FeatOutDegree] = float64(outD)
		row[FeatInDegree] = float64(inDeg[u])
		if len(ds.Profiles) == n {
			row[FeatRatio] = float64(ds.Profiles[u].Followers) / float64(ds.Profiles[u].Friends)
		} else {
			row[FeatRatio] = float64(inDeg[u]) / float64(outD)
		}
		if cores.Core[u] >= m.CoreK {
			row[FeatMutualCore] = 1
		}
		row[FeatBetweennessPct] = pct(bc, u)
		row[FeatEigenPct] = pct(pr, u)
		row[FeatClustering] = referenceClustering(g, u)
		if !math.IsNaN(xmin) && float64(outD) >= xmin {
			row[FeatTail] = 1
			m.TailCount++
		}
		if sc != nil {
			c := sc.Score(row, m.Probs[u*NumClasses:(u+1)*NumClasses])
			m.Class[u] = uint8(c)
			m.ClassCounts[c]++
		}
	}
	return m
}

// referenceClustering is u's ego clustering coefficient in the undirected
// projection, by brute force: neighbors are every v linked to u in either
// direction, and each neighbor pair linked in either direction is one
// closed wedge.
func referenceClustering(g *graph.Digraph, u int) float64 {
	linked := func(a, b int) bool { return g.HasEdge(a, b) || g.HasEdge(b, a) }
	var nbrs []int
	for v := 0; v < g.NumNodes(); v++ {
		if v != u && linked(u, v) {
			nbrs = append(nbrs, v)
		}
	}
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if linked(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// fixtureGraphs builds the adversarial fixture set.
func fixtureGraphs(t testing.TB) map[string]*twitter.Dataset {
	t.Helper()
	fixtures := map[string]*twitter.Dataset{}

	// Singleton: one node, no edges.
	fixtures["singleton"] = &twitter.Dataset{Graph: graph.NewBuilder(1).Build()}

	// Two disconnected directed triangles.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	fixtures["disconnected"] = &twitter.Dataset{Graph: b.Build()}

	// Zero-out-degree sinks: nodes 5..7 are followed but follow nobody
	// (their degree ratio divides by zero).
	b = graph.NewBuilder(8)
	for u := 0; u < 5; u++ {
		for s := 5; s < 8; s++ {
			b.AddEdge(u, s)
		}
		b.AddEdge(u, (u+1)%5)
	}
	fixtures["zero-out-degree"] = &twitter.Dataset{Graph: b.Build()}

	// Star: every leaf follows the hub, the hub follows nobody.
	b = graph.NewBuilder(12)
	for u := 1; u < 12; u++ {
		b.AddEdge(u, 0)
	}
	fixtures["star"] = &twitter.Dataset{Graph: b.Build()}

	// Fully-mutual K5 clique plus one isolated node (0/0 ratio ⇒ NaN).
	b = graph.NewBuilder(6)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	fixtures["mutual-clique"] = &twitter.Dataset{Graph: b.Build()}

	return fixtures
}

// canonicalDataset is the generated platform dataset (with profiles) the
// repo's other equivalence suites use, sized for test speed.
func canonicalDataset(t testing.TB) *twitter.Dataset {
	t.Helper()
	cfg := twitter.DefaultPlatformConfig(1200)
	cfg.Seed = 7
	p, err := twitter.NewPlatform(cfg)
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	return ds
}

// requireMatrixEqual compares every field bit-for-bit.
func requireMatrixEqual(t *testing.T, want, got *Matrix, label string) {
	t.Helper()
	if want.N != got.N || want.CoreK != got.CoreK || want.Degeneracy != got.Degeneracy ||
		want.TailCount != got.TailCount || want.ClassCounts != got.ClassCounts {
		t.Fatalf("%s: scalar mismatch: want N=%d coreK=%d degen=%d tail=%d classes=%v, got N=%d coreK=%d degen=%d tail=%d classes=%v",
			label, want.N, want.CoreK, want.Degeneracy, want.TailCount, want.ClassCounts,
			got.N, got.CoreK, got.Degeneracy, got.TailCount, got.ClassCounts)
	}
	if math.Float64bits(want.TailXmin) != math.Float64bits(got.TailXmin) {
		t.Fatalf("%s: TailXmin: want %v got %v", label, want.TailXmin, got.TailXmin)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: Data[%d] (node %d, col %d): want %v got %v",
				label, i, i/NumFeatures, i%NumFeatures, want.Data[i], got.Data[i])
		}
	}
	for i := range want.Probs {
		if math.Float64bits(want.Probs[i]) != math.Float64bits(got.Probs[i]) {
			t.Fatalf("%s: Probs[%d]: want %v got %v", label, i, want.Probs[i], got.Probs[i])
		}
	}
	for i := range want.Class {
		if want.Class[i] != got.Class[i] {
			t.Fatalf("%s: Class[%d]: want %d got %d", label, i, want.Class[i], got.Class[i])
		}
	}
}

var referenceWorkerBudgets = []int{1, 2, 4, 7, 8}

func TestFeatureMatrixReferenceFixtures(t *testing.T) {
	sc, err := DefaultScorer()
	if err != nil {
		t.Fatalf("default scorer: %v", err)
	}
	opts := Options{BetweennessSources: 16, Seed: 5}
	for name, ds := range fixtureGraphs(t) {
		ref := referenceMatrix(ds, opts, sc)
		for _, workers := range referenceWorkerBudgets {
			o := opts
			o.Parallelism = workers
			got := computeWith(ds, o, sc, newInputs(ds.Graph, workers))
			requireMatrixEqual(t, ref, got, name+"/workers="+itoa(workers))
		}
	}
}

func TestFeatureMatrixReferenceCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical graph reference pass is slow")
	}
	ds := canonicalDataset(t)
	sc, err := DefaultScorer()
	if err != nil {
		t.Fatalf("default scorer: %v", err)
	}
	opts := Options{BetweennessSources: 32, Seed: 3}
	ref := referenceMatrix(ds, opts, sc)
	for _, workers := range referenceWorkerBudgets {
		o := opts
		o.Parallelism = workers
		got := computeWith(ds, o, sc, newInputs(ds.Graph, workers))
		requireMatrixEqual(t, ref, got, "canonical/workers="+itoa(workers))
	}
}

// TestFeatureMatrixWorkerInvariance is the cheap always-on variant of the
// reference suite: production vs production across worker budgets on the
// canonical dataset (the reference pass above is the slow cross-check).
func TestFeatureMatrixWorkerInvariance(t *testing.T) {
	ds := canonicalDataset(t)
	opts := Options{BetweennessSources: 32, Seed: 3, Parallelism: 1}
	base, err := Compute(ds, opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	for _, workers := range referenceWorkerBudgets[1:] {
		o := opts
		o.Parallelism = workers
		got, gerr := Compute(ds, o)
		if gerr != nil {
			t.Fatalf("compute workers=%d: %v", workers, gerr)
		}
		requireMatrixEqual(t, base, got, "workers="+itoa(workers))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
