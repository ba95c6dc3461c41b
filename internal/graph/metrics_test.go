package graph

import (
	"math"
	"testing"

	"elites/internal/mathx"
)

func TestReciprocityFull(t *testing.T) {
	g := FromEdges(2, [][2]int{{0, 1}, {1, 0}})
	if r := Reciprocity(g); r != 1 {
		t.Fatalf("Reciprocity = %v, want 1", r)
	}
}

func TestReciprocityNone(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if r := Reciprocity(g); r != 0 {
		t.Fatalf("Reciprocity = %v, want 0", r)
	}
}

func TestReciprocityMixed(t *testing.T) {
	// 4 edges, one mutual pair -> 2/4.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}})
	if r := Reciprocity(g); r != 0.5 {
		t.Fatalf("Reciprocity = %v, want 0.5", r)
	}
}

func TestReciprocityBounds(t *testing.T) {
	rng := mathx.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		g := randomDigraph(rng, 25, 0.1)
		r := Reciprocity(g)
		if r < 0 || r > 1 {
			t.Fatalf("Reciprocity out of bounds: %v", r)
		}
	}
}

func TestReciprocityDialExpectation(t *testing.T) {
	// Generate edges, reciprocating with probability p; measured r should
	// approach 2p/(1+p) — the identity the generator calibration relies on.
	rng := mathx.NewRNG(2)
	p := 0.203
	n := 2000
	b := NewBuilder(n)
	for i := 0; i < 40000; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if rng.Bool(p) {
			b.AddEdge(v, u)
		}
	}
	g := b.Build()
	want := 2 * p / (1 + p)
	got := Reciprocity(g)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("reciprocity dial: got %v, want ~%v", got, want)
	}
}

func TestClusteringTriangle(t *testing.T) {
	// Undirected triangle: every node has clustering 1.
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if c := AverageLocalClustering(g); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle clustering = %v, want 1", c)
	}
}

func TestClusteringStar(t *testing.T) {
	// Star: center has no closed triples, leaves degree 1 -> all zero.
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if c := AverageLocalClustering(g); c != 0 {
		t.Fatalf("star clustering = %v, want 0", c)
	}
}

func TestClusteringPartial(t *testing.T) {
	// Path 0-1-2 plus edge 0-2 makes triangle; add pendant 3 on 0.
	// Degrees: 0:{1,2,3} c=1/3; 1:{0,2} c=1; 2:{0,1} c=1; 3:{0} c=0.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	want := (1.0/3 + 1 + 1 + 0) / 4
	if c := AverageLocalClustering(g); math.Abs(c-want) > 1e-12 {
		t.Fatalf("clustering = %v, want %v", c, want)
	}
}

func TestLocalClusteringDirectionIgnored(t *testing.T) {
	// Directions shouldn't matter: 0->1, 2->1, 0->2 still closes the
	// undirected triangle.
	g := FromEdges(3, [][2]int{{0, 1}, {2, 1}, {0, 2}})
	if c := ClusteringCoefficients(g, 1)[0]; math.Abs(c-1) > 1e-12 {
		t.Fatalf("directed triangle clustering = %v, want 1", c)
	}
}

func TestAssortativityDisassortativeStar(t *testing.T) {
	// Directed star out of the hub: hub has high out-degree, leaves
	// in-degree 1; constant values give r=0 denominators -> define via
	// a two-star graph instead.
	g := FromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, // hub 0
		{4, 5}, // low-degree pair
	})
	r := DegreeAssortativity(g)
	if r > 0 {
		t.Fatalf("expected non-positive assortativity, got %v", r)
	}
}

func TestAssortativityBounds(t *testing.T) {
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 20; trial++ {
		g := randomDigraph(rng, 30, 0.1)
		r := DegreeAssortativity(g)
		if math.IsNaN(r) || r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("assortativity out of range: %v", r)
		}
	}
}

func TestSummarizeDegrees(t *testing.T) {
	s := SummarizeDegrees([]int{3, 1, 4, 1, 5})
	if s.Min != 1 || s.Max != 5 || math.Abs(s.Mean-2.8) > 1e-12 || s.Median != 3 {
		t.Fatalf("stats = %+v", s)
	}
	even := SummarizeDegrees([]int{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Fatalf("even median = %v", even.Median)
	}
	empty := SummarizeDegrees(nil)
	if empty.Max != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]int{1, 9, 3, 9}) != 1 {
		t.Fatal("ArgMax should return first maximum")
	}
}

// TestShardedMetricsMatchSequential pins the sharded implementations to a
// straightforward sequential reference on a graph big enough to span
// several chunks (> metricChunk nodes), and checks run-to-run bit-stability.
func TestShardedMetricsMatchSequential(t *testing.T) {
	rng := mathx.NewRNG(6)
	n := 3 * metricChunk
	b := NewBuilder(n)
	for i := 0; i < 20*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if rng.Bool(0.3) {
			b.AddEdge(v, u)
		}
	}
	g := b.Build()

	// Sequential references.
	var mutual int64
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if g.HasEdge(int(v), u) {
				mutual++
			}
		}
	}
	wantRecip := float64(mutual) / float64(g.NumEdges())
	und := g.Undirected()
	clustSum := 0.0
	for u := 0; u < n; u++ {
		clustSum += localClustering(und, u)
	}
	wantClust := clustSum / float64(n)
	in := g.InDegrees()
	var sx, sy, sxx, syy, sxy float64
	for u := 0; u < n; u++ {
		du := float64(g.OutDegree(u))
		for _, v := range g.OutNeighbors(u) {
			dv := float64(in[v])
			sx += du
			sy += dv
			sxx += du * du
			syy += dv * dv
			sxy += du * dv
		}
	}
	fm := float64(g.NumEdges())
	cov := sxy/fm - (sx/fm)*(sy/fm)
	wantAssort := cov / math.Sqrt((sxx/fm-(sx/fm)*(sx/fm))*(syy/fm-(sy/fm)*(sy/fm)))

	if got := Reciprocity(g); got != wantRecip {
		t.Fatalf("sharded reciprocity %v != sequential %v", got, wantRecip)
	}
	if got := AverageLocalClustering(g); math.Abs(got-wantClust) > 1e-12 {
		t.Fatalf("sharded clustering %v != sequential %v", got, wantClust)
	}
	r1 := DegreeAssortativity(g)
	if math.Abs(r1-wantAssort) > 1e-12 {
		t.Fatalf("sharded assortativity %v != sequential %v", r1, wantAssort)
	}
	if got := DegreeAssortativityWithIn(g, in); got != r1 {
		t.Fatalf("precomputed-degrees variant %v != %v", got, r1)
	}
	// Bit-stability across repeated parallel runs.
	for i := 0; i < 3; i++ {
		if Reciprocity(g) != wantRecip {
			t.Fatal("reciprocity not run-to-run stable")
		}
		if AverageLocalClustering(g) != AverageLocalClustering(g) {
			t.Fatal("clustering not run-to-run stable")
		}
		if DegreeAssortativity(g) != r1 {
			t.Fatal("assortativity not run-to-run stable")
		}
	}
}
