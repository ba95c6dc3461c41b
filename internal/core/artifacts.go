package core

import (
	"sync"

	"elites/internal/centrality"
	"elites/internal/features"
	"elites/internal/graph"
	"elites/internal/powerlaw"
)

// artifacts are the graph quantities several stages of one run read. Each
// is computed at most once per run, and only when a stage that consumes it
// actually runs: a battery whose consumers all hydrate from the cache never
// pays for them. They are read-only once built and die with the run — never
// cached on the Digraph, which a server keeps for the process lifetime. A
// panicking artifact re-panics in every consumer (sync.OnceValue), so each
// of those stages fails through the pipeline's containment instead of
// reading a nil.
//
//	artifact    consumers
//	und         eigen, mutualcore, and cores / clustering below
//	cores       mutualcore, features
//	pagerank    centrality, categories, features
//	clustering  basic, features
//	outDegFit   degree, features
type artifacts struct {
	und        func() *graph.Digraph
	cores      func() *graph.KCoreResult
	pagerank   func() ([]float64, error)
	clustering func() []float64
	outDegFit  func() (*powerlaw.Fit, error)
}

// newArtifacts binds the lazy artifacts of g. The clustering pass is a
// fixed-width graph-metric shard, so like the rest it takes the full shared
// worker pool.
func newArtifacts(g *graph.Digraph) *artifacts {
	a := &artifacts{}
	a.und = sync.OnceValue(g.Undirected)
	a.cores = sync.OnceValue(func() *graph.KCoreResult { return graph.KCores(a.und()) })
	a.pagerank = sync.OnceValues(func() ([]float64, error) { return centrality.PageRank(g, nil) })
	a.clustering = sync.OnceValue(func() []float64 { return graph.ClusteringCoefficients(a.und(), 0) })
	a.outDegFit = sync.OnceValues(func() (*powerlaw.Fit, error) {
		return powerlaw.FitDiscrete(g.OutDegrees(), nil)
	})
	return a
}

// featureInputs gathers the feature matrix's shared inputs, in the shape a
// standalone features.Compute would fill them.
func (a *artifacts) featureInputs() features.Inputs {
	in := features.Inputs{Cores: a.cores(), Clustering: a.clustering()}
	if pr, err := a.pagerank(); err == nil {
		in.PageRank = pr
	}
	if fit, err := a.outDegFit(); err == nil {
		in.OutDegFit = fit
	}
	return in
}
