package main

import (
	"fmt"
	"runtime"
	"time"

	"elites/internal/centrality"
	"elites/internal/features"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/obs"
	"elites/internal/powerlaw"
	"elites/internal/spectral"
)

// Kernel sizes: the battery defaults the pipeline stages run with.
const (
	eigenK          = 150
	lanczosVectors  = 3 * eigenK
	bcSources       = 256
	bootstrapReps   = 50
	distanceSources = 200
)

// kernelMetrics times each kernel once, called from outside its package
// with the arguments its pipeline stage uses, and adds the two size
// figures computed from the graph. ".w1" runs on one worker, ".wN" on
// GOMAXPROCS workers. Each call gets a "kernel.<name>" span.
func kernelMetrics(d *dataset, tr *obs.Tracer) (metrics, error) {
	g := d.ds.Graph
	wn := runtime.GOMAXPROCS(0)
	rng := func(label string) *mathx.RNG { return mathx.NewRNG(42).Derive(label) }
	out := metrics{}
	timed := func(name string, fn func() error) error {
		sp := tr.Root("kernel." + name)
		start := time.Now()
		err := fn()
		out.set(name, time.Since(start).Seconds(), "s")
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var fit *powerlaw.Fit
	steps := []struct {
		name string
		fn   func() error
	}{
		{"kernel.lanczos_s", func() error {
			_, err := spectral.TopEigenvaluesLanczos(spectral.NewLaplacianOperator(g), eigenK, lanczosVectors, rng("eigen"))
			return err
		}},
		{"kernel.betweenness_s.w1", func() error {
			centrality.ApproxBetweennessWorkers(g, bcSources, rng("centrality"), 1)
			return nil
		}},
		{"kernel.betweenness_s.wN", func() error {
			centrality.ApproxBetweennessWorkers(g, bcSources, rng("centrality"), wn)
			return nil
		}},
		{"kernel.clustering_s", func() error {
			graph.AverageLocalClustering(g)
			return nil
		}},
		{"kernel.csn_fit_s", func() (err error) {
			fit, err = powerlaw.FitDiscrete(g.OutDegrees(), nil)
			return err
		}},
		{"kernel.csn_bootstrap_s.w1", func() error {
			fit.Bootstrap(bootstrapReps, rng("degree"), 1)
			return nil
		}},
		{"kernel.csn_bootstrap_s.wN", func() error {
			fit.Bootstrap(bootstrapReps, rng("degree"), wn)
			return nil
		}},
		{"kernel.bfs_s.w1", func() error {
			graph.SampledDistancesWorkers(g, distanceSources, rng("distances"), 1)
			return nil
		}},
		{"kernel.bfs_s.wN", func() error {
			graph.SampledDistancesWorkers(g, distanceSources, rng("distances"), wn)
			return nil
		}},
		{"kernel.kcores_s", func() error {
			graph.KCores(g)
			return nil
		}},
		{"kernel.pagerank_s", func() error {
			_, err := centrality.PageRank(g, nil)
			return err
		}},
		{"kernel.features_s.w1", func() error {
			_, err := features.Compute(d.ds, features.Options{BetweennessSources: bcSources, Seed: 42, Parallelism: 1})
			return err
		}},
		{"kernel.features_s.wN", func() error {
			_, err := features.Compute(d.ds, features.Options{BetweennessSources: bcSources, Seed: 42, Parallelism: wn})
			return err
		}},
	}
	for _, s := range steps {
		if err := timed(s.name, s.fn); err != nil {
			return nil, err
		}
	}
	out.set("kernel.lanczos_basis_mb", float64(g.NumNodes())*lanczosVectors*8/(1<<20), "MB")
	out.set("kernel.clustering_wedges", float64(wedges(g)), "count")
	return out, nil
}

// wedges counts Σ C(d,2) over the undirected projection: the paths of
// length two the clustering kernel checks for a closing edge.
func wedges(g *graph.Digraph) int64 {
	und := g.Undirected()
	var w int64
	for u := range und.NumNodes() {
		d := int64(und.OutDegree(u))
		w += d * (d - 1) / 2
	}
	return w
}
