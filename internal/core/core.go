// Package core implements the paper's contribution as a library: a
// characterization pipeline that runs the full battery of §IV network
// analyses and §V activity analyses over a verified-user dataset and
// produces a structured Report — dataset summary, degree and eigenvalue
// power-law inference with alternatives, reciprocity, distance distribution,
// bio n-gram tables, centrality correlations with GAM splines, and the
// portmanteau / ADF / PELT verdicts — plus renderers that print each table
// and figure in the paper's order, and a network-fingerprint comparator for
// the verified-vs-generic contrast.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"elites/internal/cache"
	"elites/internal/centrality"
	"elites/internal/faults"
	"elites/internal/features"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/obs"
	"elites/internal/pipeline"
	"elites/internal/powerlaw"
	"elites/internal/spectral"
	"elites/internal/stats"
	"elites/internal/store"
	"elites/internal/text"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// ErrNoData is returned when the dataset has no graph.
var ErrNoData = errors.New("core: dataset has no graph")

// Options tunes the pipeline's sampled analyses. The zero value picks
// defaults scaled to graphs of tens of thousands of nodes.
type Options struct {
	// DistanceSources is the number of BFS sources for the distance
	// distribution (0 = 200; exact when >= number of nodes).
	DistanceSources int
	// BetweennessSources is the number of Brandes sources (0 = 256).
	BetweennessSources int
	// EigenK is how many top Laplacian eigenvalues to fit (0 = 150); the
	// Lanczos Krylov dimension is always 3·EigenK.
	EigenK int
	// BootstrapReps is the CSN goodness-of-fit replicate count (0 = 50).
	BootstrapReps int
	// Seed drives all sampling.
	Seed uint64
	// SkipEigen skips the Laplacian eigenvalue analysis.
	SkipEigen bool
	// SkipBetweenness skips betweenness (the slowest analysis).
	SkipBetweenness bool
	// SkipBootstrap skips goodness-of-fit bootstraps.
	SkipBootstrap bool
	// Parallelism bounds how many analysis stages run concurrently
	// (0 = GOMAXPROCS, 1 = one stage at a time) and is also the worker
	// budget handed to the stages that shard their own hot loops
	// (betweenness sources, bootstrap replicates); all sharded loops
	// additionally respect one process-wide worker cap (internal/parallel)
	// so concurrent stages compose instead of oversubscribing. Reports are
	// bit-identical across parallelism levels: every stochastic stage
	// draws from its own RNG stream derived from Seed, never from a
	// shared sequence, and every sharded reduction combines fixed-layout
	// partials in a fixed order.
	Parallelism int
	// Stages restricts the run to the named stages plus their transitive
	// dependencies (nil = all). See StageNames for the vocabulary; names
	// skipped by other options or missing data are ignored, unknown names
	// are an error.
	Stages []string
	// Timings records per-stage wall clock into Report.Timings. Timings
	// are not rendered, so timed reports stay byte-comparable.
	Timings bool
	// CacheDir, when non-empty, enables the two-tier per-stage result
	// cache rooted at that directory (in-process LRU over an on-disk
	// store; see internal/cache). The expensive and mid-weight stages —
	// basic, distances, degree, eigen, centrality, mutualcore — are keyed
	// on (dataset digest, options digest, stage, codec version), so a warm
	// re-run hydrates their outputs instead of recomputing betweenness,
	// the bootstraps, the clustering/assortativity passes and the
	// BFS sweeps. Cached and fresh runs render byte-identically; cache
	// traffic is reported in Report.Cache. Parallelism and Timings never
	// enter cache keys (they cannot change results — the determinism
	// contract), so a report cached at one worker budget serves every
	// other.
	CacheDir string
	// NoCache disables the result cache even when CacheDir is set.
	NoCache bool
	// CacheMemBytes caps the cache's in-memory LRU tier (0 keeps
	// cache.DefaultMemBytes). The cap applies to the per-directory shared
	// instance, so the last Characterizer to set it wins for every holder
	// of that directory — evictions are reported in Report.Cache.
	CacheMemBytes int64
	// StageObserver, when non-nil, is called once per executed stage as it
	// finishes (cache hits included), concurrently when stages overlap.
	// It must not block: the pipeline's workers call it inline. Serving
	// layers use it for live progress on long runs; it never affects
	// results and never enters cache keys.
	StageObserver func(StageTiming)
	// Features opts the per-user feature-matrix stage (internal/features)
	// into the run. The stage is opt-in — it also registers when Stages
	// names "features" explicitly — so the default battery, its cache
	// traffic and its rendered output are unchanged. The matrix is cached
	// as a tiny manifest entry plus fixed-width row shards (ShardRows
	// each), which is what lets eliteserve answer per-user feature
	// requests without running the pipeline.
	Features bool
	// StageRetries re-runs a failed (non-panicking) stage up to this many
	// extra times before recording the failure; 0 disables retries. Stages
	// are deterministic, so retries exist for environmental failures —
	// cache hydration races, injected faults — not flaky math.
	StageRetries int
	// StageRetryBackoff is the base delay between retry attempts, doubling
	// per attempt (0 = 10ms). It never affects results, only latency.
	StageRetryBackoff time.Duration
	// Faults, when non-nil, is the deterministic fault-injection layer: the
	// scheduler consults it before every stage attempt and the result cache
	// before every disk operation. Production runs leave it nil; the chaos
	// suite and eliteserve's hidden -faults flag use it to rehearse
	// failures. It never enters cache keys.
	Faults *faults.Injector
}

// Pipeline stage names, in canonical (paper) order.
const (
	StageComponents  = "components"
	StageSummary     = "summary"
	StageBasic       = "basic"
	StageDegree      = "degree"
	StageEigen       = "eigen"
	StageReciprocity = "reciprocity"
	StageDistances   = "distances"
	StageBios        = "bios"
	StageHistograms  = "histograms"
	StageCentrality  = "centrality"
	StageCategories  = "categories"
	StageMutualCore  = "mutualcore"
	StageActivity    = "activity"
	StageFeatures    = "features"
)

// StageNames returns every pipeline stage name in canonical order. Which
// stages actually run depends on the dataset (bios, histograms, centrality
// and categories need profiles; activity needs a series) and the Skip*
// options.
func StageNames() []string {
	return []string{
		StageComponents, StageSummary, StageBasic, StageDegree, StageEigen,
		StageReciprocity, StageDistances, StageBios, StageHistograms,
		StageCentrality, StageCategories, StageMutualCore, StageActivity,
		StageFeatures,
	}
}

// StageTiming is one executed pipeline stage's measured wall clock.
// CacheHit marks stages hydrated from the result cache instead of computed.
// A failed stage carries its error (a *pipeline.StagePanicError for
// contained panics, stack included); a stage skipped because a dependency
// failed carries Skipped plus an error wrapping pipeline.ErrDependencySkipped.
type StageTiming struct {
	Name     string
	Duration time.Duration
	CacheHit bool
	// Err is nil for stages that completed; view rendering turns non-nil
	// entries into the report's structured stage_errors. Excluded from JSON
	// (error values don't marshal usefully) — ReportView carries the
	// rendered form.
	Err error `json:"-"`
	// Skipped marks stages that never executed because a dependency failed
	// or the run was cancelled.
	Skipped bool
	// Retries counts re-run attempts beyond the first under StageRetries.
	Retries int
}

// CacheReport summarizes result-cache traffic for one Run (only stages that
// participate in caching appear). Render ignores it, so cached and fresh
// reports stay byte-comparable.
type CacheReport struct {
	// Dir is the cache root.
	Dir string
	// Hits lists cached stages hydrated without running, in declaration
	// order; Misses lists cached stages that ran and stored their result.
	Hits   []string
	Misses []string
	// Evictions is the shared cache instance's cumulative memory-tier
	// eviction count at the end of the run (process-lifetime, not
	// per-run: the instance is shared per directory).
	Evictions uint64
}

func (o Options) withDefaults() Options {
	if o.DistanceSources == 0 {
		o.DistanceSources = 200
	}
	if o.BetweennessSources == 0 {
		o.BetweennessSources = 256
	}
	if o.EigenK == 0 {
		o.EigenK = 150
	}
	if o.BootstrapReps == 0 {
		o.BootstrapReps = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DatasetSummary mirrors the paper's §III table.
type DatasetSummary struct {
	Nodes         int
	Edges         int64
	Density       float64
	Isolated      int
	AvgOutDegree  float64
	MaxOutDegree  int
	MaxOutNode    int
	GiantSCCSize  int
	GiantSCCShare float64
	NumSCCs       int
	NumWCCs       int
	TotalVerified int
}

// BasicAnalysis mirrors §IV-A.
type BasicAnalysis struct {
	Clustering           float64
	Assortativity        float64
	AttractingComponents int
	// AttractingCores lists, for up to 10 largest attracting components,
	// a representative member (high in-degree "celebrity" nodes).
	AttractingCores []int
}

// PowerLawAnalysis mirrors §IV-B for one distribution.
type PowerLawAnalysis struct {
	Fit   *powerlaw.Fit
	GoFP  float64 // bootstrap p-value; NaN if skipped
	Vuong []*powerlaw.VuongResult
}

// CentralityPair is one Figure 5 panel: a correlation between an influence
// measure and a network-centrality (or metric) score, with its spline.
type CentralityPair struct {
	Label    string
	Pearson  float64 // on log-log scale
	Spearman float64
	PValue   float64 // Pearson t-test p-value
	Curve    []stats.CurvePoint
	N        int
}

// BioAnalysis mirrors §IV-E.
type BioAnalysis struct {
	TopUnigrams []text.NGram
	TopBigrams  []text.NGram
	TopTrigrams []text.NGram
	Cloud       []text.CloudEntry
}

// ActivityAnalysis mirrors §V.
type ActivityAnalysis struct {
	Series         *timeseries.DailySeries
	LjungBoxMaxP   float64
	BoxPierceMaxP  float64
	ADF            *timeseries.ADFResult
	Changepoints   []timeseries.SweepCandidate
	WeekdayMeans   [7]float64
	SundayWeekday  float64 // Sunday mean / weekday mean
	PortmanteauLag int
}

// Report bundles every analysis output.
type Report struct {
	Summary      DatasetSummary
	Basic        BasicAnalysis
	Degree       *PowerLawAnalysis
	Eigen        *PowerLawAnalysis
	Reciprocity  float64
	Distances    *graph.DistanceDistribution
	Bios         *BioAnalysis
	Centrality   []CentralityPair
	Activity     *ActivityAnalysis
	MetricHists  map[string]*stats.Histogram // Figure 1 panels
	DegreeSeries []stats.CCDFPoint           // Figure 2 series
	// Categories is the per-archetype table (user categorization).
	Categories *CategoryAnalysis
	// MutualCore validates the §IV-C core-reciprocity conjecture.
	MutualCore *MutualCoreAnalysis
	// Features is the per-user feature matrix + scorer output; nil unless
	// Options.Features (or an explicit "features" stage selection) opted
	// the stage in.
	Features *features.Matrix
	// Timings holds per-stage wall clocks when Options.Timings is set.
	// Render ignores it, keeping rendered reports comparable across runs.
	Timings []StageTiming
	// Cache summarizes result-cache hits and misses when Options.CacheDir
	// enabled the cache. Render ignores it.
	Cache *CacheReport
}

// Characterizer runs the pipeline.
type Characterizer struct {
	opts Options
}

// NewCharacterizer builds a pipeline with the given options.
func NewCharacterizer(opts Options) *Characterizer {
	return &Characterizer{opts: opts.withDefaults()}
}

// Run characterizes a dataset by executing the analysis stage graph —
// activity may be nil (skips §V). Stages with no dependency between them run
// concurrently, bounded by Options.Parallelism; each stochastic stage draws
// from an RNG stream derived from Options.Seed and the stage name, so the
// report is bit-identical whatever the parallelism or schedule.
func (c *Characterizer) Run(ds *twitter.Dataset, activity *timeseries.DailySeries) (*Report, error) {
	return c.RunContext(context.Background(), ds, activity)
}

// RunContext is Run with cancellation: when ctx is cancelled the stage
// graph stops scheduling (in-flight stages finish, nothing further starts)
// and the error wraps ctx.Err(). A server threads the http.Request context
// here so abandoned requests stop burning workers mid-battery; cancellation
// is stage-granular — see internal/pipeline.
func (c *Characterizer) RunContext(ctx context.Context, ds *twitter.Dataset, activity *timeseries.DailySeries) (*Report, error) {
	if ds == nil || ds.Graph == nil {
		return nil, ErrNoData
	}
	g := ds.Graph
	// Derive (unlike Split) never advances base, so concurrent stages can
	// key their streams off it without a lock.
	base := mathx.NewRNG(c.opts.Seed)
	rep := &Report{}

	// Result cache: content-address the dataset once, then give each
	// expensive stage a key over exactly the options that shape its
	// output. cached is the identity when the cache is off, so the stage
	// graph below reads the same either way.
	rcache := c.opts.resultCache()
	var dsDigest uint64
	if rcache != nil {
		dsDigest = store.DatasetDigest(ds, activity)
	}
	sc := stageCache{c: rcache, dataset: dsDigest}

	// Shared intermediates: the component decompositions feed the summary
	// and basic; the lazy artifacts feed every stage that reads them.
	var scc *graph.SCCResult
	var wcc *graph.WCCResult
	art := newArtifacts(g)
	// The degree stage's two report fields travel as one cache payload and
	// are copied into the report when the run returns.
	var degree degreeResult

	stages := []pipeline.Stage{
		{Name: StageComponents, Run: func() error {
			scc = graph.StronglyConnectedComponents(g)
			wcc = graph.WeaklyConnectedComponents(g)
			return nil
		}},
		{Name: StageSummary, Deps: []string{StageComponents}, Run: func() error {
			c.summarize(rep, ds, scc, wcc)
			return nil
		}},
		// No option shapes basic's output (and Seed deliberately stays out
		// of the digest), so one entry serves every run over the dataset.
		cached(sc, pipeline.Stage{Name: StageBasic, Deps: []string{StageComponents}, Run: func() error {
			rep.Basic = basicAnalysis(g, scc, art.clustering())
			return nil
		}}, basicCodecVersion, cache.HashWords(), &rep.Basic, encodeBasicTo, decodeBasicFrom),
		cached(sc, pipeline.Stage{Name: StageDegree, Run: func() error {
			degree = c.degreeAnalysis(g, art, base.Derive(StageDegree))
			return nil
		}}, degreeCodecVersion,
			cache.HashWords(c.opts.Seed, uint64(c.opts.BootstrapReps), boolWord(c.opts.SkipBootstrap)),
			&degree, encodeDegreeTo, decodeDegreeFrom),
	}
	if !c.opts.SkipEigen {
		stages = append(stages, cached(sc, pipeline.Stage{Name: StageEigen, Run: func() error {
			rep.Eigen = c.eigenAnalysis(art.und(), base.Derive(StageEigen))
			return nil
		}}, eigenCodecVersion,
			cache.HashWords(c.opts.Seed, uint64(c.opts.EigenK), uint64(eigenIters(c.opts.EigenK)),
				uint64(c.opts.BootstrapReps), boolWord(c.opts.SkipBootstrap)),
			&rep.Eigen, encodePowerLawTo, decodePowerLawFrom))
	}
	stages = append(stages,
		pipeline.Stage{Name: StageReciprocity, Run: func() error {
			rep.Reciprocity = graph.Reciprocity(g)
			return nil
		}},
		cached(sc, pipeline.Stage{Name: StageDistances, Run: func() error {
			rep.Distances = graph.SampledDistancesWorkers(g, c.opts.DistanceSources,
				base.Derive(StageDistances), c.opts.Parallelism)
			return nil
		}}, distancesCodecVersion, cache.HashWords(c.opts.Seed, uint64(c.opts.DistanceSources)),
			&rep.Distances, encodeDistancesTo, decodeDistancesFrom),
	)
	if len(ds.Profiles) > 0 {
		stages = append(stages,
			pipeline.Stage{Name: StageBios, Run: func() error {
				c.bioAnalysis(rep, ds)
				return nil
			}},
			pipeline.Stage{Name: StageHistograms, Run: func() error {
				c.metricHistograms(rep, ds)
				return nil
			}},
			cached(sc, pipeline.Stage{Name: StageCentrality, Run: func() error {
				rep.Centrality = c.centralityAnalysis(ds, art, base.Derive(StageCentrality))
				return nil
			}}, centralityCodecVersion,
				cache.HashWords(c.opts.Seed, uint64(c.opts.BetweennessSources), boolWord(c.opts.SkipBetweenness)),
				&rep.Centrality, encodeCentralityTo, decodeCentralityFrom),
			pipeline.Stage{Name: StageCategories, Run: func() error {
				if pr, err := art.pagerank(); err == nil {
					if ca, err := analyzeCategories(ds, pr); err == nil {
						rep.Categories = ca
					}
				}
				return nil
			}},
		)
	}
	stages = append(stages, cached(sc, pipeline.Stage{Name: StageMutualCore, Run: func() error {
		rep.MutualCore = analyzeMutualCore(g, art.und(), art.cores())
		return nil
	}}, mutualCoreCodecVersion,
		cache.HashWords(), // deterministic over the graph; no options
		&rep.MutualCore, encodeMutualCoreTo, decodeMutualCoreFrom))
	if activity != nil {
		stages = append(stages, pipeline.Stage{Name: StageActivity, Run: func() error {
			c.activityAnalysis(rep, activity)
			return nil
		}})
	}
	if c.opts.Features || stageRequested(c.opts.Stages, StageFeatures) {
		// Row payloads are cached as per-shard entries (features.Store)
		// keyed on the same (dataset, options) identity; the stage body is
		// just the manifest. A missing or corrupt shard fails Decode, so
		// the scheduler treats the whole stage as a miss and recomputes —
		// the matrix is never partially hydrated.
		fstore, _ := c.opts.FeatureShards(dsDigest)
		stages = append(stages, cached(sc, pipeline.Stage{Name: StageFeatures, Run: func() error {
			m, err := features.ComputeFrom(ds, c.opts.featureOptions(), art.featureInputs())
			if err != nil {
				return err
			}
			rep.Features = m
			return nil
		}}, features.ManifestCodecVersion, fstore.Options, &rep.Features,
			func(e *cache.Encoder, m *features.Matrix) {
				features.EncodeManifest(e, m)
				fstore.Put(m)
			},
			func(d *cache.Decoder) (*features.Matrix, error) {
				m, err := features.DecodeManifest(d, g.NumNodes())
				if err != nil {
					return nil, err
				}
				return m, fstore.Load(m)
			}))
	}

	only, err := filterStageSelection(c.opts.Stages, stages)
	if err != nil {
		return nil, err
	}
	// Per-stage resilience policy: bounded retries with deterministic
	// backoff, applied uniformly (panics are never retried — the pipeline
	// refuses).
	if c.opts.StageRetries > 0 {
		policy := pipeline.RetryPolicy{MaxRetries: c.opts.StageRetries, Backoff: c.opts.StageRetryBackoff}
		if policy.Backoff == 0 {
			policy.Backoff = 10 * time.Millisecond
		}
		for i := range stages {
			stages[i].Retry = policy
		}
	}
	popts := pipeline.Options{
		Parallelism: c.opts.Parallelism,
		Only:        only,
	}
	if rcache != nil {
		popts.Cache = rcache
	}
	runCtx := ctx
	if inj := c.opts.Faults; inj != nil {
		// Give KindCancel rules this run's own cancel, hook the scheduler,
		// and hook the (per-directory shared) cache for the run's duration.
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		inj.BindCancel(cancel)
		defer inj.BindCancel(nil)
		popts.Intercept = inj.Stage
		if rcache != nil {
			rcache.SetFaults(inj.Cache)
			defer rcache.SetFaults(nil)
		}
	}
	// Tracing: when the caller's context carries a span (a served request
	// or a -trace-out CLI run), wrap the whole battery in a "pipeline"
	// span and synthesize one "stage.<name>" child per executed stage from
	// its Timing — cache hit/miss and retry counts as attrs; injected
	// faults, recovered panics and retries as events. Observation never
	// shapes results, so this composes with the StageObserver hook.
	runSpan := obs.SpanFromContext(ctx).Child("pipeline")
	observer := c.opts.StageObserver
	if observer != nil || runSpan != nil {
		popts.Observe = func(tm pipeline.Timing) {
			if observer != nil {
				observer(StageTiming{Name: tm.Name, Duration: tm.Duration, CacheHit: tm.CacheHit,
					Err: tm.Err, Skipped: tm.Skipped, Retries: tm.Retries})
			}
			if runSpan == nil {
				return
			}
			sp := runSpan.ChildAt("stage."+tm.Name, tm.Start)
			sp.SetAttrBool("cache_hit", tm.CacheHit)
			sp.SetAttrInt("retries", tm.Retries)
			if tm.Retries > 0 {
				sp.AddEventAt("retry", tm.Start, "count", strconv.Itoa(tm.Retries))
			}
			if tm.Err != nil {
				sp.SetAttr("error", tm.Err.Error())
				if errors.Is(tm.Err, faults.ErrInjected) {
					sp.AddEventAt("fault.injected", tm.Start)
				}
				var pe *pipeline.StagePanicError
				if errors.As(tm.Err, &pe) {
					sp.AddEventAt("panic.recovered", tm.Start, "value", fmt.Sprint(pe.Value))
				}
			}
			sp.EndAt(tm.Start.Add(tm.Duration))
		}
	}
	timings, runErr := pipeline.RunContext(runCtx, stages, popts)
	rep.DegreeSeries, rep.Degree = degree.series, degree.pa
	if runSpan != nil {
		if runErr != nil && errors.Is(runErr, pipeline.ErrCanceled) {
			runSpan.AddEvent("canceled")
		}
		if runErr != nil {
			runSpan.SetAttr("error", runErr.Error())
		}
		runSpan.End()
	}
	if c.opts.Timings {
		for _, tm := range timings {
			// Deselected stages stay invisible; failed stages and
			// dependency/cancellation skips surface so a degraded report
			// can say exactly what is missing and why.
			if tm.Skipped && tm.Err == nil {
				continue
			}
			rep.Timings = append(rep.Timings, StageTiming{
				Name: tm.Name, Duration: tm.Duration, CacheHit: tm.CacheHit,
				Err: tm.Err, Skipped: tm.Skipped, Retries: tm.Retries,
			})
		}
	}
	if rcache != nil {
		cr := &CacheReport{Dir: rcache.Dir(), Evictions: rcache.Stats().Evictions}
		for i, tm := range timings {
			if stages[i].CacheKey == "" || tm.Skipped || tm.Err != nil {
				continue
			}
			if tm.CacheHit {
				cr.Hits = append(cr.Hits, tm.Name)
			} else {
				cr.Misses = append(cr.Misses, tm.Name)
			}
		}
		rep.Cache = cr
	}
	if runErr != nil {
		// Partial report: stages that completed keep their results, the
		// error (and Timings, when requested) says what failed. Callers that
		// want all-or-nothing keep their `if err != nil` guard; the serving
		// layer renders what survived.
		return rep, runErr
	}
	return rep, nil
}

// stageRequested reports whether a stage selection names stage explicitly.
func stageRequested(requested []string, stage string) bool {
	for _, name := range requested {
		if name == stage {
			return true
		}
	}
	return false
}

// filterStageSelection validates a user stage selection against the full
// vocabulary and drops names that are valid but not registered for this run
// (skipped by options or missing data). Requesting only unavailable stages
// is an error rather than a silently empty report.
func filterStageSelection(requested []string, stages []pipeline.Stage) ([]string, error) {
	if len(requested) == 0 {
		return nil, nil
	}
	known := make(map[string]bool, len(StageNames()))
	for _, name := range StageNames() {
		known[name] = true
	}
	registered := make(map[string]bool, len(stages))
	for _, s := range stages {
		registered[s.Name] = true
	}
	var only []string
	for _, name := range requested {
		if !known[name] {
			return nil, fmt.Errorf("core: unknown stage %q (known: %v)", name, StageNames())
		}
		if registered[name] {
			only = append(only, name)
		}
	}
	if len(only) == 0 {
		return nil, fmt.Errorf("core: none of the requested stages %v apply to this run", requested)
	}
	return only, nil
}

func (c *Characterizer) summarize(rep *Report, ds *twitter.Dataset, scc *graph.SCCResult, wcc *graph.WCCResult) {
	g := ds.Graph
	outDeg := g.OutDegrees()
	ds1 := graph.SummarizeDegrees(outDeg)
	maxNode := graph.ArgMax(outDeg)
	_, giant := scc.Largest()
	rep.Summary = DatasetSummary{
		Nodes:         g.NumNodes(),
		Edges:         g.NumEdges(),
		Density:       g.Density(),
		Isolated:      len(graph.IsolatedNodes(g)),
		AvgOutDegree:  ds1.Mean,
		MaxOutDegree:  ds1.Max,
		MaxOutNode:    maxNode,
		GiantSCCSize:  giant,
		GiantSCCShare: float64(giant) / float64(max(g.NumNodes(), 1)),
		NumSCCs:       scc.NumComponents(),
		NumWCCs:       wcc.NumComponents(),
		TotalVerified: ds.TotalVerified,
	}
}

// basicAnalysis computes the §IV-A analysis from the run's shared
// component decomposition and clustering vector.
func basicAnalysis(g *graph.Digraph, scc *graph.SCCResult, clustering []float64) BasicAnalysis {
	ac := graph.AttractingComponents(g, scc)
	in := g.InDegrees()
	basic := BasicAnalysis{
		Clustering:           graph.MeanClustering(clustering),
		Assortativity:        graph.DegreeAssortativityWithIn(g, in),
		AttractingComponents: len(ac),
	}
	// Representative attracting cores: highest in-degree members.
	type core struct{ node, indeg int }
	var cores []core
	for _, members := range ac {
		best := members[0]
		for _, v := range members {
			if in[v] > in[best] {
				best = v
			}
		}
		cores = append(cores, core{best, in[best]})
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i].indeg > cores[j].indeg })
	for i := 0; i < len(cores) && i < 10; i++ {
		basic.AttractingCores = append(basic.AttractingCores, cores[i].node)
	}
	return basic
}

func (c *Characterizer) degreeAnalysis(g *graph.Digraph, art *artifacts, rng *mathx.RNG) degreeResult {
	res := degreeResult{series: stats.DegreeFrequency(g.OutDegrees())}
	fit, err := art.outDegFit()
	if err != nil {
		return res
	}
	pa := &PowerLawAnalysis{Fit: fit, GoFP: nan()}
	if !c.opts.SkipBootstrap {
		pa.GoFP = fit.GoodnessOfFitWorkers(c.opts.BootstrapReps, rng, c.opts.Parallelism)
	}
	pa.Vuong = fit.CompareAll()
	res.pa = pa
	return res
}

// eigenIters is the Lanczos Krylov dimension for k eigenvalues.
func eigenIters(k int) int { return 3 * k }

// eigenAnalysis fits the top Laplacian eigenvalues of the undirected
// projection und.
func (c *Characterizer) eigenAnalysis(und *graph.Digraph, rng *mathx.RNG) *PowerLawAnalysis {
	op := spectral.NewLaplacianOperator(und)
	evs, err := spectral.TopEigenvaluesLanczos(op, c.opts.EigenK, eigenIters(c.opts.EigenK), rng)
	if err != nil || len(evs) == 0 {
		return nil
	}
	fit, err := powerlaw.FitContinuous(evs, nil)
	if err != nil {
		return nil
	}
	pa := &PowerLawAnalysis{Fit: fit, GoFP: nan()}
	if !c.opts.SkipBootstrap {
		pa.GoFP = fit.GoodnessOfFitWorkers(c.opts.BootstrapReps, rng, c.opts.Parallelism)
	}
	// Poisson does not apply to continuous eigenvalues; CompareAll
	// handles that by skipping it.
	pa.Vuong = fit.CompareAll()
	return pa
}

// topNGrams is the bios table length (the paper's 15; unigrams list 2×).
const topNGrams = 15

func (c *Characterizer) bioAnalysis(rep *Report, ds *twitter.Dataset) {
	uni := text.NewCounter(1)
	big := text.NewCounter(2)
	tri := text.NewCounter(3)
	for _, bio := range ds.Bios() {
		toks := text.Tokenize(bio)
		uni.Add(toks)
		big.Add(toks)
		tri.Add(toks)
	}
	k := topNGrams
	ba := &BioAnalysis{
		TopUnigrams: uni.Top(2 * k),
		TopBigrams:  big.Top(k),
		TopTrigrams: tri.Top(k),
	}
	ba.Cloud = text.BuildCloud(ba.TopUnigrams)
	rep.Bios = ba
}

func (c *Characterizer) metricHistograms(rep *Report, ds *twitter.Dataset) {
	rep.MetricHists = make(map[string]*stats.Histogram, 4)
	for _, m := range []twitter.Metric{
		twitter.MetricFriends, twitter.MetricFollowers,
		twitter.MetricListed, twitter.MetricStatuses,
	} {
		rep.MetricHists[m.String()] = stats.NewLogHistogram(ds.MetricValues(m), 30)
	}
}

// centralityAnalysis builds the six Figure 5 panels.
func (c *Characterizer) centralityAnalysis(ds *twitter.Dataset, art *artifacts, rng *mathx.RNG) []CentralityPair {
	pr, err := art.pagerank()
	if err != nil {
		return nil
	}
	followers := ds.MetricValues(twitter.MetricFollowers)
	listed := ds.MetricValues(twitter.MetricListed)
	statuses := ds.MetricValues(twitter.MetricStatuses)
	var bc []float64
	if !c.opts.SkipBetweenness {
		bc = centrality.ApproxBetweennessWorkers(ds.Graph, c.opts.BetweennessSources, rng, c.opts.Parallelism)
	}
	panels := []struct {
		label string
		x, y  []float64
	}{
		{"list memberships vs betweenness", bc, listed},
		{"follower count vs betweenness", bc, followers},
		{"list memberships vs pagerank", pr, listed},
		{"follower count vs pagerank", pr, followers},
		{"follower count vs status count", statuses, followers},
		{"follower count vs list memberships", listed, followers},
	}
	var pairs []CentralityPair
	for _, p := range panels {
		if p.x == nil {
			continue
		}
		if pair := buildCentralityPair(p.label, p.x, p.y); pair != nil {
			pairs = append(pairs, *pair)
		}
	}
	return pairs
}

// buildCentralityPair computes log-log correlations and the GAM spline for
// one panel, dropping non-positive points (as log-log plots must).
func buildCentralityPair(label string, x, y []float64) *CentralityPair {
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, log10(x[i]))
			ly = append(ly, log10(y[i]))
		}
	}
	if len(lx) < 10 {
		return nil
	}
	pearson, err := stats.Pearson(lx, ly)
	if err != nil {
		return nil
	}
	spearman, _ := stats.Spearman(lx, ly)
	pair := &CentralityPair{
		Label:    label,
		Pearson:  pearson,
		Spearman: spearman,
		PValue:   stats.CorrelationTest(pearson, len(lx)),
		N:        len(lx),
	}
	if sp, err := stats.FitSpline(lx, ly, nil); err == nil {
		pair.Curve = sp.Curve(25)
	}
	return pair
}

func (c *Characterizer) activityAnalysis(rep *Report, activity *timeseries.DailySeries) {
	aa := &ActivityAnalysis{Series: activity, PortmanteauLag: 185}
	maxLag := 185
	if maxLag >= activity.Len() {
		maxLag = activity.Len() - 2
	}
	aa.PortmanteauLag = maxLag
	if lb, err := timeseries.LjungBox(activity.Values, maxLag); err == nil {
		aa.LjungBoxMaxP = timeseries.MaxPValue(lb)
	}
	if bp, err := timeseries.BoxPierce(activity.Values, maxLag); err == nil {
		aa.BoxPierceMaxP = timeseries.MaxPValue(bp)
	}
	if adf, err := timeseries.ADF(activity.Values, timeseries.RegConstantTrend, -1); err == nil {
		aa.ADF = adf
	}
	aa.Changepoints = timeseries.PenaltySweep(activity.Values, 10, 400, 12, 7, 6)
	aa.WeekdayMeans = activity.WeekdayMeans()
	weekday := (aa.WeekdayMeans[1] + aa.WeekdayMeans[2] + aa.WeekdayMeans[3] +
		aa.WeekdayMeans[4] + aa.WeekdayMeans[5]) / 5
	if weekday > 0 {
		aa.SundayWeekday = aa.WeekdayMeans[0] / weekday
	}
	rep.Activity = aa
}

func log10(v float64) float64 { return math.Log10(v) }

func nan() float64 { return math.NaN() }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
