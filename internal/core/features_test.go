package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"elites/internal/cache"
	"elites/internal/features"
	"elites/internal/pipeline"
)

// featuresOptions enables the opt-in feature stage next to the cheap
// battery configuration.
func featuresOptions(dir string) Options {
	o := cacheOptions(dir)
	o.Stages = []string{StageFeatures}
	return o
}

func matricesBitIdentical(t *testing.T, want, got *features.Matrix, label string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (want=%v got=%v)", label, want != nil, got != nil)
	}
	if want.N != got.N || want.CoreK != got.CoreK || want.Degeneracy != got.Degeneracy ||
		want.TailCount != got.TailCount || want.ClassCounts != got.ClassCounts ||
		math.Float64bits(want.TailXmin) != math.Float64bits(got.TailXmin) {
		t.Fatalf("%s: scalar mismatch", label)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: Data[%d] differs", label, i)
		}
	}
	for i := range want.Probs {
		if math.Float64bits(want.Probs[i]) != math.Float64bits(got.Probs[i]) {
			t.Fatalf("%s: Probs[%d] differs", label, i)
		}
	}
	for i := range want.Class {
		if want.Class[i] != got.Class[i] {
			t.Fatalf("%s: Class[%d] differs", label, i)
		}
	}
}

func TestFeatureStageColdWarmBitIdentical(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	opts := featuresOptions(dir)

	cold, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Cache.Misses, []string{StageFeatures}) || len(cold.Cache.Hits) != 0 {
		t.Fatalf("cold traffic: %+v", cold.Cache)
	}
	warm, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Cache.Hits, []string{StageFeatures}) || len(warm.Cache.Misses) != 0 {
		t.Fatalf("warm traffic: %+v", warm.Cache)
	}
	matricesBitIdentical(t, cold.Features, warm.Features, "warm hydration")
}

// TestFeatureStageSharedArtifacts runs the full battery with the feature
// stage, which reads the run's shared artifacts (k-cores, PageRank, the
// clustering vector, the out-degree fit) instead of computing its own: the
// matrix must stay bit-identical to a standalone features.Compute and the
// rendered report byte-identical to the battery without features, at every
// worker budget.
func TestFeatureStageSharedArtifacts(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	plain, err := NewCharacterizer(fastOptions()).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	wantRender := renderString(t, plain)
	for _, par := range []int{1, 4} {
		opts := fastOptions()
		opts.Features = true
		opts.Parallelism = par
		c := NewCharacterizer(opts)
		rep, err := c.Run(ds, activity)
		if err != nil {
			t.Fatal(err)
		}
		want, err := features.Compute(ds, features.Options{
			BetweennessSources: c.opts.BetweennessSources,
			Seed:               c.opts.Seed,
			Parallelism:        par,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := "parallelism=" + strconv.Itoa(par)
		matricesBitIdentical(t, want, rep.Features, label)
		if got := renderString(t, rep); got != wantRender {
			t.Fatalf("%s: report with features renders differently from the battery without", label)
		}
	}
}

// TestArtifactPanicFailsEveryConsumer pins the containment the shared
// artifacts rely on: a panicking artifact is computed once, yet fails every
// stage that reads it, each through the pipeline's own panic recovery.
func TestArtifactPanicFailsEveryConsumer(t *testing.T) {
	var calls atomic.Int32
	art := sync.OnceValue(func() []float64 {
		calls.Add(1)
		panic("artifact failed")
	})
	consume := func() error { _ = art(); return nil }
	stages := []pipeline.Stage{{Name: "a", Run: consume}, {Name: "b", Run: consume}}
	timings, err := pipeline.Run(stages, pipeline.Options{Parallelism: 2})
	if err == nil {
		t.Fatal("consumers of a panicking artifact succeeded")
	}
	for _, tm := range timings {
		var pe *pipeline.StagePanicError
		if !errors.As(tm.Err, &pe) {
			t.Fatalf("stage %s: want a contained panic, got %v", tm.Name, tm.Err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("artifact computed %d times, want once", n)
	}
}

func TestFeatureStageCorruptShardRecomputes(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	opts := featuresOptions(dir)

	cold, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate one shard entry on disk; the checksum mismatch must turn the
	// whole stage into a miss (full recompute), never an error or a
	// partially-hydrated matrix.
	shards, _ := filepath.Glob(filepath.Join(dir, "features.shard0000-*.bin"))
	if len(shards) != 1 {
		t.Fatalf("want one shard-0 entry, found %v", shards)
	}
	data, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shards[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cc, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cc.DropMemory()

	warm, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatalf("corrupt shard broke the run: %v", err)
	}
	if !contains(warm.Cache.Misses, StageFeatures) {
		t.Fatalf("corrupt shard should force a recompute: %+v", warm.Cache)
	}
	matricesBitIdentical(t, cold.Features, warm.Features, "recompute after corruption")
}

func TestFeatureStageOptIn(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()

	// The default battery neither runs nor caches the feature stage.
	rep, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Features != nil {
		t.Fatal("feature matrix computed without opting in")
	}
	if contains(rep.Cache.Hits, StageFeatures) || contains(rep.Cache.Misses, StageFeatures) {
		t.Fatalf("feature stage in default cache traffic: %+v", rep.Cache)
	}

	// Options.Features is the flag-shaped opt-in: the stage joins the full
	// battery instead of replacing it.
	opts := cacheOptions(t.TempDir())
	opts.Features = true
	opts.Parallelism = 1 // observer below appends without locking
	var observed []string
	opts.StageObserver = func(tm StageTiming) { observed = append(observed, tm.Name) }
	full, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if full.Features == nil || full.Summary.Nodes != ds.Graph.NumNodes() {
		t.Fatal("Features=true should add the stage to the full battery")
	}
	if !contains(full.Cache.Misses, StageFeatures) {
		t.Fatalf("feature stage missing from cache traffic: %+v", full.Cache)
	}
	if !contains(observed, StageFeatures) {
		t.Fatalf("feature stage invisible to StageObserver: %v", observed)
	}
}
