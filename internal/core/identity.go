package core

import (
	"elites/internal/cache"
	"elites/internal/features"
)

// boolWord folds a flag into an options digest.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Digest folds every result-shaping option into one word: the options half
// of a serving layer's request identity (coalescer keys, body-memo keys,
// job ids). Parallelism, Timings, Stages, the cache settings,
// StageObserver, the retry policy and Faults stay out — they never change
// result bytes. The word sequence is fixed so identities survive option
// removals: the slots of the retired EigenIters, TopNGrams and
// SkipCategories options still fold their never-set values 0, 0 and false.
func (o Options) Digest() uint64 {
	return cache.HashWords(
		uint64(o.DistanceSources), uint64(o.BetweennessSources),
		uint64(o.EigenK), 0, uint64(o.BootstrapReps),
		0, o.Seed,
		boolWord(o.SkipEigen), boolWord(o.SkipBetweenness),
		boolWord(o.SkipBootstrap), 0,
		boolWord(o.Features),
	)
}

// KeyDigest folds a request-identity string — a serving layer's coalescer
// key, which embeds Digest — into one word with the result cache's hasher;
// async job ids are content-addressed by it.
func KeyDigest(key string) uint64 {
	h := cache.NewHasher()
	h.String(key)
	return h.Sum()
}

// resultCache opens the per-directory result cache these options enable,
// or returns nil when CacheDir is empty, NoCache is set, or the directory
// cannot be opened. A positive CacheMemBytes resizes the shared instance.
func (o Options) resultCache() *cache.Cache {
	if o.CacheDir == "" || o.NoCache {
		return nil
	}
	rc, err := cache.New(o.CacheDir)
	if err != nil {
		return nil
	}
	if o.CacheMemBytes > 0 {
		rc.SetMaxBytes(o.CacheMemBytes)
	}
	return rc
}

// featureOptions maps these options onto the feature matrix's.
func (o Options) featureOptions() features.Options {
	return features.Options{
		BetweennessSources: o.BetweennessSources,
		Seed:               o.Seed,
		Parallelism:        o.Parallelism,
	}
}

// FeatureShards is the feature-shard store a features run under these
// options writes for the dataset with the given store.DatasetDigest — the
// store the features stage hydrates from and a server reads single shards
// from. ok is false when the options enable no result cache; the returned
// store then has no Cache but still carries the options digest.
func (o Options) FeatureShards(dataset uint64) (st features.Store, ok bool) {
	st = features.Store{
		Cache:   o.resultCache(),
		Dataset: dataset,
		Options: features.OptionsDigest(o.featureOptions()),
	}
	return st, st.Cache != nil
}
