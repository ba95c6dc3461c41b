package core

import (
	"testing"

	"elites/internal/faults"
)

// TestOptionsDigest pins the options half of every served request identity
// (reportKey strings, job ids): the values below are the ones serving
// layers have always derived, so memo keys and job ids survive refactors.
// Each result-shaping field moves the digest; fields that cannot change
// result bytes leave it alone.
func TestOptionsDigest(t *testing.T) {
	pinned := []struct {
		name string
		o    Options
		want uint64
	}{
		{"zero", Options{}, 0xf08137ea437480bc},
		{"seed 42", Options{Seed: 42}, 0x04014d4497149065},
		{"eliteserve -fast -seed 42", Options{Seed: 42, SkipEigen: true, SkipBetweenness: true,
			SkipBootstrap: true, DistanceSources: 100}, 0x5bab6c6cc98fdf29},
	}
	for _, tc := range pinned {
		if got := tc.o.Digest(); got != tc.want {
			t.Errorf("%s: Digest() = %016x, want %016x", tc.name, got, tc.want)
		}
	}

	base := Options{Seed: 7}.Digest()
	shaping := []struct {
		field string
		o     Options
	}{
		{"DistanceSources", Options{Seed: 7, DistanceSources: 30}},
		{"BetweennessSources", Options{Seed: 7, BetweennessSources: 16}},
		{"EigenK", Options{Seed: 7, EigenK: 16}},
		{"BootstrapReps", Options{Seed: 7, BootstrapReps: 5}},
		{"Seed", Options{Seed: 8}},
		{"SkipEigen", Options{Seed: 7, SkipEigen: true}},
		{"SkipBetweenness", Options{Seed: 7, SkipBetweenness: true}},
		{"SkipBootstrap", Options{Seed: 7, SkipBootstrap: true}},
		{"Features", Options{Seed: 7, Features: true}},
	}
	seen := map[uint64]string{base: "base"}
	for _, tc := range shaping {
		d := tc.o.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("%s: digest %016x collides with %s", tc.field, d, prev)
		}
		seen[d] = tc.field
	}

	ignored := []struct {
		field string
		o     Options
	}{
		{"Parallelism", Options{Seed: 7, Parallelism: 8}},
		{"Timings", Options{Seed: 7, Timings: true}},
		{"Stages", Options{Seed: 7, Stages: []string{StageSummary}}},
		{"CacheDir", Options{Seed: 7, CacheDir: "results"}},
		{"StageObserver", Options{Seed: 7, StageObserver: func(StageTiming) {}}},
		{"Faults", Options{Seed: 7, Faults: faults.New(1)}},
	}
	for _, tc := range ignored {
		if d := tc.o.Digest(); d != base {
			t.Errorf("%s entered the digest: %016x != %016x", tc.field, d, base)
		}
	}
}
