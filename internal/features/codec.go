package features

import (
	"fmt"
	"math"

	"elites/internal/cache"
)

// ShardRows is the fixed row width of one feature shard. It is part of the
// shard codec (keys embed the shard index, bodies echo the row range), so a
// change invalidates every stored shard — bump shardCodecVersion with it.
const ShardRows = 4096

// shardCodecVersion versions the per-shard binary layout below.
const shardCodecVersion = 1

// ManifestCodecVersion versions the manifest layout (EncodeManifest /
// DecodeManifest); core keys the features pipeline stage with it, so bump it
// whenever the manifest or the Matrix scalars it captures change shape.
const ManifestCodecVersion = 1

// NumShards returns the number of shards covering an n-row matrix.
func NumShards(n int) int { return (n + ShardRows - 1) / ShardRows }

// shardBounds returns the first row and row count of shard i of an n-row
// matrix; count <= 0 when the shard lies past the last row.
func shardBounds(i, n int) (lo, count int) {
	lo = i * ShardRows
	return lo, min(n-lo, ShardRows)
}

// shardKey builds the cache key of shard i for a (dataset, options) pair.
// The shard index lives in the stage name so each shard is its own cache
// entry with the standard key-echo + checksum protection.
func shardKey(dataset, options uint64, i int) string {
	return cache.Key{
		Stage:   fmt.Sprintf("features.shard%04d", i),
		Version: shardCodecVersion,
		Dataset: dataset,
		Options: options,
	}.String()
}

// encodeShard serializes rows [lo, lo+count) of m.
func encodeShard(m *Matrix, lo, count int) []byte {
	var e cache.Encoder
	e.Uvarint(uint64(NumFeatures))
	e.Uvarint(uint64(NumClasses))
	e.Uvarint(uint64(lo))
	e.Uvarint(uint64(count))
	e.Float64s(m.Data[lo*NumFeatures : (lo+count)*NumFeatures])
	e.Float64s(m.Probs[lo*NumClasses : (lo+count)*NumClasses])
	for i := 0; i < count; i++ {
		e.Uvarint(uint64(m.Class[lo+i]))
	}
	return e.Bytes()
}

// decodeShard parses one shard body into a fresh Rows fragment. Every
// violation — wrong header echo, misaligned range, short or oversized
// payload, out-of-range class, trailing bytes — returns cache.ErrCorrupt so
// callers treat the entry as a miss; it never panics and never returns a
// partially-filled fragment.
func decodeShard(data []byte, wantLo, wantCount int) (*Rows, error) {
	d := cache.NewDecoder(data)
	nf := d.Uvarint()
	nc := d.Uvarint()
	lo := d.Uvarint()
	count := d.Uvarint()
	if d.Err() != nil || nf != NumFeatures || nc != NumClasses {
		return nil, cache.ErrCorrupt
	}
	if lo != uint64(wantLo) || count != uint64(wantCount) ||
		count == 0 || count > ShardRows || lo%ShardRows != 0 {
		return nil, cache.ErrCorrupt
	}
	data64 := d.Float64s()
	probs := d.Float64s()
	if d.Err() != nil ||
		len(data64) != int(count)*NumFeatures ||
		len(probs) != int(count)*NumClasses {
		return nil, cache.ErrCorrupt
	}
	class := make([]uint8, count)
	for i := range class {
		c := d.Uvarint()
		if d.Err() != nil || c >= NumClasses {
			return nil, cache.ErrCorrupt
		}
		class[i] = uint8(c)
	}
	if d.Finish() != nil {
		return nil, cache.ErrCorrupt
	}
	return &Rows{Lo: int(lo), Data: data64, Probs: probs, Class: class}, nil
}

// EncodeManifest appends the matrix's scalar summary to a cache encoder —
// the pipeline-stage body. Row payloads live in the per-shard entries
// (Store.Put), not here, so the manifest stays tiny and a corrupt shard
// surfaces as a stage miss via Store.Load.
func EncodeManifest(e *cache.Encoder, m *Matrix) {
	e.Uvarint(uint64(m.N))
	e.Uvarint(ShardRows)
	e.Uvarint(uint64(m.CoreK))
	e.Uvarint(uint64(m.Degeneracy))
	e.Float64(m.TailXmin)
	e.Uvarint(uint64(m.TailCount))
	for _, c := range m.ClassCounts {
		e.Uvarint(uint64(c))
	}
}

// DecodeManifest parses a manifest body into a Matrix whose row storage is
// allocated but unfilled (call Store.Load to hydrate it). wantN is the
// caller's node count; a mismatch — stale entry for a different dataset
// shape — is corruption.
func DecodeManifest(d *cache.Decoder, wantN int) (*Matrix, error) {
	n := d.Uvarint()
	rows := d.Uvarint()
	coreK := d.Uvarint()
	degen := d.Uvarint()
	xmin := d.Float64()
	tail := d.Uvarint()
	var classes [NumClasses]uint64
	for i := range classes {
		classes[i] = d.Uvarint()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n != uint64(wantN) || rows != ShardRows ||
		coreK > n+1 || degen > n || tail > n {
		return nil, cache.ErrCorrupt
	}
	m := &Matrix{
		N: wantN,
		Rows: Rows{
			Data:  make([]float64, wantN*NumFeatures),
			Probs: make([]float64, wantN*NumClasses),
			Class: make([]uint8, wantN),
		},
		CoreK:      int(coreK),
		Degeneracy: int(degen),
		TailXmin:   xmin,
		TailCount:  int(tail),
	}
	var total uint64
	for i, c := range classes {
		if c > n {
			return nil, cache.ErrCorrupt
		}
		total += c
		m.ClassCounts[i] = int(c)
	}
	if total > n || (math.IsNaN(xmin) && tail != 0) {
		return nil, cache.ErrCorrupt
	}
	return m, nil
}

// Store reads and writes a matrix's row shards through a cache instance,
// keyed by a (dataset digest, feature-options digest) identity; build one
// with core's (Options).FeatureShards.
type Store struct {
	// Cache is the backing cache (shared per directory).
	Cache *cache.Cache
	// Dataset is the store.DatasetDigest half of every shard key.
	Dataset uint64
	// Options is the OptionsDigest half of every shard key.
	Options uint64
}

// Put writes every row shard of m. Errors are ignored shard-by-shard, like
// the cache's own best-effort disk writes: a failed Put costs a future
// recompute, never correctness.
func (s Store) Put(m *Matrix) {
	for i := 0; i < NumShards(m.N); i++ {
		lo, count := shardBounds(i, m.N)
		s.Cache.Put(shardKey(s.Dataset, s.Options, i), encodeShard(m, lo, count))
	}
}

// Load hydrates m's row storage from the store. It fills fresh buffers and
// swaps them in only after every shard decoded cleanly, so a missing or
// corrupt shard returns an error with m untouched — the pipeline then
// treats the whole stage as a miss and recomputes.
func (s Store) Load(m *Matrix) error {
	data := make([]float64, m.N*NumFeatures)
	probs := make([]float64, m.N*NumClasses)
	class := make([]uint8, m.N)
	for i := 0; i < NumShards(m.N); i++ {
		r, ok := s.LoadShard(i, m.N)
		if !ok {
			return fmt.Errorf("features: shard %d missing or corrupt", i)
		}
		copy(data[r.Lo*NumFeatures:], r.Data)
		copy(probs[r.Lo*NumClasses:], r.Probs)
		copy(class[r.Lo:], r.Class)
	}
	m.Data, m.Probs, m.Class = data, probs, class
	return nil
}

// LoadShard fetches and decodes the single shard covering rows
// [i·ShardRows, …) of an n-row matrix. ok is false on a miss or corrupt
// entry — the serving layer then falls back to running the pipeline stage.
func (s Store) LoadShard(i, n int) (*Rows, bool) {
	lo, count := shardBounds(i, n)
	if count <= 0 {
		return nil, false
	}
	body, ok := s.Cache.Get(shardKey(s.Dataset, s.Options, i))
	if !ok {
		return nil, false
	}
	r, err := decodeShard(body, lo, count)
	if err != nil {
		return nil, false
	}
	return r, true
}
