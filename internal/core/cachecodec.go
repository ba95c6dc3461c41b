package core

import (
	"elites/internal/cache"
	"elites/internal/graph"
	"elites/internal/pipeline"
	"elites/internal/powerlaw"
	"elites/internal/stats"
)

// Binary codecs for the cached pipeline stages (store-style: varints, raw
// float bits, length prefixes). Each cached stage owns one codec version
// constant — bump it whenever the encoding *or the stage's computation*
// changes, so stale entries from older builds become unreachable instead of
// wrong. Decoders inherit the cache.Decoder sticky-error discipline: any
// malformed payload surfaces as one error, which the scheduler treats as a
// miss and recomputes.
const (
	distancesCodecVersion  = 1
	centralityCodecVersion = 1
	// degree and eigen went to v2 when the power-law kernel changed the
	// fit's numerics (suffix-sum tail statistics, ladder-evaluated zeta,
	// warm-started Brent) and the bootstrap's denominator accounting
	// (dropped replicates are excluded), plus Fit grew derived unexported
	// state — v1 entries carry pre-kernel values and must not be served.
	degreeCodecVersion = 2
	// eigen is at v3: partial reorthogonalization changed the Lanczos
	// rounding, and a v2 entry would break cold = warm byte identity.
	eigenCodecVersion = 3
	// basic and mutualcore joined the cache in PR 4 (the ROADMAP's
	// mid-weight leftovers): both are pure functions of the graph with no
	// shaping options, so their options digest is the empty hash.
	basicCodecVersion      = 1
	mutualCoreCodecVersion = 1
)

// stageCache binds a run's result cache and the dataset's content digest;
// a nil c means caching is off.
type stageCache struct {
	c       *cache.Cache
	dataset uint64
}

// cached declares st as a cached stage whose whole output is *out: Encode
// writes *out with enc, and Decode hydrates it with dec, assigning only a
// payload that decoded completely. With the cache off it returns st as is.
func cached[T any](sc stageCache, st pipeline.Stage, version int, optsDigest uint64,
	out *T, enc func(*cache.Encoder, T), dec func(*cache.Decoder) (T, error)) pipeline.Stage {
	if sc.c == nil {
		return st
	}
	st.CacheKey = cache.Key{
		Stage: st.Name, Version: version,
		Dataset: sc.dataset, Options: optsDigest,
	}.String()
	st.Encode = func() ([]byte, error) {
		var e cache.Encoder
		enc(&e, *out)
		return e.Bytes(), nil
	}
	st.Decode = func(data []byte) error {
		d := cache.NewDecoder(data)
		v, err := dec(d)
		if err == nil {
			err = d.Finish()
		}
		if err == nil {
			*out = v
		}
		return err
	}
	return st
}

// --- distances ---------------------------------------------------------------

func encodeDistancesTo(e *cache.Encoder, dd *graph.DistanceDistribution) {
	e.Bool(dd != nil)
	if dd == nil {
		return
	}
	e.Float64s(dd.Counts)
	e.Float64(dd.Pairs)
	e.Int(dd.Sources)
	e.Bool(dd.Sampled)
}

func decodeDistancesFrom(d *cache.Decoder) (*graph.DistanceDistribution, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	dd := &graph.DistanceDistribution{
		Counts:  d.Float64s(),
		Pairs:   d.Float64(),
		Sources: d.Int(),
		Sampled: d.Bool(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return dd, nil
}

// --- power-law analyses (degree, eigen) --------------------------------------

func encodePowerLawTo(e *cache.Encoder, pa *PowerLawAnalysis) {
	e.Bool(pa != nil)
	if pa == nil {
		return
	}
	pa.Fit.EncodeTo(e)
	e.Float64(pa.GoFP)
	e.Uvarint(uint64(len(pa.Vuong)))
	for _, v := range pa.Vuong {
		v.EncodeTo(e)
	}
}

func decodePowerLawFrom(d *cache.Decoder) (*PowerLawAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	fit, err := powerlaw.DecodeFitFrom(d)
	if err != nil {
		return nil, err
	}
	pa := &PowerLawAnalysis{Fit: fit, GoFP: d.Float64()}
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 16 { // far above the three fixed alternatives; reject corruption
		return nil, cache.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		v, err := powerlaw.DecodeVuongFrom(d)
		if err != nil {
			return nil, err
		}
		pa.Vuong = append(pa.Vuong, v)
	}
	return pa, nil
}

// degreeResult is everything the degree stage writes: the Figure 2
// frequency series (Report.DegreeSeries) and the §IV-B analysis
// (Report.Degree).
type degreeResult struct {
	series []stats.CCDFPoint
	pa     *PowerLawAnalysis
}

func encodeDegreeTo(e *cache.Encoder, r degreeResult) {
	e.Uvarint(uint64(len(r.series)))
	for _, p := range r.series {
		e.Float64(p.X)
		e.Float64(p.P)
	}
	encodePowerLawTo(e, r.pa)
}

func decodeDegreeFrom(d *cache.Decoder) (degreeResult, error) {
	var r degreeResult
	n := d.Uvarint()
	if d.Err() != nil {
		return r, d.Err()
	}
	for i := uint64(0); i < n; i++ {
		p := stats.CCDFPoint{X: d.Float64(), P: d.Float64()}
		if d.Err() != nil {
			return r, d.Err()
		}
		r.series = append(r.series, p)
	}
	pa, err := decodePowerLawFrom(d)
	if err != nil {
		return r, err
	}
	r.pa = pa
	return r, nil
}

// --- centrality --------------------------------------------------------------

func encodeCentralityTo(e *cache.Encoder, pairs []CentralityPair) {
	e.Uvarint(uint64(len(pairs)))
	for i := range pairs {
		p := &pairs[i]
		e.String(p.Label)
		e.Float64(p.Pearson)
		e.Float64(p.Spearman)
		e.Float64(p.PValue)
		e.Int(p.N)
		e.Uvarint(uint64(len(p.Curve)))
		for _, cp := range p.Curve {
			e.Float64(cp.X)
			e.Float64(cp.Y)
			e.Float64(cp.Lo)
			e.Float64(cp.Hi)
		}
	}
}

func decodeCentralityFrom(d *cache.Decoder) ([]CentralityPair, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 64 { // six panels today; reject implausible counts as corruption
		return nil, cache.ErrCorrupt
	}
	var pairs []CentralityPair
	for i := uint64(0); i < n; i++ {
		p := CentralityPair{
			Label:    d.String(),
			Pearson:  d.Float64(),
			Spearman: d.Float64(),
			PValue:   d.Float64(),
			N:        d.Int(),
		}
		m := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		for j := uint64(0); j < m; j++ {
			p.Curve = append(p.Curve, stats.CurvePoint{
				X: d.Float64(), Y: d.Float64(), Lo: d.Float64(), Hi: d.Float64(),
			})
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// --- basic (§IV-A) -----------------------------------------------------------

func encodeBasicTo(e *cache.Encoder, b BasicAnalysis) {
	e.Float64(b.Clustering)
	e.Float64(b.Assortativity)
	e.Int(b.AttractingComponents)
	e.Uvarint(uint64(len(b.AttractingCores)))
	for _, v := range b.AttractingCores {
		e.Int(v)
	}
}

func decodeBasicFrom(d *cache.Decoder) (BasicAnalysis, error) {
	b := BasicAnalysis{
		Clustering:           d.Float64(),
		Assortativity:        d.Float64(),
		AttractingComponents: d.Int(),
	}
	n := d.Uvarint()
	if d.Err() != nil {
		return b, d.Err()
	}
	if n > 10 { // the stage keeps at most 10 representative cores
		return b, cache.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		b.AttractingCores = append(b.AttractingCores, d.Int())
	}
	return b, d.Err()
}

// --- mutual core (§IV-C conjecture) ------------------------------------------

func encodeMutualCoreTo(e *cache.Encoder, m *MutualCoreAnalysis) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	e.Int(m.CoreK)
	e.Int(m.Degeneracy)
	e.Int(m.CoreNodes)
	e.Float64(m.CoreReciprocity)
	e.Float64(m.PeripheryReciprocity)
	e.Float64(m.MutualEdgeShare)
	e.Uvarint(uint64(len(m.RichClub)))
	for _, p := range m.RichClub {
		e.Int(p.K)
		e.Int(p.N)
		e.Float64(p.Phi)
		e.Float64(p.PhiNorm)
	}
}

func decodeMutualCoreFrom(d *cache.Decoder) (*MutualCoreAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	m := &MutualCoreAnalysis{
		CoreK:                d.Int(),
		Degeneracy:           d.Int(),
		CoreNodes:            d.Int(),
		CoreReciprocity:      d.Float64(),
		PeripheryReciprocity: d.Float64(),
		MutualEdgeShare:      d.Float64(),
	}
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 1024 { // the curve has ~10 log-spaced points; reject corruption
		return nil, cache.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		m.RichClub = append(m.RichClub, graph.RichClubPoint{
			K: d.Int(), N: d.Int(), Phi: d.Float64(), PhiNorm: d.Float64(),
		})
		if d.Err() != nil {
			return nil, d.Err()
		}
	}
	return m, nil
}
