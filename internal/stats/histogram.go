package stats

import (
	"math"
	"sort"
)

// Histogram is a binned frequency distribution. Bins are [Edges[i],
// Edges[i+1]) with the final bin closed on the right.
type Histogram struct {
	Edges  []float64 // len = len(Counts)+1, ascending
	Counts []int
}

// Total returns the number of binned observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// GeometricCenters returns sqrt(lo·hi) per bin, the natural x-coordinate for
// log-binned data.
func (h *Histogram) GeometricCenters() []float64 {
	out := make([]float64, len(h.Counts))
	for i := range out {
		out[i] = math.Sqrt(h.Edges[i] * h.Edges[i+1])
	}
	return out
}

// Densities returns counts normalized by bin width and total count, i.e. an
// empirical pdf.
func (h *Histogram) Densities() []float64 {
	total := float64(h.Total())
	out := make([]float64, len(h.Counts))
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		w := h.Edges[i+1] - h.Edges[i]
		if w > 0 {
			out[i] = float64(c) / (total * w)
		}
	}
	return out
}

// NewHistogram bins xs into k equal-width bins spanning [min, max]. Values
// outside the range are clamped into the edge bins.
func NewHistogram(xs []float64, k int) *Histogram {
	if k <= 0 || len(xs) == 0 {
		return &Histogram{Edges: []float64{0, 1}, Counts: make([]int, 1)}
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	h := &Histogram{Edges: make([]float64, k+1), Counts: make([]int, k)}
	for i := 0; i <= k; i++ {
		h.Edges[i] = lo + (hi-lo)*float64(i)/float64(k)
	}
	w := (hi - lo) / float64(k)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		h.Counts[i]++
	}
	return h
}

// NewLogHistogram bins positive values into k logarithmically spaced bins —
// the binning used by the Figure 1 "log-scaled number of users vs metric"
// panels. Non-positive values are dropped (callers report them separately as
// the zero bucket).
func NewLogHistogram(xs []float64, k int) *Histogram {
	var pos []float64
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if k <= 0 || len(pos) == 0 {
		return &Histogram{Edges: []float64{1, 10}, Counts: make([]int, 1)}
	}
	lo, hi := pos[0], pos[0]
	for _, x := range pos {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo * 10
	}
	lLo, lHi := math.Log(lo), math.Log(hi)
	h := &Histogram{Edges: make([]float64, k+1), Counts: make([]int, k)}
	for i := 0; i <= k; i++ {
		h.Edges[i] = math.Exp(lLo + (lHi-lLo)*float64(i)/float64(k))
	}
	w := (lHi - lLo) / float64(k)
	for _, x := range pos {
		i := int((math.Log(x) - lLo) / w)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		h.Counts[i]++
	}
	return h
}

// CCDFPoint is one point of an empirical complementary CDF.
type CCDFPoint struct {
	X float64 // value
	P float64 // fraction of observations >= X
}

// EmpiricalCCDF returns P(X >= x) evaluated at each distinct value of the
// sample, ascending in X — the standard log-log tail plot (Figure 2 uses the
// pdf variant; the CCDF is what the KS machinery compares).
func EmpiricalCCDF(xs []float64) []CCDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var out []CCDFPoint
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[i] {
			j++
		}
		out = append(out, CCDFPoint{X: sorted[i], P: float64(len(sorted)-i) / n})
		i = j + 1
	}
	return out
}

// DegreeFrequency returns, for each distinct positive value, the fraction of
// observations equal to it — the "proportion of users vs out-degree" series
// of Figure 2.
func DegreeFrequency(xs []int) []CCDFPoint {
	if len(xs) == 0 {
		return nil
	}
	counts := map[int]int{}
	total := 0
	for _, x := range xs {
		if x > 0 {
			counts[x]++
			total++
		}
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]CCDFPoint, len(keys))
	for i, k := range keys {
		out[i] = CCDFPoint{X: float64(k), P: float64(counts[k]) / float64(total)}
	}
	return out
}
