package stats

import (
	"errors"
	"math"

	"elites/internal/linalg"
)

// ErrBadSpline flags invalid smoother configuration.
var ErrBadSpline = errors.New("stats: bad spline configuration")

// SplineOptions configures the penalized B-spline smoother.
type SplineOptions struct {
	// Segments is the number of B-spline segments (basis size = Segments
	// + Degree). 0 means 20.
	Segments int
	// Degree of the B-spline basis; 0 means cubic (3).
	Degree int
	// PenaltyOrder is the difference-penalty order; 0 means 2 (curvature).
	PenaltyOrder int
	// Lambdas is the grid scanned by GCV; nil means a log grid from 1e-4
	// to 1e6.
	Lambdas []float64
}

func (o *SplineOptions) defaults() SplineOptions {
	out := SplineOptions{Segments: 20, Degree: 3, PenaltyOrder: 2}
	if o != nil {
		if o.Segments > 0 {
			out.Segments = o.Segments
		}
		if o.Degree > 0 {
			out.Degree = o.Degree
		}
		if o.PenaltyOrder > 0 {
			out.PenaltyOrder = o.PenaltyOrder
		}
		out.Lambdas = o.Lambdas
	}
	if out.Lambdas == nil {
		for e := -4.0; e <= 6.0; e += 0.5 {
			out.Lambdas = append(out.Lambdas, math.Pow(10, e))
		}
	}
	return out
}

// Spline is a fitted penalized regression spline (P-spline, Eilers & Marx):
// a cubic B-spline basis with a difference penalty on adjacent coefficients,
// the smoothing parameter chosen by generalized cross-validation. It plays
// the role of the "regression splines computed using a generalized additive
// model" in the paper's Figure 5.
type Spline struct {
	// Lambda is the GCV-selected smoothing parameter.
	Lambda float64
	// EDF is the effective degrees of freedom tr(H) at Lambda.
	EDF float64
	// GCV is the criterion value at Lambda.
	GCV float64
	// Sigma2 is the residual variance estimate RSS/(n − EDF).
	Sigma2 float64

	coef     []float64
	covB     *linalg.Matrix // Bayesian covariance σ²·(BᵀB+λP)⁻¹
	lo, hi   float64
	segments int
	degree   int
}

// FitSpline fits the smoother to (x, y). x need not be sorted; degenerate
// inputs (fewer points than basis functions, or zero x-range) reduce the
// basis automatically.
func FitSpline(x, y []float64, opts *SplineOptions) (*Spline, error) {
	if len(x) != len(y) {
		return nil, ErrMismatch
	}
	n := len(x)
	if n < 4 {
		return nil, ErrEmpty
	}
	o := opts.defaults()
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo <= 0 {
		return nil, ErrBadSpline
	}
	// Basis must be smaller than the sample.
	for o.Segments+o.Degree >= n && o.Segments > 2 {
		o.Segments--
	}
	nb := o.Segments + o.Degree
	if nb < o.PenaltyOrder+1 {
		return nil, ErrBadSpline
	}
	b := bsplineBasis(x, lo, hi, o.Segments, o.Degree)
	// Difference penalty matrix P = DᵀD of the requested order.
	d := diffMatrix(nb, o.PenaltyOrder)
	pen := linalg.TMul(d, d)
	btb := linalg.TMul(b, b)
	bty := b.TMulVec(y)

	var best *Spline
	for _, lambda := range o.Lambdas {
		a := btb.Clone()
		a.AddScaled(lambda, pen)
		// Tiny ridge for numerical definiteness with sparse data.
		a.AddScaledIdentity(1e-9)
		ch, err := linalg.NewCholesky(a)
		if err != nil {
			continue
		}
		coef := ch.Solve(bty)
		fitted := b.MulVec(coef)
		rss := 0.0
		for i := range y {
			r := y[i] - fitted[i]
			rss += r * r
		}
		// Effective df: tr(H) = tr((BᵀB+λP)⁻¹ BᵀB).
		ainvBtb := ch.SolveMatrix(btb)
		edf := 0.0
		for i := 0; i < nb; i++ {
			edf += ainvBtb.At(i, i)
		}
		den := 1 - edf/float64(n)
		if den <= 0 {
			continue
		}
		gcv := rss / (float64(n) * den * den)
		if best == nil || gcv < best.GCV {
			sigma2 := rss / math.Max(float64(n)-edf, 1)
			covB := ch.Inverse()
			for i := range covB.Data {
				covB.Data[i] *= sigma2
			}
			best = &Spline{
				Lambda:   lambda,
				EDF:      edf,
				GCV:      gcv,
				Sigma2:   sigma2,
				coef:     coef,
				covB:     covB,
				lo:       lo,
				hi:       hi,
				segments: o.Segments,
				degree:   o.Degree,
			}
		}
	}
	if best == nil {
		return nil, ErrBadSpline
	}
	return best, nil
}

// Eval returns the fitted mean at x0 (clamped into the fit range).
func (s *Spline) Eval(x0 float64) float64 {
	row := bsplineBasis([]float64{clamp(x0, s.lo, s.hi)}, s.lo, s.hi, s.segments, s.degree)
	v := 0.0
	for j := 0; j < row.Cols; j++ {
		v += row.At(0, j) * s.coef[j]
	}
	return v
}

// SE returns the pointwise standard error of the fitted mean at x0.
func (s *Spline) SE(x0 float64) float64 {
	row := bsplineBasis([]float64{clamp(x0, s.lo, s.hi)}, s.lo, s.hi, s.segments, s.degree)
	b := make([]float64, row.Cols)
	for j := range b {
		b[j] = row.At(0, j)
	}
	cv := s.covB.MulVec(b)
	return math.Sqrt(math.Max(linalg.Dot(b, cv), 0))
}

// CurvePoint is one evaluation of the smoother with its 95% band.
type CurvePoint struct {
	X, Y, Lo, Hi float64
}

// Curve evaluates the smoother with ±1.96·SE bands on k points spanning the
// fitted range.
func (s *Spline) Curve(k int) []CurvePoint {
	if k < 2 {
		k = 2
	}
	out := make([]CurvePoint, k)
	for i := 0; i < k; i++ {
		x := s.lo + (s.hi-s.lo)*float64(i)/float64(k-1)
		y := s.Eval(x)
		se := s.SE(x)
		out[i] = CurvePoint{X: x, Y: y, Lo: y - 1.96*se, Hi: y + 1.96*se}
	}
	return out
}

// clamp restricts v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// bsplineBasis evaluates the B-spline basis matrix (Cox–de Boor recursion)
// for the given points over [lo, hi] with nseg equal segments and the given
// degree. Rows are points, columns the nseg+degree basis functions.
func bsplineBasis(xs []float64, lo, hi float64, nseg, degree int) *linalg.Matrix {
	nb := nseg + degree
	h := (hi - lo) / float64(nseg)
	// Extended knot vector with degree extra knots on each side.
	nKnots := nseg + 2*degree + 1
	knots := make([]float64, nKnots)
	for i := range knots {
		knots[i] = lo + h*float64(i-degree)
	}
	m := linalg.NewMatrix(len(xs), nb)
	basis := make([]float64, nKnots-1)
	for r, x := range xs {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		// Degree-0 basis: indicator of the knot span, with the right
		// edge folded into the last interior span.
		span := int((x - lo) / h)
		if span >= nseg {
			span = nseg - 1
		}
		for i := range basis {
			basis[i] = 0
		}
		basis[span+degree] = 1
		// Raise the degree.
		for d := 1; d <= degree; d++ {
			for i := 0; i < nKnots-d-1; i++ {
				var left, right float64
				if den := knots[i+d] - knots[i]; den > 0 && basis[i] != 0 {
					left = (x - knots[i]) / den * basis[i]
				}
				if den := knots[i+d+1] - knots[i+1]; den > 0 && basis[i+1] != 0 {
					right = (knots[i+d+1] - x) / den * basis[i+1]
				}
				basis[i] = left + right
			}
		}
		for j := 0; j < nb; j++ {
			m.Set(r, j, basis[j])
		}
	}
	return m
}

// diffMatrix returns the order-k difference operator D with shape
// (n−k)×n (D1 = first differences, D2 = second differences, ...).
func diffMatrix(n, k int) *linalg.Matrix {
	// Start with identity and difference k times.
	cur := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cur.Set(i, i, 1)
	}
	for step := 0; step < k; step++ {
		rows := cur.Rows - 1
		next := linalg.NewMatrix(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				next.Set(i, j, cur.At(i+1, j)-cur.At(i, j))
			}
		}
		cur = next
	}
	return cur
}
