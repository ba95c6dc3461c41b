// Package spectral computes extremal eigenvalues of graph matrices without
// materializing them. The paper fits a power law to the largest Laplacian
// eigenvalues of the verified sub-graph (computed there "using the power
// iteration method in existing solvers"); we provide a Lanczos solver with
// partial reorthogonalization (the workhorse) and a power-iteration-with-
// deflation solver (the ablation baseline), on a matrix-free operator for
// the Laplacian of the undirected projection.
package spectral

import (
	"errors"
	"math"

	"elites/internal/graph"
	"elites/internal/linalg"
	"elites/internal/mathx"
)

// ErrBadParam flags invalid eigensolver parameters.
var ErrBadParam = errors.New("spectral: bad parameter")

// Operator is a symmetric linear operator y = A·x on R^n.
type Operator interface {
	Dim() int
	// Apply computes dst = A·src; dst and src have length Dim and do not
	// alias.
	Apply(dst, src []float64)
}

// LaplacianOperator applies L = D − A_sym of the undirected projection,
// where D is the diagonal degree matrix. Its largest eigenvalues track the
// largest degrees (for a star of degree d, λ_max = d+1), which couples the
// eigenvalue power law to the degree power law exactly as §IV-B observes.
type LaplacianOperator struct {
	und *graph.Digraph
	deg []float64
}

// NewLaplacianOperator builds the operator.
func NewLaplacianOperator(g *graph.Digraph) *LaplacianOperator {
	und := g.Undirected()
	deg := make([]float64, und.NumNodes())
	for u := 0; u < und.NumNodes(); u++ {
		deg[u] = float64(und.OutDegree(u))
	}
	return &LaplacianOperator{und: und, deg: deg}
}

// Dim returns the number of nodes.
func (l *LaplacianOperator) Dim() int { return l.und.NumNodes() }

// Apply computes dst = (D − A)·src.
func (l *LaplacianOperator) Apply(dst, src []float64) {
	for u := 0; u < l.und.NumNodes(); u++ {
		s := l.deg[u] * src[u]
		for _, v := range l.und.OutNeighbors(u) {
			s -= src[v]
		}
		dst[u] = s
	}
}

// DenseOperator wraps a dense symmetric matrix as an Operator (test oracle).
type DenseOperator struct{ M *linalg.Matrix }

// Dim returns the matrix dimension.
func (d *DenseOperator) Dim() int { return d.M.Rows }

// Apply computes dst = M·src.
func (d *DenseOperator) Apply(dst, src []float64) {
	out := d.M.MulVec(src)
	copy(dst, out)
}

// TopEigenvaluesLanczos computes the k largest eigenvalues of the symmetric
// operator op by the Lanczos iteration with partial reorthogonalization.
// iters controls the Krylov dimension; it is clamped to [2k+10, n], and the
// basis grows one n-vector per step. Eigenvalues return in descending order;
// only converged Ritz values are trustworthy, so callers requesting k values
// should allow iters ≈ 3k for power-law-tailed spectra.
func TopEigenvaluesLanczos(op Operator, k, iters int, rng *mathx.RNG) ([]float64, error) {
	evs, _, err := lanczos(op, k, iters, rng)
	return evs, err
}

// Machine epsilon, and the orthogonality level the basis is kept at.
const eps, sqrtEps = 0x1p-52, 0x1p-26

// lanczos is TopEigenvaluesLanczos, also counting the steps that ran a full
// modified Gram-Schmidt pass against the basis. Following Simon (Math. Comp.
// 42, 1984), it tracks ω_{j+1,i} ≈ v_{j+1}·v_i by a three-term recurrence in
// O(j) scalars per step and runs a pass only when max|ω| > √ε, plus on the
// step after; semi-orthogonality is enough for Ritz values to match full
// reorthogonalization to rounding, ghost-free. The recurrence's rounding term
// is a fixed-sign bound, so the RNG is read only for the start vector and
// each invariant-subspace restart.
func lanczos(op Operator, k, iters int, rng *mathx.RNG) (evs []float64, passes int, err error) {
	n := op.Dim()
	if n == 0 {
		return nil, 0, nil
	}
	if k <= 0 {
		return nil, 0, ErrBadParam
	}
	k = min(k, n)
	iters = min(max(iters, 2*k+10), n)
	basis := make([][]float64, 0, iters)
	alpha := make([]float64, 0, iters)
	beta := make([]float64, 0, iters) // beta[j] couples v_j and v_{j+1}
	// At step j, omega[i] ≈ v_j·v_i and prev[i] ≈ v_{j-1}·v_i.
	omega, prev := append(make([]float64, 0, iters+1), 1), make([]float64, 0, iters+1)
	force := false
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal()
	}
	normalize(v)
	w := make([]float64, n)
	// reorth is one modified Gram-Schmidt sweep of w against the basis.
	// Each vector's update of w is fused with the next vector's dot
	// product, so w streams once per vector; the arithmetic is unchanged.
	reorth := func() {
		passes++
		last := basis[0]
		c := linalg.Dot(w, last)
		for _, u := range basis[1:] {
			p, u := last[:len(w)], u[:len(w)]
			s := 0.0
			for i := range w {
				w[i] -= c * p[i]
				s += w[i] * u[i]
			}
			c, last = s, u
		}
		linalg.Axpy(-c, last, w)
	}
	for j := 0; j < iters; j++ {
		basis = append(basis, append([]float64(nil), v...))
		op.Apply(w, v)
		a := linalg.Dot(w, v)
		alpha = append(alpha, a)
		// w ← w − a·v_j − b_{j-1}·v_{j-1}.
		linalg.Axpy(-a, v, w)
		if j > 0 {
			linalg.Axpy(-beta[j-1], basis[j-1], w)
		}
		b := linalg.Norm2(w)
		// prev becomes row j+1 of ω in place: entry i reads only prev[i].
		prev = append(prev, eps, 1)
		worst := 0.0
		for i := 0; i < j && b >= 1e-10; i++ {
			t := beta[i]*omega[i+1] + (alpha[i]-a)*omega[i] - beta[j-1]*prev[i]
			if i > 0 {
				t += beta[i-1] * omega[i-1]
			}
			prev[i] = (t + math.Copysign(eps*(beta[i]+b)*0.3, t)) / b
			worst = max(worst, math.Abs(prev[i]))
		}
		pass := force || worst > sqrtEps
		if pass {
			reorth()
			b = linalg.Norm2(w)
			force = !force
		}
		coupling := b
		if b < 1e-10 {
			// Invariant subspace found. Restart from a random vector
			// orthogonal to the basis and record a zero coupling, so the
			// tridiagonal matrix splits into independent blocks.
			if len(basis) >= n {
				break
			}
			for i := range w {
				w[i] = rng.Normal()
			}
			reorth()
			if b = linalg.Norm2(w); b < 1e-10 {
				break
			}
			coupling, pass, force = 0, true, true
		}
		if pass {
			for i := 0; i < j; i++ {
				prev[i] = eps
			}
		}
		omega, prev = prev, omega
		beta = append(beta, coupling)
		for i := range v {
			v[i] = w[i] / b
		}
	}
	evs, err = linalg.SymTridiagonalEigenvalues(alpha, beta[:len(alpha)-1])
	if err != nil {
		return nil, passes, err
	}
	return evs[:min(k, len(evs))], passes, nil
}

// TopEigenvaluesPower computes the k largest eigenvalues by power iteration
// with Hotelling deflation: after each eigenpair (λ, v) converges, the
// operator is replaced by A − λ·v·vᵀ. It is O(k·iters·m) and degrades when
// eigenvalues cluster — precisely the regime the ablation bench exposes
// against Lanczos. Returns eigenvalues in the order found (descending in
// magnitude for PSD operators such as the Laplacian).
func TopEigenvaluesPower(op Operator, k, iters int, tol float64, rng *mathx.RNG) ([]float64, error) {
	n := op.Dim()
	if n == 0 {
		return nil, nil
	}
	if k <= 0 {
		return nil, ErrBadParam
	}
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = 300
	}
	if tol <= 0 {
		tol = 1e-10
	}
	var deflV [][]float64
	var deflL []float64
	values := make([]float64, 0, k)
	v := make([]float64, n)
	w := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := range v {
			v[i] = rng.Normal()
		}
		// Orthogonalize against found eigenvectors.
		for _, u := range deflV {
			c := linalg.Dot(v, u)
			linalg.Axpy(-c, u, v)
		}
		normalize(v)
		lambda := 0.0
		for it := 0; it < iters; it++ {
			op.Apply(w, v)
			// Deflate: w ← w − Σ λ_i (v_iᵀ v) v_i.
			for d, u := range deflV {
				c := linalg.Dot(v, u)
				if c != 0 {
					linalg.Axpy(-deflL[d]*c, u, w)
				}
			}
			nl := linalg.Norm2(w)
			if nl == 0 {
				break
			}
			for i := range w {
				w[i] /= nl
			}
			diff := 0.0
			for i := range w {
				d := math.Abs(w[i]) - math.Abs(v[i])
				diff += d * d
			}
			copy(v, w)
			if math.Sqrt(diff) < tol && it > 3 {
				lambda = nl
				break
			}
			lambda = nl
		}
		// Rayleigh quotient for a signed eigenvalue.
		op.Apply(w, v)
		for d, u := range deflV {
			c := linalg.Dot(v, u)
			if c != 0 {
				linalg.Axpy(-deflL[d]*c, u, w)
			}
		}
		lambda = linalg.Dot(w, v)
		values = append(values, lambda)
		deflV = append(deflV, append([]float64(nil), v...))
		deflL = append(deflL, lambda)
	}
	return values, nil
}

func normalize(v []float64) {
	n := linalg.Norm2(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
