// Package spectral computes extremal eigenvalues of graph matrices without
// materializing them. The paper fits a power law to the largest Laplacian
// eigenvalues of the verified sub-graph (computed there "using the power
// iteration method in existing solvers"); we provide both a Lanczos solver
// with full reorthogonalization (the workhorse) and a power-iteration-with-
// deflation solver (the ablation baseline), on matrix-free operators for the
// symmetrized adjacency and Laplacian.
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

// AdjacencyOperator applies the symmetrized adjacency matrix of a digraph:
// A_sym[u][v] = 1 iff u→v or v→u. Symmetrization makes the spectrum real,
// matching how spectral analyses of directed social graphs are performed in
// practice (including the toolchains the paper used).
type AdjacencyOperator struct {
	und *graph.Digraph
}

// NewAdjacencyOperator builds the operator (materializes the undirected
// projection once).
func NewAdjacencyOperator(g *graph.Digraph) *AdjacencyOperator {
	return &AdjacencyOperator{und: g.Undirected()}
}

// Dim returns the number of nodes.
func (a *AdjacencyOperator) Dim() int { return a.und.NumNodes() }

// Apply computes dst = A_sym·src.
func (a *AdjacencyOperator) Apply(dst, src []float64) {
	for u := 0; u < a.und.NumNodes(); u++ {
		s := 0.0
		for _, v := range a.und.OutNeighbors(u) {
			s += src[v]
		}
		dst[u] = s
	}
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
// operator op using the Lanczos iteration with full reorthogonalization
// against all stored basis vectors (robust against the ghost-eigenvalue
// problem at the cost of O(n·iters) memory). iters controls the Krylov
// dimension; it is clamped to [2k+10, n]. Eigenvalues return in descending
// order; only Ritz values that have converged (residual heuristic via
// repetition) are trustworthy, so callers requesting k values should allow
// iters ≈ 3k for power-law-tailed spectra.
func TopEigenvaluesLanczos(op Operator, k, iters int, rng *mathx.RNG) ([]float64, error) {
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
	if iters < 2*k+10 {
		iters = 2*k + 10
	}
	if iters > n {
		iters = n
	}
	if iters < 1 {
		iters = 1
	}
	// Lanczos with full reorthogonalization.
	basis := make([][]float64, 0, iters)
	alpha := make([]float64, 0, iters)
	beta := make([]float64, 0, iters) // beta[j] couples v_j and v_{j+1}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal()
	}
	normalize(v)
	w := make([]float64, n)
	for j := 0; j < iters; j++ {
		basis = append(basis, append([]float64(nil), v...))
		op.Apply(w, v)
		a := linalg.Dot(w, v)
		alpha = append(alpha, a)
		// w ← w − a·v_j − b_{j-1}·v_{j-1}, then full reorthogonalization.
		linalg.Axpy(-a, v, w)
		if j > 0 {
			linalg.Axpy(-beta[j-1], basis[j-1], w)
		}
		for _, u := range basis {
			c := linalg.Dot(w, u)
			if c != 0 {
				linalg.Axpy(-c, u, w)
			}
		}
		b := linalg.Norm2(w)
		if b < 1e-10 {
			// Invariant subspace found. Restart with a random vector
			// orthogonal to the basis and record a zero coupling so
			// the tridiagonal matrix splits into independent blocks
			// (keeping a nonzero β here would fabricate spurious
			// coupling between the blocks).
			if len(basis) >= n {
				break
			}
			for i := range w {
				w[i] = rng.Normal()
			}
			for _, u := range basis {
				c := linalg.Dot(w, u)
				linalg.Axpy(-c, u, w)
			}
			b2 := linalg.Norm2(w)
			if b2 < 1e-10 {
				break
			}
			beta = append(beta, 0)
			for i := range v {
				v[i] = w[i] / b2
			}
			continue
		}
		beta = append(beta, b)
		for i := range v {
			v[i] = w[i] / b
		}
	}
	m := len(alpha)
	if m == 0 {
		return nil, nil
	}
	evs, err := linalg.SymTridiagonalEigenvalues(alpha, beta[:m-1])
	if err != nil {
		return nil, err
	}
	if k > len(evs) {
		k = len(evs)
	}
	return evs[:k], nil
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
