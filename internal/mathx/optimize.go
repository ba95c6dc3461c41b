package mathx

import "math"

// MinimizeBrent minimizes a one-dimensional function f over [a, b] using
// Brent's method (golden-section with parabolic interpolation). It returns
// the minimizing x and f(x). tol is the absolute x tolerance; maxIter bounds
// the number of iterations (100 is plenty for the smooth likelihoods used
// here).
func MinimizeBrent(f func(float64) float64, a, b, tol float64, maxIter int) (xmin, fmin float64) {
	const golden = 0.3819660112501051 // 2 - phi
	if a > b {
		a, b = b, a
	}
	x := a + golden*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for i := 0; i < maxIter; i++ {
		m := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + 1e-12
		tol2 := 2 * tol1
		if math.Abs(x-m) <= tol2-0.5*(b-a) {
			break
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Fit a parabola through (v,fv), (w,fw), (x,fx).
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					if m-x >= 0 {
						d = tol1
					} else {
						d = -tol1
					}
				}
				useGolden = false
			}
		}
		if useGolden {
			if x < m {
				e = b - x
			} else {
				e = a - x
			}
			d = golden * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else if d >= 0 {
			u = x + tol1
		} else {
			u = x - tol1
		}
		fu := f(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, w = w, u
				fv, fw = fw, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, fx
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
