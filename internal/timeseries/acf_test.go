package timeseries

import (
	"math"
	"testing"

	"elites/internal/mathx"
)

func TestACFWhiteNoiseSmall(t *testing.T) {
	rng := mathx.NewRNG(1)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.Normal()
	}
	rho, err := ACF(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	bound := 4 / math.Sqrt(float64(len(x)))
	for k, r := range rho {
		if math.Abs(r) > bound {
			t.Fatalf("white noise ACF lag %d = %v exceeds %v", k+1, r, bound)
		}
	}
}

func TestACFAR1(t *testing.T) {
	// AR(1) with φ=0.7: ρ_k ≈ 0.7^k.
	rng := mathx.NewRNG(2)
	n := 200000
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.7*x[i-1] + rng.Normal()
	}
	rho, err := ACF(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		want := math.Pow(0.7, float64(k))
		if math.Abs(rho[k-1]-want) > 0.02 {
			t.Fatalf("AR1 ACF lag %d = %v, want ~%v", k, rho[k-1], want)
		}
	}
}

func TestACFPeriodicSignal(t *testing.T) {
	// Strong weekly seasonality: lag-7 autocorrelation should dominate.
	rng := mathx.NewRNG(3)
	n := 366
	x := make([]float64, n)
	for i := range x {
		x[i] = 10
		if i%7 == 0 {
			x[i] = 5 // "Sunday" dip
		}
		x[i] += 0.1 * rng.Normal()
	}
	rho, _ := ACF(x, 10)
	if rho[6] < 0.5 {
		t.Fatalf("lag-7 ACF = %v, want strong", rho[6])
	}
	if rho[6] < rho[2] {
		t.Fatalf("lag-7 (%v) should exceed lag-3 (%v)", rho[6], rho[2])
	}
}

func TestACFErrors(t *testing.T) {
	if _, err := ACF([]float64{1}, 3); err != ErrShortSeries {
		t.Fatal("short series should error")
	}
	// Constant series: zero ACF, not NaN.
	rho, err := ACF([]float64{2, 2, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rho {
		if r != 0 {
			t.Fatalf("constant series ACF = %v", rho)
		}
	}
}

func TestLjungBoxWhiteNoiseUniformP(t *testing.T) {
	// Under the null, Ljung–Box p at a fixed horizon is ~Uniform(0,1);
	// rejection rate at 5% should be near 5%.
	rng := mathx.NewRNG(4)
	const trials = 200
	reject := 0
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 300)
		for i := range x {
			x[i] = rng.Normal()
		}
		res, err := LjungBox(x, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res[9].PValue < 0.05 {
			reject++
		}
	}
	if reject < 2 || reject > 25 {
		t.Fatalf("LB rejected %d/%d at 5%%, want ≈10", reject, trials)
	}
}

func TestLjungBoxDetectsSeasonality(t *testing.T) {
	// Weekly dips plus a slow seasonal wave — the structure of real
	// activity series, which carry strong correlation at *every* horizon
	// (isolated weekly dips alone leave the lag-1 statistic weak).
	rng := mathx.NewRNG(5)
	n := 366
	x := make([]float64, n)
	for i := range x {
		x[i] = 100 + 30*math.Sin(float64(i)/30)
		if i%7 == 0 {
			x[i] -= 40
		}
		x[i] += rng.Normal()
	}
	lb, err := LjungBox(x, 185)
	if err != nil {
		t.Fatal(err)
	}
	maxP := MaxPValue(lb)
	// The paper reports max p ≈ 3.8e-38 on its series; require decisive
	// rejection here too.
	if maxP > 1e-10 {
		t.Fatalf("max Ljung–Box p = %v, want < 1e-10", maxP)
	}
	bp, err := BoxPierce(x, 185)
	if err != nil {
		t.Fatal(err)
	}
	if MaxPValue(bp) > 1e-10 {
		t.Fatalf("max Box–Pierce p = %v", MaxPValue(bp))
	}
}

func TestBoxPierceLessPowerfulThanLjungBox(t *testing.T) {
	// LB inflates small-sample statistics: Q_LB >= Q_BP for the same data.
	rng := mathx.NewRNG(6)
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.Normal() + math.Sin(float64(i)/3)
	}
	lb, _ := LjungBox(x, 20)
	bp, _ := BoxPierce(x, 20)
	for k := range lb {
		if lb[k].Statistic < bp[k].Statistic {
			t.Fatalf("lag %d: LB %v < BP %v", k+1, lb[k].Statistic, bp[k].Statistic)
		}
	}
}

func TestDifference(t *testing.T) {
	d := Difference([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("diff = %v", d)
		}
	}
	if Difference([]float64{1}) != nil {
		t.Fatal("short diff should be nil")
	}
}
