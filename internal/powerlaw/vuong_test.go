package powerlaw

import (
	"math"
	"testing"

	"elites/internal/mathx"
)

func TestVuongFavoursPowerLawOnParetoData(t *testing.T) {
	rng := mathx.NewRNG(1)
	data := make([]int, 8000)
	for i := range data {
		data[i] = rng.ParetoInt(5, 2.8)
	}
	fit, err := FitDiscrete(data, &Options{FixedXmin: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []Alternative{AltLognormal, AltExponential, AltPoisson} {
		res, err := fit.compareAlternative(fit.tailView(), alt)
		if err != nil {
			t.Fatalf("%v: %v", alt, err)
		}
		// Exponential and Poisson should lose decisively; lognormal is
		// famously hard to distinguish from a power law, so only
		// require that it does not *significantly* beat the truth.
		if alt == AltLognormal {
			if res.Favours() == -1 {
				t.Errorf("lognormal significantly favoured on true power-law data (stat %.2f p %.3f)",
					res.Statistic, res.PValue)
			}
			continue
		}
		if res.LogLikRatio <= 0 {
			t.Errorf("%v: LLR = %v, want positive (favouring power law)", alt, res.LogLikRatio)
		}
		if res.Favours() != 1 {
			t.Errorf("%v: Favours() = %d (stat %.2f p %.3f), want 1",
				alt, res.Favours(), res.Statistic, res.PValue)
		}
	}
}

func TestVuongFavoursLognormalOnLognormalData(t *testing.T) {
	rng := mathx.NewRNG(2)
	data := make([]float64, 8000)
	for i := range data {
		data[i] = rng.LogNormal(2, 0.5)
	}
	fit, err := FitContinuous(data, &Options{FixedXmin: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fit.compareAlternative(fit.tailView(), AltLognormal)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogLikRatio >= 0 {
		t.Errorf("LLR = %v on lognormal data, want negative", res.LogLikRatio)
	}
	if res.Favours() != -1 {
		t.Errorf("Favours() = %d, want -1 (lognormal)", res.Favours())
	}
}

func TestVuongExponentialParamRecovery(t *testing.T) {
	// Shifted exponential data: λ should be recovered by the truncated
	// exponential MLE inside the comparison.
	rng := mathx.NewRNG(3)
	lambda := 0.4
	xmin := 10.0
	data := make([]float64, 6000)
	for i := range data {
		data[i] = xmin + rng.Exponential(lambda)
	}
	fit, err := FitContinuous(data, &Options{FixedXmin: xmin})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fit.compareAlternative(fit.tailView(), AltExponential)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AltParams[0]-lambda) > 0.03 {
		t.Errorf("λ = %v, want %v", res.AltParams[0], lambda)
	}
	if res.Favours() != -1 {
		t.Errorf("exponential data should favour exponential, got %d", res.Favours())
	}
}

func TestPoissonRequiresDiscrete(t *testing.T) {
	rng := mathx.NewRNG(4)
	data := make([]float64, 1000)
	for i := range data {
		data[i] = rng.Pareto(1, 3)
	}
	fit, _ := FitContinuous(data, &Options{FixedXmin: 1})
	if _, err := fit.compareAlternative(fit.tailView(), AltPoisson); err == nil {
		t.Fatal("poisson on continuous data should error")
	}
}

func TestCompareAllReturnsResults(t *testing.T) {
	rng := mathx.NewRNG(5)
	data := make([]int, 4000)
	for i := range data {
		data[i] = rng.ParetoInt(2, 2.5)
	}
	fit, _ := FitDiscrete(data, &Options{FixedXmin: 2})
	results := fit.CompareAll()
	if len(results) != 3 {
		t.Fatalf("CompareAll returned %d results, want 3", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Alternative.String()] = true
	}
	if !names["lognormal"] || !names["exponential"] || !names["poisson"] {
		t.Fatalf("alternatives covered: %v", names)
	}
}

func TestAlternativeString(t *testing.T) {
	if AltLognormal.String() != "lognormal" ||
		AltExponential.String() != "exponential" ||
		AltPoisson.String() != "poisson" {
		t.Fatal("String names wrong")
	}
	if Alternative(99).String() == "" {
		t.Fatal("unknown alternative should still render")
	}
}
