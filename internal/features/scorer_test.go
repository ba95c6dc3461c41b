package features

import (
	"math"
	"sort"
	"testing"
)

// TestScorerTrainDeterministic pins the training run bit-for-bit: the same
// weights regardless of how many times we train or how many workers the
// feature passes underneath use. This is the whole reason DefaultScorer can
// bake its weights into cached shards — any drift here silently invalidates
// every warm cache in the fleet.
func TestScorerTrainDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs the feature pipeline on three generated graphs")
	}
	base, err := Train(1)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	again, err := Train(1)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	wide, err := Train(7)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if len(base.W) != NumClasses*(NumFeatures+1) {
		t.Fatalf("weight shape: %d", len(base.W))
	}
	for i := range base.W {
		if math.Float64bits(base.W[i]) != math.Float64bits(again.W[i]) {
			t.Fatalf("W[%d] differs across identical runs: %v vs %v", i, base.W[i], again.W[i])
		}
		if math.Float64bits(base.W[i]) != math.Float64bits(wide.W[i]) {
			t.Fatalf("W[%d] differs across worker budgets: %v (w=1) vs %v (w=7)", i, base.W[i], wide.W[i])
		}
	}
}

// TestScorerHoldoutAUC scores a held-out generated graph (a seed the trainer
// never saw) and checks the elite and bot one-vs-rest AUCs clear a generous
// floor. This is not a model-quality benchmark — it guards against silent
// feature-column reordering or a transform bug, either of which craters AUC
// to ~0.5 while leaving training "successful".
func TestScorerHoldoutAUC(t *testing.T) {
	if testing.Short() {
		t.Skip("holdout scoring runs the feature pipeline")
	}
	sc, err := DefaultScorer()
	if err != nil {
		t.Fatalf("default scorer: %v", err)
	}
	ds, labels, terr := trainingGraph(holdoutSeed)
	if terr != nil {
		t.Fatalf("training graph: %v", terr)
	}
	m := computeWith(ds, Options{BetweennessSources: trainBetwSrcs, Seed: holdoutSeed}, nil, newInputs(ds.Graph, 0))

	probs := make([]float64, NumClasses)
	scores := make([][NumClasses]float64, m.N)
	for u := 0; u < m.N; u++ {
		sc.Score(m.Row(u), probs)
		copy(scores[u][:], probs)
	}

	for _, class := range []int{ClassElite, ClassBot} {
		auc := oneVsRestAUC(scores, labels, class)
		t.Logf("%s AUC on holdout seed %d: %.4f", ClassName(class), holdoutSeed, auc)
		if auc < 0.80 {
			t.Errorf("%s AUC %.4f below floor 0.80", ClassName(class), auc)
		}
	}
}

// oneVsRestAUC is the rank-statistic AUC of p(class) against the binary
// label "is this class", with mid-rank tie handling.
func oneVsRestAUC(scores [][NumClasses]float64, labels []uint8, class int) float64 {
	type pair struct {
		p   float64
		pos bool
	}
	ps := make([]pair, len(labels))
	npos := 0
	for u := range labels {
		ps[u] = pair{scores[u][class], int(labels[u]) == class}
		if ps[u].pos {
			npos++
		}
	}
	nneg := len(ps) - npos
	if npos == 0 || nneg == 0 {
		return math.NaN()
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].p < ps[j].p })
	// Sum positive mid-ranks over tie groups.
	var rankSum float64
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].p == ps[i].p {
			j++
		}
		mid := float64(i+j+1) / 2 // average 1-based rank of the tie group
		for k := i; k < j; k++ {
			if ps[k].pos {
				rankSum += mid
			}
		}
		i = j
	}
	return (rankSum - float64(npos)*float64(npos+1)/2) / (float64(npos) * float64(nneg))
}

// TestScorerScoreStable pins the decision function itself: identical rows
// give identical probabilities, and the returned class is the argmax with
// lowest-index tie-breaking.
func TestScorerScoreStable(t *testing.T) {
	sc, err := DefaultScorer()
	if err != nil {
		t.Fatalf("default scorer: %v", err)
	}
	row := make([]float64, NumFeatures)
	row[FeatOutDegree] = 120
	row[FeatInDegree] = 3400
	row[FeatRatio] = 28.3
	row[FeatMutualCore] = 1
	row[FeatBetweennessPct] = 0.97
	row[FeatEigenPct] = 0.99
	row[FeatClustering] = 0.12
	row[FeatTail] = 1

	a := make([]float64, NumClasses)
	b := make([]float64, NumClasses)
	ca := sc.Score(row, a)
	cb := sc.Score(row, b)
	if ca != cb {
		t.Fatalf("class differs across calls: %d vs %d", ca, cb)
	}
	var sum float64
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("probs[%d] differs across calls", i)
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("probs[%d]=%v outside [0,1]", i, a[i])
		}
		sum += a[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %v", sum)
	}
	for i := range a {
		if a[i] > a[ca] {
			t.Fatalf("class %d is not the argmax (probs %v)", ca, a)
		}
	}

	// NaN / Inf ratio inputs must not poison the probabilities.
	row[FeatRatio] = math.NaN()
	if c := sc.Score(row, a); c < 0 || c >= NumClasses || math.IsNaN(a[c]) {
		t.Fatalf("NaN ratio: class %d probs %v", c, a)
	}
	row[FeatRatio] = math.Inf(1)
	if c := sc.Score(row, a); c < 0 || c >= NumClasses || math.IsNaN(a[c]) {
		t.Fatalf("+Inf ratio: class %d probs %v", c, a)
	}
}
