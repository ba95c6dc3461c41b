package features

import (
	"fmt"
	"math"
	"sync"

	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/twitter"
)

// Scorer classes. ClassElite is the celebrity-sink shape (heavily followed,
// follows almost nobody), ClassBot the inverse (follows aggressively, no
// audience), ClassRegular everything else.
const (
	// ClassElite is the celebrity/elite account shape.
	ClassElite = iota
	// ClassBot is the bot-like account shape.
	ClassBot
	// ClassRegular is every other account.
	ClassRegular
	// NumClasses is the number of scorer classes.
	NumClasses
)

// classNames maps classes to their JSON names, in class order.
var classNames = [NumClasses]string{"elite", "bot", "regular"}

// ClassName returns the JSON/doc name of a scorer class ("elite", "bot",
// "regular").
func ClassName(c int) string { return classNames[c] }

// trainSeeds is the fixed seed schedule the default scorer trains on; a
// disjoint seed (holdoutSeed) generates the held-out graph the AUC sanity
// test scores. Changing the schedule changes the shipped weights, so the
// scorer determinism tests pin Train's output bit-for-bit instead.
var trainSeeds = [...]uint64{11, 12, 13}

const (
	trainNodes    = 1500
	trainBots     = 100
	trainEpochs   = 300
	trainRate     = 0.5
	trainL2       = 1e-4
	holdoutSeed   = 99
	trainBetwSrcs = 64
)

// Scorer is a multinomial logistic classifier over transformed feature
// rows. W holds NumClasses weight rows of NumFeatures+1 entries each
// (bias last), row-major.
type Scorer struct {
	// W is the weight matrix, NumClasses×(NumFeatures+1) row-major with
	// the bias in the last column.
	W []float64
}

// transform maps one raw feature row into the scorer's input space:
// degrees are log1p-compressed, the ratio is NaN→0 and clamped before
// log1p (celebrity sinks divide by zero), percentiles/indicators pass
// through. z must have NumFeatures entries.
func transform(row, z []float64) {
	z[FeatOutDegree] = math.Log1p(row[FeatOutDegree])
	z[FeatInDegree] = math.Log1p(row[FeatInDegree])
	r := row[FeatRatio]
	switch {
	case math.IsNaN(r):
		r = 0
	case r > 1e12:
		r = 1e12 // +Inf and absurd ratios saturate instead of poisoning the dot product
	}
	z[FeatRatio] = math.Log1p(r)
	z[FeatMutualCore] = row[FeatMutualCore]
	z[FeatBetweennessPct] = row[FeatBetweennessPct]
	z[FeatEigenPct] = row[FeatEigenPct]
	z[FeatClustering] = row[FeatClustering]
	z[FeatTail] = row[FeatTail]
}

// logits fills out[c] with the linear score of each class for an
// already-transformed row z.
func (s *Scorer) logits(z, out []float64) {
	const w = NumFeatures + 1
	for c := 0; c < NumClasses; c++ {
		wc := s.W[c*w : (c+1)*w]
		v := wc[NumFeatures] // bias
		for j := 0; j < NumFeatures; j++ {
			v += wc[j] * z[j]
		}
		out[c] = v
	}
}

// Score classifies one raw feature row: probs (length NumClasses) receives
// the softmax class probabilities and the returned class is the argmax
// (lowest index wins ties). The softmax subtracts the max logit first, so
// probabilities stay finite for any input row.
func (s *Scorer) Score(row []float64, probs []float64) int {
	var z [NumFeatures]float64
	transform(row, z[:])
	s.logits(z[:], probs)
	maxv := probs[0]
	for _, v := range probs[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for c := range probs {
		probs[c] = math.Exp(probs[c] - maxv)
		sum += probs[c]
	}
	best := 0
	for c := range probs {
		probs[c] /= sum
		if probs[c] > probs[best] {
			best = c
		}
	}
	return best
}

// trainingGraph builds one labeled training graph: an elitegen verified
// network (celebrity sinks = elite labels) with trainBots injected
// bot-shaped nodes — each follows many drawn targets and is followed by
// nobody. The graph and labels are pure functions of the seed.
func trainingGraph(seed uint64) (*twitter.Dataset, []uint8, error) {
	cfg := gen.VerifiedDefaults(trainNodes)
	cfg.Seed = seed
	cfg.CelebrityFraction = 0.02 // enough elite examples at this scale
	cfg.IsolatedFraction = 0.01
	res, err := gen.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("features: training config invalid: %w", err)
	}
	g := res.Graph
	n := g.NumNodes()
	b := graph.NewBuilder(n + trainBots)
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			b.AddEdge(u, int(v))
		}
	}
	rng := mathx.NewRNG(seed).Derive("features/train/bots")
	for i := 0; i < trainBots; i++ {
		u := n + i
		k := 60 + rng.Intn(120)
		for j := 0; j < k; j++ {
			b.AddEdge(u, rng.Intn(n))
		}
	}
	labels := make([]uint8, n+trainBots)
	for u := 0; u < n; u++ {
		if res.Roles[u] == gen.RoleCelebritySink {
			labels[u] = ClassElite
		} else {
			labels[u] = ClassRegular
		}
	}
	for i := 0; i < trainBots; i++ {
		labels[n+i] = ClassBot
	}
	// No Profiles: FeatRatio falls back to in-degree/out-degree, exactly
	// what a served dataset without profile metadata sees.
	return &twitter.Dataset{Graph: b.Build()}, labels, nil
}

// Train fits the scorer on the fixed seed schedule with full-batch gradient
// descent. The result is bit-identical for any workers value: the worker
// budget only reaches the feature computation, which is itself invariant,
// and the descent loop is serial with samples visited in node order.
func Train(workers int) (*Scorer, error) {
	type sample struct {
		z     [NumFeatures]float64
		label uint8
	}
	var samples []sample
	for _, seed := range trainSeeds {
		ds, labels, err := trainingGraph(seed)
		if err != nil {
			return nil, err
		}
		m := computeWith(ds, Options{
			Seed:               seed,
			BetweennessSources: trainBetwSrcs,
			Parallelism:        workers,
		}, nil, newInputs(ds.Graph, workers))
		for u := 0; u < m.N; u++ {
			var s sample
			transform(m.Row(u), s.z[:])
			s.label = labels[u]
			samples = append(samples, s)
		}
	}

	const w = NumFeatures + 1
	sc := &Scorer{W: make([]float64, NumClasses*w)}
	grad := make([]float64, NumClasses*w)
	var p [NumClasses]float64
	inv := 1.0 / float64(len(samples))
	for epoch := 0; epoch < trainEpochs; epoch++ {
		for i := range grad {
			grad[i] = 0
		}
		for i := range samples {
			s := &samples[i]
			sc.logits(s.z[:], p[:])
			maxv := p[0]
			for _, v := range p[1:] {
				if v > maxv {
					maxv = v
				}
			}
			sum := 0.0
			for c := range p {
				p[c] = math.Exp(p[c] - maxv)
				sum += p[c]
			}
			for c := 0; c < NumClasses; c++ {
				d := p[c]/sum - b2f(uint8(c) == s.label)
				gc := grad[c*w : (c+1)*w]
				for j := 0; j < NumFeatures; j++ {
					gc[j] += d * s.z[j]
				}
				gc[NumFeatures] += d
			}
		}
		for i := range sc.W {
			sc.W[i] -= trainRate * (grad[i]*inv + trainL2*sc.W[i])
		}
	}
	return sc, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var (
	defaultScorerOnce sync.Once
	defaultScorer     *Scorer
	defaultScorerErr  error
)

// DefaultScorer returns the process-wide scorer trained once on the fixed
// seed schedule (Train(0)). Every caller shares the same weights, so
// reports scored in different processes agree bit-for-bit. Training
// failures (an invalid built-in config) are memoized too: every caller
// sees the same error rather than a panic.
func DefaultScorer() (*Scorer, error) {
	defaultScorerOnce.Do(func() { defaultScorer, defaultScorerErr = Train(0) })
	return defaultScorer, defaultScorerErr
}
