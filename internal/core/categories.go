package core

import (
	"fmt"
	"io"
	"sort"

	"elites/internal/centrality"
	"elites/internal/graph"
	"elites/internal/text"
	"elites/internal/twitter"
)

// CategoryStat summarizes one verified-user archetype — the "User
// Categorization" axis the paper indexes under. It quantifies which
// occupations dominate the verified population (journalism, per §IV-E),
// who commands the audience, and how topically closed each group's follow
// structure is (TwitterRank-style affinity).
type CategoryStat struct {
	Category twitter.Category
	Count    int
	Share    float64
	// MeanFollowers / MeanListed are audience averages.
	MeanFollowers float64
	MeanListed    float64
	// PageRankShare is the fraction of global PageRank mass held by the
	// category.
	PageRankShare float64
	// Affinity is the topic-sensitive PageRank self-mass: how much of the
	// category-personalized rank stays within the category.
	Affinity float64
	// DistinctiveTerms are the bio terms most characteristic of the
	// category (tf·idf over categories).
	DistinctiveTerms []text.DistinctiveTerm
}

// CategoryAnalysis holds per-archetype statistics, sorted by Count.
type CategoryAnalysis struct {
	Stats []CategoryStat
}

// AnalyzeCategories computes the per-category table for a dataset.
func AnalyzeCategories(ds *twitter.Dataset) (*CategoryAnalysis, error) {
	if ds == nil || ds.Graph == nil || len(ds.Profiles) == 0 {
		return nil, ErrNoData
	}
	pr, err := centrality.PageRank(ds.Graph, nil)
	if err != nil {
		return nil, err
	}
	return analyzeCategories(ds, pr)
}

// analyzeCategories is AnalyzeCategories over a precomputed default-options
// PageRank vector of ds.Graph.
func analyzeCategories(ds *twitter.Dataset, pr []float64) (*CategoryAnalysis, error) {
	g := ds.Graph
	// Topic labels = categories.
	nTopics := 0
	topicOf := make([]int, len(ds.Profiles))
	for i, p := range ds.Profiles {
		topicOf[i] = int(p.Category)
		if int(p.Category)+1 > nTopics {
			nTopics = int(p.Category) + 1
		}
	}
	tr, err := centrality.TopicSensitivePageRank(g, topicOf, nTopics, nil)
	if err != nil {
		return nil, err
	}
	// Distinctive bio terms per category.
	groups := make(map[string][]string)
	for _, p := range ds.Profiles {
		groups[p.Category.String()] = append(groups[p.Category.String()], p.Bio)
	}
	distinct := text.DistinctiveTerms(groups, 5)

	type acc struct {
		count             int
		followers, listed float64
		prMass            float64
	}
	accs := make(map[twitter.Category]*acc)
	for i, p := range ds.Profiles {
		a := accs[p.Category]
		if a == nil {
			a = &acc{}
			accs[p.Category] = a
		}
		a.count++
		a.followers += float64(p.Followers)
		a.listed += float64(p.Listed)
		a.prMass += pr[i]
	}
	out := &CategoryAnalysis{}
	for cat, a := range accs {
		cs := CategoryStat{
			Category:         cat,
			Count:            a.count,
			Share:            float64(a.count) / float64(len(ds.Profiles)),
			MeanFollowers:    a.followers / float64(a.count),
			MeanListed:       a.listed / float64(a.count),
			PageRankShare:    a.prMass,
			Affinity:         tr.TopicAffinity(int(cat), topicOf),
			DistinctiveTerms: distinct[cat.String()],
		}
		out.Stats = append(out.Stats, cs)
	}
	// Stats are collected in map order; break count ties by category id so
	// the table is a pure function of the dataset (the determinism contract
	// extends to rendered bytes — warm cache runs and CI byte-compare them).
	sort.Slice(out.Stats, func(i, j int) bool {
		if out.Stats[i].Count != out.Stats[j].Count {
			return out.Stats[i].Count > out.Stats[j].Count
		}
		return out.Stats[i].Category < out.Stats[j].Category
	})
	return out, nil
}

// Render writes the category table.
func (c *CategoryAnalysis) Render(w io.Writer) {
	fmt.Fprintf(w, "%-14s %7s %7s %13s %10s %9s  %s\n",
		"category", "count", "share", "mean-followers", "pr-share", "affinity", "distinctive terms")
	for _, s := range c.Stats {
		terms := ""
		for i, t := range s.DistinctiveTerms {
			if i >= 3 {
				break
			}
			if i > 0 {
				terms += ", "
			}
			terms += t.Term
		}
		fmt.Fprintf(w, "%-14s %7d %6.1f%% %13.0f %9.3f %9.3f  %s\n",
			s.Category, s.Count, 100*s.Share, s.MeanFollowers,
			s.PageRankShare, s.Affinity, terms)
	}
}

// MutualCoreAnalysis is the §IV-C conjecture validation the paper leaves to
// future work: reciprocity inside versus outside the network's dense core.
type MutualCoreAnalysis struct {
	// CoreK is the core-number threshold used (half the degeneracy).
	CoreK int
	// Degeneracy is the maximum core number.
	Degeneracy int
	// CoreNodes is the number of nodes at or above CoreK.
	CoreNodes int
	// CoreReciprocity / PeripheryReciprocity split edge reciprocity by
	// whether both endpoints sit in the core.
	CoreReciprocity      float64
	PeripheryReciprocity float64
	// RichClub is the normalized rich-club curve; values > 1 at high k
	// mean the elite interconnects preferentially.
	RichClub []graph.RichClubPoint
	// MutualEdgeShare is the fraction of edges that are reciprocated
	// (equals Reciprocity; kept for the report).
	MutualEdgeShare float64
}

// AnalyzeMutualCore validates the §IV-C conjecture on a graph.
func AnalyzeMutualCore(g *graph.Digraph) *MutualCoreAnalysis {
	und := g.Undirected()
	return analyzeMutualCore(g, und, graph.KCores(und))
}

// analyzeMutualCore is AnalyzeMutualCore over g's precomputed undirected
// projection and its k-core decomposition.
func analyzeMutualCore(g, und *graph.Digraph, cores *graph.KCoreResult) *MutualCoreAnalysis {
	k := cores.MaxCore / 2
	if k < 1 {
		k = 1
	}
	coreR, perR := graph.CoreReciprocity(g, cores, k)
	coreNodes := 0
	for _, c := range cores.Core {
		if c >= k {
			coreNodes++
		}
	}
	return &MutualCoreAnalysis{
		CoreK:                k,
		Degeneracy:           cores.MaxCore,
		CoreNodes:            coreNodes,
		CoreReciprocity:      coreR,
		PeripheryReciprocity: perR,
		RichClub:             graph.RichClub(und, 10),
		MutualEdgeShare:      graph.Reciprocity(g),
	}
}

// ConjectureHolds reports whether core edges reciprocate more than
// periphery edges — the paper's §IV-C assertion.
func (m *MutualCoreAnalysis) ConjectureHolds() bool {
	return m.CoreReciprocity > m.PeripheryReciprocity
}

// Render writes the §IV-C validation summary.
func (m *MutualCoreAnalysis) Render(w io.Writer) {
	fmt.Fprintf(w, "degeneracy (max core):      %d\n", m.Degeneracy)
	fmt.Fprintf(w, "core threshold k:           %d (%d nodes)\n", m.CoreK, m.CoreNodes)
	fmt.Fprintf(w, "core-edge reciprocity:      %.3f\n", m.CoreReciprocity)
	fmt.Fprintf(w, "periphery-edge reciprocity: %.3f\n", m.PeripheryReciprocity)
	fmt.Fprintf(w, "conjecture (core > periphery): %v\n", m.ConjectureHolds())
	if len(m.RichClub) > 0 {
		fmt.Fprintf(w, "rich-club φ_norm by degree threshold:\n")
		for _, p := range m.RichClub {
			fmt.Fprintf(w, "  k>%-6d n=%-7d φ=%.4f  φ/φ_rand=%.2f\n", p.K, p.N, p.Phi, p.PhiNorm)
		}
	}
}
