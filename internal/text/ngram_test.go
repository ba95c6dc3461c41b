package text

import (
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	toks := Tokenize("Official Twitter account of the New York Times.")
	want := []string{"official", "twitter", "account", "of", "the", "new", "york", "times"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens = %v", toks)
		}
	}
}

func TestTokenizeDropsURLsAndMentions(t *testing.T) {
	toks := Tokenize("Host of @show — watch https://example.com/live or www.example.org now")
	for _, tok := range toks {
		if strings.Contains(tok, "example") || strings.Contains(tok, "show") {
			t.Fatalf("URL/mention leaked: %v", toks)
		}
	}
}

func TestTokenizeHashtagsAndApostrophes(t *testing.T) {
	toks := Tokenize("#Journalist editor's picks")
	if toks[0] != "journalist" {
		t.Fatalf("hashtag handling: %v", toks)
	}
	found := false
	for _, tok := range toks {
		if tok == "editor's" {
			found = true
		}
	}
	if !found {
		t.Fatalf("apostrophe handling: %v", toks)
	}
}

func TestTokenizePunctuationSplit(t *testing.T) {
	toks := Tokenize("Singer/Songwriter, producer|mixer")
	want := map[string]bool{"singer": true, "songwriter": true, "producer": true, "mixer": true}
	if len(toks) != 4 {
		t.Fatalf("tokens = %v", toks)
	}
	for _, tok := range toks {
		if !want[tok] {
			t.Fatalf("unexpected token %q", tok)
		}
	}
}

func TestCounterBigrams(t *testing.T) {
	c := NewCounter(2)
	c.AddText("official twitter account")
	c.AddText("official twitter page")
	if c.Count("official", "twitter") != 2 {
		t.Fatalf("count = %d", c.Count("official", "twitter"))
	}
	if c.Count("twitter", "account") != 1 {
		t.Fatal("bigram missing")
	}
	if c.Count("account", "official") != 0 {
		t.Fatal("cross-document bigram should not exist")
	}
}

func TestCounterShortDocs(t *testing.T) {
	c := NewCounter(3)
	c.AddText("too short")
	if len(c.Top(10)) != 0 {
		t.Fatal("short docs should contribute nothing")
	}
}

func TestTopFiltersStopwordMajority(t *testing.T) {
	c := NewCounter(3)
	for i := 0; i < 10; i++ {
		c.AddText("editor in chief")    // 1/3 stopwords: keep
		c.AddText("one of the best")    // "of the" inside: the trigrams
		c.AddText("to be or not to be") // heavy stopwords: drop
	}
	top := c.Top(10)
	phrases := map[string]int{}
	for _, g := range top {
		phrases[g.Phrase()] = g.Count
	}
	if phrases["Editor In Chief"] != 10 {
		t.Fatalf("Editor In Chief missing: %v", phrases)
	}
	for p := range phrases {
		lower := strings.ToLower(p)
		if strings.Contains(lower, "to be or") || lower == "of the best" {
			t.Fatalf("stopword-heavy phrase survived: %q", p)
		}
	}
}

func TestTopOrderingDeterministic(t *testing.T) {
	c := NewCounter(1)
	c.AddText("alpha beta beta gamma gamma")
	top := c.Top(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Count != 2 || top[1].Count != 2 || top[2].Count != 1 {
		t.Fatalf("counts = %v", top)
	}
	// Tie broken lexicographically: beta before gamma.
	if top[0].Phrase() != "Beta" || top[1].Phrase() != "Gamma" {
		t.Fatalf("tie order = %v, %v", top[0].Phrase(), top[1].Phrase())
	}
}

func TestTopDropsSingleRuneTokens(t *testing.T) {
	c := NewCounter(1)
	for i := 0; i < 5; i++ {
		c.AddText("x factor")
	}
	for _, g := range c.Top(10) {
		if g.Phrase() == "X" {
			t.Fatal("single-rune token should be filtered")
		}
	}
}

func TestPhraseTitleCase(t *testing.T) {
	g := NGram{Tokens: []string{"official", "twitter", "account"}}
	if g.Phrase() != "Official Twitter Account" {
		t.Fatalf("Phrase = %q", g.Phrase())
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || IsStopword("official") {
		t.Fatal("stopword classification wrong")
	}
}

func TestBuildCloudWeights(t *testing.T) {
	grams := []NGram{
		{Tokens: []string{"journalist"}, Count: 100},
		{Tokens: []string{"producer"}, Count: 25},
	}
	cloud := BuildCloud(grams)
	if cloud[0].Weight != 1 {
		t.Fatalf("top weight = %v", cloud[0].Weight)
	}
	if cloud[1].Weight != 0.5 { // sqrt(25/100)
		t.Fatalf("second weight = %v", cloud[1].Weight)
	}
	if BuildCloud(nil) != nil {
		t.Fatal("empty cloud")
	}
}

func TestRenderASCII(t *testing.T) {
	grams := []NGram{
		{Tokens: []string{"journalist"}, Count: 100},
		{Tokens: []string{"producer"}, Count: 50},
		{Tokens: []string{"author"}, Count: 10},
		{Tokens: []string{"founder"}, Count: 2},
	}
	out := RenderASCII(BuildCloud(grams), 60)
	if !strings.Contains(out, "JOURNALIST") {
		t.Fatalf("dominant word not emphasized:\n%s", out)
	}
	if !strings.Contains(out, "Founder") {
		t.Fatalf("small word missing:\n%s", out)
	}
	// Lines respect the width roughly (allow decoration slack).
	for _, line := range strings.Split(out, "\n") {
		if len([]rune(line)) > 80 {
			t.Fatalf("line too long: %q", line)
		}
	}
}
