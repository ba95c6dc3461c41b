package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"elites/internal/core"
	"elites/internal/graph"
	"elites/internal/twitter"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestUserFeaturesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/v1/datasets/demo/users/1/features")
	if code != http.StatusOK {
		t.Fatalf("features: %d %s", code, body)
	}
	var view struct {
		Rank     int `json:"rank"`
		Node     int `json:"node"`
		Features struct {
			OutDegree *float64 `json:"out_degree"`
			BetwPct   *float64 `json:"betweenness_pct"`
		} `json:"features"`
		Score struct {
			Class string `json:"class"`
		} `json:"score"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if view.Rank != 1 || view.Features.OutDegree == nil || *view.Features.OutDegree < 1 {
		t.Fatalf("rank-1 row: %s", body)
	}
	if view.Score.Class == "" {
		t.Fatalf("missing scorer verdict: %s", body)
	}

	// The second request must come from the body memo, not a second run.
	runsBefore, _, _ := s.met.counters()
	_, again := get(t, ts, "/v1/datasets/demo/users/1/features")
	if !bytes.Equal(body, again) {
		t.Fatal("repeat request body differs")
	}
	if runsAfter, _, _ := s.met.counters(); runsAfter != runsBefore {
		t.Fatalf("repeat request ran the pipeline (%d -> %d)", runsBefore, runsAfter)
	}

	if code, _ := get(t, ts, "/v1/datasets/demo/users/0/features"); code != http.StatusBadRequest {
		t.Fatalf("rank 0: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/users/99999999/features"); code != http.StatusNotFound {
		t.Fatalf("rank out of range: %d", code)
	}
}

// TestUsersBatchGoldenBytes pins the batch body byte-identical across a cold
// run, a warm repeat, and a second server instance sharing the cache
// directory — and asserts the second instance answered from precomputed
// shards without a single pipeline run.
func TestUsersBatchGoldenBytes(t *testing.T) {
	ds, activity := testFixtures(t)
	dir := t.TempDir()
	opts := fastServeOptions()
	opts.CacheDir = dir

	srvA := New(Config{Options: opts})
	if err := srvA.RegisterDataset("demo", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	defer tsA.Close()

	const reqBody = `{"ranks":[1,2,3]}`
	code, cold := postJSON(t, tsA, "/v1/datasets/demo/users:batch", reqBody)
	if code != http.StatusOK {
		t.Fatalf("cold batch: %d %s", code, cold)
	}
	code, warm := postJSON(t, tsA, "/v1/datasets/demo/users:batch", reqBody)
	if code != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Fatalf("warm batch diverged (code %d)", code)
	}

	// A fresh server process over the same cache directory must serve the
	// identical bytes from shards alone: zero pipeline runs.
	srvB := New(Config{Options: opts})
	if err := srvB.RegisterDataset("demo", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	code, fresh := postJSON(t, tsB, "/v1/datasets/demo/users:batch", reqBody)
	if code != http.StatusOK {
		t.Fatalf("shard-tier batch: %d %s", code, fresh)
	}
	if !bytes.Equal(cold, fresh) {
		t.Fatalf("shard-tier body diverged:\ncold: %s\nfresh: %s", cold, fresh)
	}
	if runs, _, _ := srvB.met.counters(); runs != 0 {
		t.Fatalf("second instance ran the pipeline %d times", runs)
	}
	if hits := srvB.met.featureShardHits(); hits == 0 {
		t.Fatal("second instance did not count a shard hit")
	}

	// The single-user endpoint rides the same shards.
	if code, _ := get(t, tsB, "/v1/datasets/demo/users/2/features"); code != http.StatusOK {
		t.Fatalf("single-user over shards: %d", code)
	}
	if runs, _, _ := srvB.met.counters(); runs != 0 {
		t.Fatal("single-user request over shards ran the pipeline")
	}
}

func TestUsersBatchValidationAndOrder(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, bad := range []string{``, `{}`, `{"ranks":[]}`, `{"ranks":[0]}`, `{"ranks":[99999999]}`, `not json`} {
		if code, _ := postJSON(t, ts, "/v1/datasets/demo/users:batch", bad); code != http.StatusBadRequest {
			t.Fatalf("body %q: want 400, got %d", bad, code)
		}
	}
	if code, _ := postJSON(t, ts, "/v1/datasets/nope/users:batch", `{"ranks":[1]}`); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d", code)
	}

	// Response rows come back in request order, not rank order.
	code, body := postJSON(t, ts, "/v1/datasets/demo/users:batch", `{"ranks":[3,1,2]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var view struct {
		Users []struct {
			Rank int `json:"rank"`
		} `json:"users"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Users) != 3 || view.Users[0].Rank != 3 || view.Users[1].Rank != 1 || view.Users[2].Rank != 2 {
		t.Fatalf("order not preserved: %+v", view.Users)
	}
}

// TestUserFeaturesNaNRendersNull: a profileless graph with a zero-degree
// node produces 0/0 and x/0 ratios; both must render as JSON null, not
// break encoding.
func TestUserFeaturesNaNRendersNull(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1) // node 1: in 1, out 0 (+Inf ratio); node 2: isolated (NaN)
	ds := &twitter.Dataset{Graph: b.Build()}

	s := New(Config{Options: fastServeOptions()})
	if err := s.RegisterDataset("tiny", ds, nil, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := postJSON(t, ts, "/v1/datasets/tiny/users:batch", `{"ranks":[1,2,3]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	if !strings.Contains(string(body), `"follower_following_ratio": null`) {
		t.Fatalf("non-finite ratio not rendered as null:\n%s", body)
	}
	if !json.Valid(body) {
		t.Fatal("body is not valid JSON")
	}
}

// TestFeatureRequestsShareOneRun: without a result cache, the first
// feature request's run fills the dataset's row memo for every later one,
// so two single-user requests and a batch over ranks 3–40 cost exactly one
// pipeline run — and none of them counts as a shard hit.
func TestFeatureRequestsShareOneRun(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, path := range []string{"/v1/datasets/demo/users/1/features", "/v1/datasets/demo/users/2/features"} {
		if code, body := get(t, ts, path); code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
	}
	var ranks []string
	for r := 3; r <= 40; r++ {
		ranks = append(ranks, strconv.Itoa(r))
	}
	code, body := postJSON(t, ts, "/v1/datasets/demo/users:batch", `{"ranks":[`+strings.Join(ranks, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var view struct {
		Users []json.RawMessage `json:"users"`
	}
	if err := json.Unmarshal(body, &view); err != nil || len(view.Users) != len(ranks) {
		t.Fatalf("batch decoded %d users (err %v), want %d", len(view.Users), err, len(ranks))
	}
	if runs, _, _ := s.met.counters(); runs != 1 {
		t.Fatalf("eliteserve_runs_total = %d, want 1", runs)
	}
	if hits := s.met.featureShardHits(); hits != 0 {
		t.Fatalf("rows a run computed counted %d shard hits", hits)
	}
}

// TestFeatureRowsConcurrent drives the per-dataset row memo from many
// requests at once — filled from cache shards on one server, from a run on
// a cache-less one — and checks every body against a sequential reference.
func TestFeatureRowsConcurrent(t *testing.T) {
	ds, activity := testFixtures(t)
	cached := fastServeOptions()
	cached.CacheDir = t.TempDir()
	paths := make([]string, 8)
	want := make([][]byte, len(paths))
	ref := httptest.NewServer(newTestServer(t, Config{Options: cached}))
	defer ref.Close()
	for i := range paths {
		paths[i] = fmt.Sprintf("/v1/datasets/demo/users/%d/features", i+1)
		var code int
		if code, want[i] = get(t, ref, paths[i]); code != http.StatusOK {
			t.Fatalf("reference %s: %d", paths[i], code)
		}
	}

	for _, opts := range []core.Options{cached, fastServeOptions()} {
		s := New(Config{Options: opts, BodyCacheBytes: -1})
		if err := s.RegisterDataset("demo", ds, activity, "test"); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		var wg sync.WaitGroup
		for i := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := ts.Client().Get(ts.URL + paths[i])
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[i]) {
					t.Errorf("cache %q: %s: %d %v, body differs from reference", opts.CacheDir, paths[i], resp.StatusCode, err)
				}
			}()
		}
		wg.Wait()
		ts.Close()
	}
}
