package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elites/internal/core"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// test fixtures: one small platform per binary, reused across tests.
var (
	fixOnce     sync.Once
	fixDataset  *twitter.Dataset
	fixActivity *timeseries.DailySeries
)

func testFixtures(t testing.TB) (*twitter.Dataset, *timeseries.DailySeries) {
	t.Helper()
	fixOnce.Do(func() {
		p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(400))
		if err != nil {
			t.Fatal(err)
		}
		fixDataset, err = twitter.DatasetFromPlatform(p)
		if err != nil {
			t.Fatal(err)
		}
		fixActivity = p.ActivitySeries(p.EnglishNodes())
	})
	return fixDataset, fixActivity
}

// fastServeOptions keeps test batteries quick but exercises every stage.
func fastServeOptions() core.Options {
	return core.Options{
		DistanceSources:    30,
		BetweennessSources: 16,
		EigenK:             16,
		BootstrapReps:      5,
		Seed:               7,
	}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	ds, activity := testFixtures(t)
	s := New(cfg)
	if err := s.RegisterDataset("demo", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestBasicEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}

	code, body = get(t, ts, "/v1/datasets")
	if code != http.StatusOK {
		t.Fatalf("datasets: %d %s", code, body)
	}
	var list struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].ID != "demo" || list.Datasets[0].Nodes == 0 {
		t.Fatalf("datasets listing: %+v", list)
	}

	if code, _ := get(t, ts, "/v1/datasets/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/report?stages=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus stage selection: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/report?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("bogus format: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/stages/bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus stage: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/users/0"); code != http.StatusBadRequest {
		t.Fatalf("rank 0: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/users/99999999"); code != http.StatusNotFound {
		t.Fatalf("rank out of range: %d", code)
	}
	if code, _ := get(t, ts, "/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
}

// TestUserEndpoint: rank 1 must be the dataset's maximum out-degree node,
// with profile metrics attached.
func TestUserEndpoint(t *testing.T) {
	ds, _ := testFixtures(t)
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/v1/datasets/demo/users/1")
	if code != http.StatusOK {
		t.Fatalf("user 1: %d %s", code, body)
	}
	var v userView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	outDeg := ds.Graph.OutDegrees()
	maxDeg := 0
	for _, d := range outDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if v.OutDegree != maxDeg {
		t.Fatalf("rank 1 out-degree = %d, want max %d", v.OutDegree, maxDeg)
	}
	if v.Profile == nil || v.Profile.ScreenName == "" || v.Profile.Category == "" {
		t.Fatalf("profile fields missing: %+v", v)
	}
	// Zero/false profile values must serialize (distinguishable from "no
	// profile recorded").
	if !strings.Contains(string(body), `"verified"`) {
		t.Fatalf("profile JSON must carry the verified flag explicitly: %s", body)
	}
	// Ranks walk downward in degree.
	code, body = get(t, ts, "/v1/datasets/demo/users/2")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var v2 userView
	if err := json.Unmarshal(body, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.OutDegree > v.OutDegree {
		t.Fatalf("rank 2 degree %d exceeds rank 1 degree %d", v2.OutDegree, v.OutDegree)
	}
}

// TestWarmReportServedFromCacheAndByteIdentical: a repeated request's body
// — both JSON and the rendered-text format — must be byte-identical to the
// cold one (served from the body memo; a fresh identity still hydrates its
// cacheable stages from the result cache), and text must equal what a
// direct Characterizer run renders (the eliteanalyze stdout contract).
func TestWarmReportServedFromCacheAndByteIdentical(t *testing.T) {
	ds, activity := testFixtures(t)
	opts := fastServeOptions()
	opts.CacheDir = t.TempDir()
	s := newTestServer(t, Config{Options: opts})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, cold := get(t, ts, "/v1/datasets/demo/report?format=text")
	if code != http.StatusOK {
		t.Fatalf("cold report: %d %s", code, cold)
	}
	code, warm := get(t, ts, "/v1/datasets/demo/report?format=text")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm text body differs from cold")
	}

	// Direct run with identical options == what eliteanalyze prints.
	rep, err := core.NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	rep.Render(&direct)
	if !bytes.Equal(warm, direct.Bytes()) {
		t.Fatal("served text report differs from a direct Characterizer render")
	}
	if rep.Cache == nil || len(rep.Cache.Hits) == 0 {
		t.Fatalf("direct warm run should hit the shared cache: %+v", rep.Cache)
	}

	// JSON: also byte-stable.
	code, j1 := get(t, ts, "/v1/datasets/demo/report")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	code, j2 := get(t, ts, "/v1/datasets/demo/report")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("JSON report is not byte-stable")
	}

	// The metrics must show stage-cache traffic with hits.
	code, mbody := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if !strings.Contains(string(mbody), "eliteserve_stage_cache_hits_total") {
		t.Fatalf("metrics missing cache counters:\n%s", mbody)
	}
	var hits float64
	fmt.Sscanf(findMetric(string(mbody), "eliteserve_stage_cache_hits_total"), "%g", &hits)
	if hits == 0 {
		t.Fatal("warm request recorded no stage cache hits")
	}
}

// findMetric returns the value field of the first sample named m.
func findMetric(body, m string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, m+" ") {
			return strings.TrimPrefix(line, m+" ")
		}
	}
	return ""
}

// TestStageEndpoint runs one stage subset and checks the fragment shape.
func TestStageEndpoint(t *testing.T) {
	ds, _ := testFixtures(t)
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/v1/datasets/demo/stages/summary")
	if code != http.StatusOK {
		t.Fatalf("stage summary: %d %s", code, body)
	}
	var resp struct {
		Dataset string           `json:"dataset"`
		Stage   string           `json:"stage"`
		Result  core.SummaryView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stage != "summary" || resp.Result.Nodes != ds.Graph.NumNodes() {
		t.Fatalf("stage fragment: %+v", resp)
	}
}

// TestFlightCoalescesIdenticalRequests is the core coalescing contract:
// 8 concurrent Do calls on one key run fn exactly once and every caller
// receives byte-identical bodies. The fn blocks until all 8 have joined,
// so the test is deterministic.
func TestFlightCoalescesIdenticalRequests(t *testing.T) {
	f := newFlight()
	const n = 8
	var runs int32
	release := make(chan struct{})
	fn := func(ctx context.Context, _ *progress) (runOutcome, error) {
		atomic.AddInt32(&runs, 1)
		<-release
		return runOutcome{body: []byte("the-body")}, nil
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	joins := make([]bool, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, joined, err := f.Do(context.Background(), "k", fn)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			bodies[i], joins[i] = out.body, joined
		}()
	}
	// Wait until all 8 are registered as waiters, then let the run finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, ok := f.peek("k")
		if ok {
			f.mu.Lock()
			w := c.waiters
			f.mu.Unlock()
			if w == n {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never assembled")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", got)
	}
	joinedCount := 0
	for i := range bodies {
		if string(bodies[i]) != "the-body" {
			t.Fatalf("caller %d got %q", i, bodies[i])
		}
		if joins[i] {
			joinedCount++
		}
	}
	if joinedCount != n-1 {
		t.Fatalf("joined = %d, want %d", joinedCount, n-1)
	}
}

// TestFlightCancellation: when every waiter abandons, the run's context is
// cancelled; a later identical request starts a fresh run instead of
// inheriting the cancelled result.
func TestFlightCancellation(t *testing.T) {
	f := newFlight()
	started := make(chan struct{}, 2)
	var cancelSeen int32
	fn := func(ctx context.Context, _ *progress) (runOutcome, error) {
		started <- struct{}{}
		<-ctx.Done()
		atomic.AddInt32(&cancelSeen, 1)
		return runOutcome{}, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := f.Do(ctx, "k", fn)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v", err)
	}
	// The run must observe cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt32(&cancelSeen) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never saw cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// A fresh request reruns fn (and can complete normally this time).
	fn2 := func(ctx context.Context, _ *progress) (runOutcome, error) {
		return runOutcome{body: []byte("fresh")}, nil
	}
	out, _, err := f.Do(context.Background(), "k", fn2)
	if err != nil || string(out.body) != "fresh" {
		t.Fatalf("fresh run after cancellation: %q %v", out.body, err)
	}
}

// TestHTTPCoalescing drives 8 identical cold requests through the real
// handler stack: every body must be byte-identical, nothing may be shed,
// and the requests must collapse to (nearly) one pipeline run. The exact
// 8→1 collapse is proven deterministically at the flight level above; at
// the HTTP level a straggler that arrives after the first run finished
// legitimately starts a second, so the assertion here is runs ≤ 2 with
// runs+coalesced covering all 8.
func TestHTTPCoalescing(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions(), MaxConcurrent: 1, MaxQueue: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/datasets/demo/report")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	runs, coalesced, shed := s.met.counters()
	bodyHits := s.met.bodyHits.Value()
	if shed != 0 {
		t.Fatalf("admission shed %d coalescible requests", shed)
	}
	if runs+coalesced+bodyHits < n {
		t.Fatalf("accounting: runs=%d coalesced=%d bodyHits=%d for %d requests",
			runs, coalesced, bodyHits, n)
	}
	if runs > 2 {
		t.Fatalf("%d pipeline runs for %d identical concurrent requests", runs, n)
	}
}

// TestAsyncJobModel: with a tiny latency budget, a cold POST returns 202
// with a job id; polling reaches "done" with per-stage progress; the
// result endpoint serves the same bytes as a later synchronous GET.
func TestAsyncJobModel(t *testing.T) {
	opts := fastServeOptions()
	opts.CacheDir = t.TempDir()
	s := newTestServer(t, Config{Options: opts, AsyncAfter: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/datasets/demo/report", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold POST with 1ms budget: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
		ResultURL string `json:"result_url"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil || accepted.JobID == "" {
		t.Fatalf("202 body: %s (%v)", body, err)
	}

	// Poll until done.
	var st jobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, sb := get(t, ts, accepted.StatusURL)
		if code != http.StatusOK {
			t.Fatalf("job status: %d %s", code, sb)
		}
		if err := json.Unmarshal(sb, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.StagesDone == 0 {
		t.Fatal("finished job reports no completed stages")
	}

	code, result := get(t, ts, accepted.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("job result: %d", code)
	}
	// A synchronous GET now serves the same bytes (warm via cache).
	code, direct := get(t, ts, "/v1/datasets/demo/report")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if !bytes.Equal(result, direct) {
		t.Fatal("job result differs from synchronous body")
	}
}

// TestAdmissionSheds: with one slot, no queue, and a run parked on the
// slot, a second distinct request is rejected 429.
func TestAdmissionSheds(t *testing.T) {
	a := newAdmission(1, 0)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("second acquire = %v, want ErrBusy", err)
	}
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("after release: %v", err)
	}
	a.release()

	// Queued waiters respect context cancellation.
	a2 := newAdmission(1, 1)
	if err := a2.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a2.acquire(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire = %v", err)
	}
}

func TestParseStagesCanonicalizes(t *testing.T) {
	a, err := parseStages("degree,basic")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseStages("basic, degree,basic")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("orderings disagree: %v vs %v", a, b)
	}
	if strings.Join(a, ",") != "basic,degree" {
		t.Fatalf("canonical order: %v", a)
	}
	if _, err := parseStages("nope"); err == nil {
		t.Fatal("unknown stage must error")
	}
	if got, err := parseStages(""); err != nil || got != nil {
		t.Fatalf("empty selection: %v %v", got, err)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := New(Config{})
	if err := s.RegisterDataset("bad id!", &twitter.Dataset{}, nil, ""); err == nil {
		t.Fatal("invalid id accepted")
	}
	if err := s.RegisterDataset("ok", nil, nil, ""); err == nil {
		t.Fatal("nil dataset accepted")
	}
	ds, activity := testFixtures(t)
	if err := s.RegisterDataset("ok", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDataset("ok", ds, activity, "test"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := s.RegisterGenerated("gen", "bogus-kind", 100, 1); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestComponentsStageServesSummary: the components stage has no rendering
// of its own — its endpoint must serve the populated summary table, not
// null (the run subset is expanded through core.ViewStages).
func TestComponentsStageServesSummary(t *testing.T) {
	ds, _ := testFixtures(t)
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/v1/datasets/demo/stages/components")
	if code != http.StatusOK {
		t.Fatalf("stage components: %d %s", code, body)
	}
	var resp struct {
		Result *core.SummaryView `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Nodes != ds.Graph.NumNodes() {
		t.Fatalf("components fragment not populated: %s", body)
	}
}

// TestJobTableReplacementKeepsFreshOrder: re-creating a finished job under
// the same key must give the replacement a fresh eviction position, not
// the stale oldest-first slot (which made evictLocked delete the newest
// job while retaining older ones).
func TestJobTableReplacementKeepsFreshOrder(t *testing.T) {
	tbl := newJobTable(2)
	now := time.Now()
	a, created, err := tbl.getOrCreate("key-a", "d", "json", now)
	if err != nil || !created {
		t.Fatalf("first job: created=%v err=%v", created, err)
	}
	a.finish(runOutcome{body: []byte("a")}, nil)
	// Replace a under the same key; it must now be the youngest entry.
	a2, created, err := tbl.getOrCreate("key-a", "d", "json", now)
	if err != nil || !created || a2 == a {
		t.Fatal("finished job should be replaced")
	}
	a2.finish(runOutcome{body: []byte("a2")}, nil)
	b, _, _ := tbl.getOrCreate("key-b", "d", "json", now)
	b.finish(runOutcome{body: []byte("b")}, nil)
	// keep=2: after c, the table must retain the two youngest (b, c) and
	// evict a2 — not inherit a's stale front-of-order slot for a2.
	c, _, _ := tbl.getOrCreate("key-c", "d", "json", now)
	c.finish(runOutcome{body: []byte("c")}, nil)
	if _, ok := tbl.get(c.ID); !ok {
		t.Fatal("newest job evicted")
	}
	if _, ok := tbl.get(b.ID); !ok {
		t.Fatal("second-newest job evicted")
	}
	if _, ok := tbl.get(a2.ID); ok {
		t.Fatal("oldest finished job should have been evicted")
	}
}

// TestJobTableKeyCollisionRefused: a live job whose id matches but whose
// key differs (48-bit hash collision between request identities) must be
// refused, never returned as "the" job.
func TestJobTableKeyCollisionRefused(t *testing.T) {
	tbl := newJobTable(4)
	j, _, err := tbl.getOrCreate("key-a", "d", "json", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	j.Key = "some-other-identity" // simulate the collision
	if _, _, err := tbl.getOrCreate("key-a", "d", "json", time.Now()); err == nil {
		t.Fatal("live colliding job must be refused")
	}
	// Once finished, the colliding slot is reclaimed.
	j.finish(runOutcome{}, nil)
	if _, created, err := tbl.getOrCreate("key-a", "d", "json", time.Now()); err != nil || !created {
		t.Fatalf("finished colliding job should be replaced: created=%v err=%v", created, err)
	}
}

// TestBodyCache: constant bodies memoize per key, LRU-evict under the byte
// cap, and a non-positive cap disables the memo.
func TestBodyCache(t *testing.T) {
	bc := newBodyCache(200)
	bc.put("a", bytes.Repeat([]byte{1}, 90))
	bc.put("b", bytes.Repeat([]byte{2}, 90))
	if _, ok := bc.get("a"); !ok {
		t.Fatal("a should be resident")
	}
	bc.put("c", bytes.Repeat([]byte{3}, 90)) // evicts b (a was refreshed)
	if _, ok := bc.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := bc.get("a"); !ok {
		t.Fatal("refreshed entry evicted")
	}
	bc.put("huge", bytes.Repeat([]byte{4}, 500)) // over cap: not stored
	if _, ok := bc.get("huge"); ok {
		t.Fatal("oversized body must not be stored")
	}
	off := newBodyCache(-1)
	off.put("k", []byte("v"))
	if _, ok := off.get("k"); ok {
		t.Fatal("disabled memo must always miss")
	}
}

// TestWarmRequestServedFromBodyMemo: the second identical request must not
// start a pipeline run at all — it is served from the encoded-body memo.
func TestWarmRequestServedFromBodyMemo(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, first := get(t, ts, "/v1/datasets/demo/report?stages=summary")
	if code != http.StatusOK {
		t.Fatalf("first: %d %s", code, first)
	}
	runsBefore, _, _ := s.met.counters()
	code, second := get(t, ts, "/v1/datasets/demo/report?stages=summary")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("memoized body differs")
	}
	runsAfter, _, _ := s.met.counters()
	if runsAfter != runsBefore {
		t.Fatalf("warm request started a pipeline run (%d → %d)", runsBefore, runsAfter)
	}
	if hits := s.met.bodyHits.Value(); hits == 0 {
		t.Fatal("warm request not counted as a body-memo hit")
	}
}
