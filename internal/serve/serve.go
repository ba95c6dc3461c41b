// Package serve is the HTTP serving subsystem over the characterization
// engine: an embeddable server that registers datasets (in-memory, from
// store directories, or generated from elitegen-style specs), runs the
// paper's analysis battery on demand through core.Characterizer, and
// answers JSON (or rendered-text) queries about the results.
//
// Every result-shaped endpoint — report, stage, per-user features and
// users:batch — answers through one path (respond): the request identity
// (dataset digest, core's options digest, canonical stage subset, format)
// keys an encoded-body memo (bodycache.go); a miss builds the body through
// a single-flight coalescer on the same key, so N identical concurrent
// requests trigger exactly one pipeline run (coalesce.go); clean bodies are
// memoized, degraded ones never are. Around that path:
//
//   - a bounded admission queue that sheds overload with 429 instead of
//     accumulating goroutines (admission.go);
//   - request-context cancellation threaded down to the pipeline
//     scheduler, so a run every waiter abandoned stops at the next stage
//     boundary (core.RunContext);
//   - an async job model: cold runs over the latency budget return 202
//     with a job id and per-stage progress polling (jobs.go);
//   - Prometheus-style /metrics with request, run, and stage-cache
//     accounting (metrics.go).
//
// Per-user feature requests (features.go) read one per-dataset row memo,
// filled either with the feature shards a features run stored in the
// result cache — so a fresh server process sharing the cache directory
// answers without running the pipeline — or with the matrix a run in this
// process computed.
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/datasets,
// GET /v1/datasets/{id}, GET|POST /v1/datasets/{id}/report,
// GET /v1/datasets/{id}/stages/{stage}, GET /v1/datasets/{id}/users/{rank},
// GET /v1/datasets/{id}/users/{rank}/features,
// POST /v1/datasets/{id}/users:batch,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/result.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elites/internal/core"
	"elites/internal/features"
	"elites/internal/gen"
	"elites/internal/mathx"
	"elites/internal/obs"
	"elites/internal/store"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// Config tunes a Server. The zero value serves with the default battery
// options, two concurrent runs, eight queued, and no async budget (every
// report request is synchronous).
type Config struct {
	// Options is the base characterization configuration every request
	// runs with (seed, sampling sizes, CacheDir for warm serving, ...).
	// Requests may restrict Options.Stages via ?stages=; everything else
	// is fixed at server construction so response bytes are a pure
	// function of (dataset, server options, requested stages, format).
	Options core.Options
	// MaxConcurrent bounds simultaneously executing pipeline runs
	// (<= 0 means 2). Coalesced requests count once.
	MaxConcurrent int
	// MaxQueue bounds runs waiting for a slot (< 0 means 0 — shed as soon
	// as every slot is busy; 0 means the default 8).
	MaxQueue int
	// AsyncAfter, when > 0, is the latency budget for POST report
	// requests: a run still going after this long detaches into a job and
	// the client gets 202 + job id. 0 serves everything synchronously.
	AsyncAfter time.Duration
	// BodyCacheBytes caps the in-memory memo of encoded response bodies
	// (0 means 64 MiB; < 0 disables). Bodies are constants per request
	// identity — datasets are immutable and options fixed — so the memo
	// needs no invalidation and makes warm traffic O(memory read).
	BodyCacheBytes int64
	// Tracer, when non-nil, records a span tree per request (continuing
	// any incoming traceparent) and serves it at GET /debug/traces.
	// Tracing never touches cache keys or response bytes.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives one structured record per request
	// with trace/span ids attached.
	Logger *slog.Logger
	// SlowRequest, when > 0 and Logger and Tracer are set, is the
	// flight-recorder threshold: requests at least this slow log their
	// full span tree.
	SlowRequest time.Duration
}

// dataset is one registered dataset plus its memoized identity, per-user
// degree ranking and feature rows.
type dataset struct {
	ID       string
	Source   string
	ds       *twitter.Dataset
	activity *timeseries.DailySeries
	digest   uint64

	rankOnce sync.Once
	byRank   []int32 // node ids, rank 1 first (out-degree desc, node asc)
	outDeg   []int
	inDeg    []int

	// shards is the result-cache shard store a features run over this
	// dataset writes (nil when the server runs cache-less).
	shards *features.Store

	// rowsMu guards the feature-row memo, keyed by shard index: shards
	// decoded from the result cache, or views of a matrix a run in this
	// process computed (rowsFromRun). See features.go.
	rowsMu      sync.Mutex
	rows        map[int]*features.Rows
	rowsFromRun bool
}

// Server is the HTTP serving layer. Construct with New, register datasets,
// then mount it anywhere an http.Handler goes.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	flight     *flight
	admit      *admission
	jobs       *jobTable
	bodies     *bodyCache
	met        *metrics
	optsDigest uint64 // cfg.Options.Digest(), the options half of every key

	// draining flips once (Drain or POST /v1/admin/drain) and never back:
	// new pipeline work is refused with 503 while in-flight requests and
	// async jobs run to completion (WaitJobs), and /healthz + /readyz turn
	// 503 so a fleet router stops routing here.
	draining atomic.Bool

	// jitterMu guards jitter, the seeded stream behind the equal-jitter
	// Retry-After values on shed/draining responses.
	jitterMu sync.Mutex
	jitter   *mathx.RNG

	mu       sync.Mutex
	datasets map[string]*dataset
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 8
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.BodyCacheBytes == 0 {
		cfg.BodyCacheBytes = 64 << 20
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		flight:     newFlight(),
		admit:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		jobs:       newJobTable(maxJobsKept),
		bodies:     newBodyCache(cfg.BodyCacheBytes),
		met:        newMetrics(time.Now()),
		optsDigest: cfg.Options.Digest(),
		jitter:     mathx.NewRNG(cfg.Options.Seed).Derive("serve/retry-after"),
		datasets:   map[string]*dataset{},
	}
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("POST /v1/admin/drain", "drain", s.handleDrain)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /v1/datasets", "datasets", s.handleDatasets)
	s.route("GET /v1/datasets/{id}", "dataset", s.handleDataset)
	s.route("GET /v1/datasets/{id}/report", "report", s.handleReport)
	s.route("POST /v1/datasets/{id}/report", "report", s.handleReport)
	s.route("GET /v1/datasets/{id}/stages/{stage}", "stage", s.handleStage)
	s.route("GET /v1/datasets/{id}/users/{rank}", "user", s.handleUser)
	s.route("GET /v1/datasets/{id}/users/{rank}/features", "user_features", s.handleUserFeatures)
	s.route("POST /v1/datasets/{id}/users:batch", "users_batch", s.handleUsersBatch)
	s.route("GET /v1/jobs/{id}", "job", s.handleJob)
	s.route("GET /v1/jobs/{id}/result", "job_result", s.handleJobResult)
	s.route("GET /debug/traces", "debug_traces", s.handleDebugTraces)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- dataset registration ----------------------------------------------------

func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// RegisterDataset registers an in-memory dataset under id. The dataset's
// content digest (the cache identity) is computed once here.
func (s *Server) RegisterDataset(id string, ds *twitter.Dataset, activity *timeseries.DailySeries, source string) error {
	if !validID(id) {
		return fmt.Errorf("serve: invalid dataset id %q", id)
	}
	if ds == nil || ds.Graph == nil {
		return fmt.Errorf("serve: dataset %q has no graph", id)
	}
	d := &dataset{
		ID: id, Source: source, ds: ds, activity: activity,
		digest: store.DatasetDigest(ds, activity),
		rows:   map[int]*features.Rows{},
	}
	if st, ok := s.cfg.Options.FeatureShards(d.digest); ok {
		d.shards = &st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[id]; dup {
		return fmt.Errorf("serve: dataset id %q already registered", id)
	}
	s.datasets[id] = d
	return nil
}

// RegisterDir loads a store dataset directory (elitegen/elitecrawl output)
// and registers it under id.
func (s *Server) RegisterDir(id, dir string) error {
	ds, activity, _, err := store.LoadDataset(dir)
	if err != nil {
		return fmt.Errorf("serve: loading %s: %w", dir, err)
	}
	return s.RegisterDataset(id, ds, activity, "dir:"+dir)
}

// RegisterGenerated synthesizes a dataset from an elitegen-style spec
// (kind "verified" or "twitter", n users, generation seed) and registers
// it under id.
func (s *Server) RegisterGenerated(id, kind string, n int, seed uint64) error {
	cfg := twitter.DefaultPlatformConfig(n)
	cfg.Seed = seed
	switch kind {
	case "verified":
		// default graph config
	case "twitter":
		g := gen.TwitterDefaults(n)
		g.Seed = seed
		cfg.GraphConfig = g
	default:
		return fmt.Errorf("serve: unknown dataset kind %q (want verified or twitter)", kind)
	}
	p, err := twitter.NewPlatform(cfg)
	if err != nil {
		return err
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		return err
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	return s.RegisterDataset(id, ds, activity,
		fmt.Sprintf("gen:%s:n=%d:seed=%d", kind, n, seed))
}

// DatasetIDs lists registered dataset ids, sorted.
func (s *Server) DatasetIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.datasets))
	for id := range s.datasets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s *Server) dataset(id string) (*dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	return d, ok
}

// pathDataset resolves the request's {id} path segment, answering 404
// itself when no such dataset is registered.
func (s *Server) pathDataset(w http.ResponseWriter, r *http.Request) (*dataset, bool) {
	d, ok := s.dataset(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
	}
	return d, ok
}

// pathRank resolves the request's {rank} path segment to its node,
// answering 400 for a malformed or non-positive rank and 404 past the last
// user itself.
func pathRank(w http.ResponseWriter, r *http.Request, d *dataset) (rank, node int, ok bool) {
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 1 {
		writeError(w, http.StatusBadRequest, "rank must be a positive integer, got %q", r.PathValue("rank"))
		return 0, 0, false
	}
	byRank, _, _ := d.ranking()
	if rank > len(byRank) {
		writeError(w, http.StatusNotFound, "rank %d out of range (dataset has %d users)", rank, len(byRank))
		return 0, 0, false
	}
	return rank, int(byRank[rank-1]), true
}

// ranking memoizes the out-degree ranking used by the per-user endpoints
// (features.RankByOutDegree is the single definition of the order, shared
// with eliteanalyze -features so batch bodies compare byte-for-byte).
func (d *dataset) ranking() ([]int32, []int, []int) {
	d.rankOnce.Do(func() {
		g := d.ds.Graph
		d.outDeg = g.OutDegrees()
		d.inDeg = g.InDegrees()
		d.byRank = features.RankByOutDegree(g)
	})
	return d.byRank, d.outDeg, d.inDeg
}

// --- request plumbing --------------------------------------------------------

// recorder captures the status code for metrics.
type recorder struct {
	http.ResponseWriter
	status int
}

func (rec *recorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *recorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

// route mounts a handler with metrics, tracing and logging
// instrumentation under a stable route label (patterns with wildcards
// would explode series cardinality). The span continues any incoming
// traceparent, so a request proxied by eliterouter shares the router's
// trace id; its id becomes the latency histogram's exemplar.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &recorder{ResponseWriter: w}
		sp := s.cfg.Tracer.StartFromHeader(r.Header, "serve."+label)
		if sp != nil {
			sp.SetAttr("route", label)
			sp.SetAttr("path", r.URL.Path)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		h(rec, r)
		code := rec.status
		if code == 0 {
			// Nothing written: the client went away mid-request.
			code = 499
		}
		dur := time.Since(start)
		traceID := ""
		if sp != nil {
			traceID = sp.TraceID().String()
			sp.SetAttrInt("status", code)
			sp.End()
		}
		s.met.observeRequest(label, code, dur, traceID)
		if lg := s.cfg.Logger; lg != nil {
			l := obs.WithSpan(lg, sp)
			l.Info("request",
				"route", label, "method", r.Method, "path", r.URL.Path,
				"status", code, "dur_ms", float64(dur.Microseconds())/1000)
			if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest && sp != nil {
				l.Warn("slow request",
					"threshold", s.cfg.SlowRequest.String(),
					"span_tree", "\n"+obs.RenderTree(s.cfg.Tracer.TraceSpans(traceID)))
			}
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	out, err := encodeBody(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(out.body)
}

// encodeBody renders a JSON view as a response body: indented, with a
// trailing newline.
func encodeBody(v any) (runOutcome, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{body: append(b, '\n')}, nil
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseStages validates and canonicalizes a ?stages= selection: names must
// be known, and the result is deduplicated in canonical order so every
// spelling of the same subset coalesces onto one run (and one cache key).
func parseStages(raw string) ([]string, error) {
	known := core.StageNames()
	want := map[string]bool{}
	for _, s := range strings.Split(raw, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !slices.Contains(known, s) {
			return nil, fmt.Errorf("unknown stage %q (known: %s)", s, strings.Join(known, ","))
		}
		want[s] = true
	}
	var out []string
	for _, name := range known {
		if want[name] {
			out = append(out, name)
		}
	}
	return out, nil
}

// reportKey is the coalescer/cache identity of one request class.
func (s *Server) reportKey(d *dataset, stages []string, format string) string {
	return fmt.Sprintf("%016x-%016x|stages=%s|format=%s",
		d.digest, s.optsDigest, strings.Join(stages, ","), format)
}

// --- draining ----------------------------------------------------------------

// ErrDraining is returned (and mapped to HTTP 503) when the server has been
// asked to drain: it finishes in-flight work but admits no new pipeline
// runs, so a fleet router can remove it gracefully.
var ErrDraining = errors.New("serve: server draining")

// Drain puts the server into draining mode: /healthz and /readyz turn 503,
// new pipeline work is refused with 503 + Retry-After, and in-flight
// requests and async jobs run to completion. Draining is one-way.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// WaitJobs blocks until every async job has finished or ctx expires, and
// returns the number of jobs still running at return — the jobs a shutdown
// at that moment would abandon.
func (s *Server) WaitJobs(ctx context.Context) (abandoned int) {
	for {
		n := s.jobs.running()
		if n == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return s.jobs.running()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// retryAfterSeconds is the Retry-After value for shed (429) and draining
// (503) responses: equal jitter over a 2-second base (1s floor + uniform
// 0–1s) so a burst of simultaneously rejected clients doesn't come back in
// lockstep and re-trip admission all at once.
func (s *Server) retryAfterSeconds() int {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return 1 + s.jitter.Intn(2)
}

// --- run execution -----------------------------------------------------------

// runBattery is the single execution path every report-shaped request
// funnels into (through the coalescer): the admission gate, then the
// characterizer run with the request context threaded through, with run
// metrics recorded. Runs are always timed — Report.Timings is what tells
// the JSON views which value-typed sections actually executed, and it
// never reaches response bytes. On stage failure the partial report comes
// back alongside the error; callers decide whether it is servable
// (degradable).
func (s *Server) runBattery(ctx context.Context, d *dataset, stages []string, prog *progress) (*core.Report, error) {
	if s.draining.Load() {
		s.met.addDrainRejected()
		return nil, ErrDraining
	}
	adm := obs.SpanFromContext(ctx).Child("admit")
	if err := s.admit.acquire(ctx); err != nil {
		if errors.Is(err, ErrBusy) {
			s.met.addShed()
			adm.AddEvent("shed")
		}
		adm.End()
		return nil, err
	}
	adm.End()
	defer s.admit.release()

	opts := s.cfg.Options
	opts.Stages = stages
	opts.Timings = true
	opts.StageObserver = prog.observe
	s.met.runStarted()
	rep, err := core.NewCharacterizer(opts).RunContext(ctx, d.ds, d.activity)
	var cr *core.CacheReport
	if rep != nil {
		cr = rep.Cache
	}
	s.met.runFinished(cr, err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)))
	return rep, err
}

// degradable decides whether a failed run is still worth serving as a
// partial (degraded) report: there is a report to serve, the failure is not
// a cancellation (the client is gone, or the whole run was torn down — a
// partial body would be arbitrary, not degraded), and at least one stage
// actually produced a result.
func degradable(ctx context.Context, rep *core.Report, err error) bool {
	if rep == nil || ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for _, tm := range rep.Timings {
		if tm.Err == nil && !tm.Skipped {
			return true
		}
	}
	return false
}

// writeDegradedBanner prefixes a degraded text report with the failed-stage
// summary, so plain-text consumers cannot mistake a partial report for a
// complete one.
func writeDegradedBanner(buf *bytes.Buffer, rep *core.Report) {
	failed := 0
	for _, tm := range rep.Timings {
		if tm.Err != nil {
			failed++
		}
	}
	fmt.Fprintf(buf, "!! DEGRADED REPORT: %d stage(s) failed\n", failed)
	for _, tm := range rep.Timings {
		if tm.Err != nil {
			fmt.Fprintf(buf, "!!   %s: %v\n", tm.Name, tm.Err)
		}
	}
	buf.WriteByte('\n')
}

// buildReport runs the battery and encodes the full-report body. A run
// where some stages failed but others completed encodes as a degraded
// body: JSON grows "degraded": true plus structured stage_errors entries,
// text gets the banner. Clean runs encode exactly as before, so a re-run
// after a fault clears is byte-identical to a never-faulted response.
func (s *Server) buildReport(ctx context.Context, d *dataset, stages []string, format string, prog *progress) (runOutcome, error) {
	rep, err := s.runBattery(ctx, d, stages, prog)
	if err != nil && !degradable(ctx, rep, err) {
		return runOutcome{}, err
	}
	degraded := err != nil
	switch format {
	case "text":
		var buf bytes.Buffer
		if degraded {
			writeDegradedBanner(&buf, rep)
		}
		rep.Render(&buf)
		return runOutcome{body: buf.Bytes(), degraded: degraded}, nil
	case "json", "":
		out, merr := encodeBody(core.NewReportView(rep))
		out.degraded = degraded
		return out, merr
	}
	return runOutcome{}, fmt.Errorf("serve: unknown format %q", format)
}

// respond answers one request identity, the sequence every result-shaped
// endpoint shares: the encoded-body memo first, else build (which runs or
// coalesces whatever the body needs), then run errors mapped onto HTTP, a
// memo put for clean bodies, and the write.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, key, format string, build func() (runOutcome, error)) {
	sp := obs.SpanFromContext(r.Context())
	if body, ok := s.bodies.get(key); ok {
		s.met.addBodyHit()
		sp.SetAttr("body_cache", "hit")
		w.Header().Set("Content-Type", contentType(format))
		w.Write(body)
		return
	}
	sp.SetAttr("body_cache", "miss")
	out, err := build()
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	if !out.degraded {
		s.bodies.put(key, out.body)
	}
	s.writeOutcome(w, format, out)
}

// coalesced runs fn through the single-flight layer under key, with ctx as
// this caller's waiter context, and counts a joined run. The coalescer
// hands fn a detached context; the caller's span is re-attached to it so
// the run's spans land in the leader request's trace.
func (s *Server) coalesced(ctx context.Context, key string, fn func(context.Context, *progress) (runOutcome, error)) (runOutcome, error) {
	sp := obs.SpanFromContext(ctx)
	out, joined, err := s.flight.Do(ctx, key, func(runCtx context.Context, prog *progress) (runOutcome, error) {
		return fn(obs.ContextWithSpan(runCtx, sp), prog)
	})
	if joined {
		s.met.addCoalesced()
	}
	return out, err
}

// errAnswered is returned by a build that has already written the response
// itself (a 202 job hand-off, a 503 job-id collision).
var errAnswered = errors.New("serve: response already written")

// writeOutcome writes a run's body, marking degraded responses with a
// Warning header and counting them, so clients and operators can tell a
// partial report from a complete one without parsing the body.
func (s *Server) writeOutcome(w http.ResponseWriter, format string, out runOutcome) {
	w.Header().Set("Content-Type", contentType(format))
	if out.degraded {
		w.Header().Set("Warning", `199 eliteserve "degraded: one or more stages failed"`)
		s.met.addDegraded()
	}
	w.Write(out.body)
}

// writeRunError maps run failures onto HTTP semantics.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errAnswered):
		// build wrote the response itself.
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "server busy: admission queue full")
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, "server draining: not admitting new work")
	case r.Context().Err() != nil:
		// The client is gone; nothing useful to write. The recorder logs
		// this as 499.
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "run exceeded deadline")
	default:
		writeError(w, http.StatusInternalServerError, "characterization failed: %v", err)
	}
}

func contentType(format string) string {
	if format == "text" {
		return "text/plain; charset=utf-8"
	}
	return "application/json"
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":       "draining",
			"datasets":     len(s.DatasetIDs()),
			"jobs_running": s.jobs.running(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"datasets": len(s.DatasetIDs()),
	})
}

// handleReadyz is the readiness half of the health surface: it reports
// whether this worker should receive new traffic, which is exactly "not
// draining". Liveness (/healthz) stays useful during a drain for operators
// watching the worker finish up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleDrain (POST /v1/admin/drain) flips the server into draining mode
// for graceful removal from a fleet: health turns 503 so routers eject
// this worker, new pipeline work is refused, in-flight work finishes.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "draining",
		"jobs_running": s.jobs.running(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.serveExposition(w, r)
}

// handleDebugTraces serves the tracer's ring buffer (404 when tracing
// is disabled). See obs.(*Tracer).ServeTraces for the query parameters.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.cfg.Tracer.ServeTraces(w, r)
}

// datasetInfo is the JSON row for dataset listings.
type datasetInfo struct {
	ID          string `json:"id"`
	Nodes       int    `json:"nodes"`
	Edges       int64  `json:"edges"`
	HasProfiles bool   `json:"has_profiles"`
	HasActivity bool   `json:"has_activity"`
	Source      string `json:"source,omitempty"`
	Digest      string `json:"digest"`
}

func (d *dataset) info() datasetInfo {
	return datasetInfo{
		ID: d.ID, Nodes: d.ds.Graph.NumNodes(), Edges: d.ds.Graph.NumEdges(),
		HasProfiles: len(d.ds.Profiles) > 0, HasActivity: d.activity != nil,
		Source: d.Source, Digest: fmt.Sprintf("%016x", d.digest),
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var infos []datasetInfo
	for _, id := range s.DatasetIDs() {
		d, _ := s.dataset(id)
		infos = append(infos, d.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.pathDataset(w, r); ok {
		writeJSON(w, http.StatusOK, d.info())
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	d, ok := s.pathDataset(w, r)
	if !ok {
		return
	}
	stages, err := parseStages(r.URL.Query().Get("stages"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "text" {
		writeError(w, http.StatusBadRequest, "unknown format %q (want json or text)", format)
		return
	}
	key := s.reportKey(d, stages, format)
	run := func(ctx context.Context, prog *progress) (runOutcome, error) {
		return s.buildReport(ctx, d, stages, format, prog)
	}
	s.respond(w, r, key, format, func() (runOutcome, error) {
		if s.cfg.AsyncAfter > 0 && r.Method == http.MethodPost {
			return s.awaitJob(w, r, d, key, format, run)
		}
		return s.coalesced(r.Context(), key, run)
	})
}

// awaitJob implements the 202 job model: the run detaches into a job that
// is its own never-cancelling waiter, so it continues after the client
// disconnects, and the request waits up to the latency budget for it. Past
// the budget it answers 202 with the job's URLs and returns errAnswered.
func (s *Server) awaitJob(w http.ResponseWriter, r *http.Request, d *dataset, key, format string, run func(context.Context, *progress) (runOutcome, error)) (runOutcome, error) {
	j, created, err := s.jobs.getOrCreate(key, d.ID, format, time.Now())
	if err != nil {
		// A live job under the same content-addressed id belongs to a
		// different request identity (hash collision) — refuse rather
		// than hand this client that job's body.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return runOutcome{}, errAnswered
	}
	if created {
		jobCtx := context.WithoutCancel(r.Context())
		go func() {
			out, err := s.coalesced(jobCtx, key,
				func(ctx context.Context, prog *progress) (runOutcome, error) {
					j.setProgress(prog)
					return run(ctx, prog)
				})
			if err == nil && !out.degraded {
				s.bodies.put(key, out.body)
			}
			j.finish(out, err)
		}()
	}
	budget := time.NewTimer(s.cfg.AsyncAfter)
	defer budget.Stop()
	select {
	case <-j.done:
		out, err, _ := j.result()
		return out, err
	case <-budget.C:
		s.met.addJobQueued()
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id":     j.ID,
			"status_url": "/v1/jobs/" + j.ID,
			"result_url": "/v1/jobs/" + j.ID + "/result",
		})
		return runOutcome{}, errAnswered
	case <-r.Context().Done():
		// Client gone; the job keeps running. Recorded as 499.
		return runOutcome{}, r.Context().Err()
	}
}

func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	d, ok := s.pathDataset(w, r)
	if !ok {
		return
	}
	stage := r.PathValue("stage")
	if stages, err := parseStages(stage); err != nil || len(stages) != 1 {
		writeError(w, http.StatusBadRequest, "unknown stage %q (known: %s)",
			stage, strings.Join(core.StageNames(), ","))
		return
	}
	// The run must include every stage the view draws from (components'
	// servable projection is the summary table).
	runStages := core.ViewStages(stage)
	// The requested stage is part of the identity: the body names it, even
	// when two stages would share a run subset.
	key := s.reportKey(d, runStages, "stage:"+stage)
	s.respond(w, r, key, "json", func() (runOutcome, error) {
		return s.coalesced(r.Context(), key, func(ctx context.Context, prog *progress) (runOutcome, error) {
			rep, rerr := s.runBattery(ctx, d, runStages, prog)
			if rerr != nil && !degradable(ctx, rep, rerr) {
				return runOutcome{}, rerr
			}
			frag, verr := core.StageView(rep, stage)
			if verr != nil {
				return runOutcome{}, verr
			}
			payload := map[string]any{
				"dataset": d.ID, "stage": stage, "result": frag,
			}
			if rerr != nil {
				payload["degraded"] = true
			}
			out, err := encodeBody(payload)
			out.degraded = rerr != nil
			return out, err
		})
	})
}

// userView is the per-user payload: degree ranking plus the §IV
// verification-feature metrics the related work motivates serving
// per-account. Profile is nil (omitted) only when the dataset carries no
// profiles at all — a false/zero profile value always serializes, so
// "not verified" is distinguishable from "no profile recorded".
type userView struct {
	Rank      int              `json:"rank"`
	Node      int              `json:"node"`
	OutDegree int              `json:"out_degree"`
	InDegree  int              `json:"in_degree"`
	Profile   *userProfileView `json:"profile,omitempty"`
}

// userProfileView is the profile half of a per-user response.
type userProfileView struct {
	ScreenName string `json:"screen_name"`
	Name       string `json:"name"`
	Category   string `json:"category"`
	Verified   bool   `json:"verified"`
	Followers  int64  `json:"followers"`
	Friends    int64  `json:"friends"`
	Listed     int64  `json:"listed"`
	Statuses   int64  `json:"statuses"`
	Bio        string `json:"bio,omitempty"`
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	d, ok := s.pathDataset(w, r)
	if !ok {
		return
	}
	rank, node, ok := pathRank(w, r, d)
	if !ok {
		return
	}
	_, outDeg, inDeg := d.ranking()
	v := userView{
		Rank: rank, Node: node,
		OutDegree: outDeg[node], InDegree: inDeg[node],
	}
	if node < len(d.ds.Profiles) {
		p := d.ds.Profiles[node]
		v.Profile = &userProfileView{
			ScreenName: p.ScreenName,
			Name:       p.Name,
			Category:   p.Category.String(),
			Verified:   p.Verified,
			Followers:  p.Followers,
			Friends:    p.Friends,
			Listed:     p.Listed,
			Statuses:   p.Statuses,
			Bio:        p.Bio,
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// jobStatus is the polling payload for async runs.
type jobStatus struct {
	ID         string       `json:"id"`
	Dataset    string       `json:"dataset"`
	State      string       `json:"state"` // running | done | failed
	Created    time.Time    `json:"created"`
	StagesDone int          `json:"stages_done"`
	Stages     []stageState `json:"stages,omitempty"`
	Error      string       `json:"error,omitempty"`
	ResultURL  string       `json:"result_url,omitempty"`
}

// stageState is one completed stage in a job's progress.
type stageState struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	CacheHit   bool    `json:"cache_hit"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := jobStatus{ID: j.ID, Dataset: j.Dataset, Created: j.Created, State: "running"}
	if _, err, finished := j.result(); finished {
		if err != nil {
			st.State = "failed"
			st.Error = err.Error()
		} else {
			st.State = "done"
			st.ResultURL = "/v1/jobs/" + j.ID + "/result"
		}
	}
	timings := j.progressSnapshot()
	if len(timings) == 0 {
		// The job may have joined a run another request started; surface
		// that run's progress instead.
		if c, live := s.flight.peek(j.Key); live {
			timings = c.prog.snapshot()
		}
	}
	for _, tm := range timings {
		st.Stages = append(st.Stages, stageState{
			Name:       tm.Name,
			DurationMS: float64(tm.Duration.Microseconds()) / 1000,
			CacheHit:   tm.CacheHit,
		})
	}
	st.StagesDone = len(st.Stages)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	out, err, finished := j.result()
	if !finished {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %s still running", j.ID)
		return
	}
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	s.writeOutcome(w, j.Format, out)
}
