// Package fleet is the coordination layer that turns a set of eliteserve
// replicas into one fault-tolerant characterization service. The router
// rendezvous-hashes each request's cache identity — the same (dataset
// digest, options digest, stage subset, format) tuple the workers key
// their coalescer and result cache on — onto a stable worker order, so
// repeated requests for one identity land on one replica and its
// single-flight coalescing works fleet-wide, while a worker leaving never
// remaps identities between the survivors.
//
// Around that placement sits a degradation ladder, crossed one rung at a
// time as failures accumulate:
//
//  1. Retry: a failed attempt (transport error, injected drop, 5xx) is
//     retried on the next worker in hash order, under a budget, with
//     decorrelated-jitter backoff between attempts.
//  2. Hedge: warm GETs that dawdle past a latency trigger (a fixed
//     -hedge-after, or an adaptive p95 of recent successes) launch a
//     speculative second attempt; first response wins.
//  3. Breaker: per-worker consecutive failures trip a circuit breaker
//     mirroring the result cache's 3-strike design; an open breaker skips
//     the worker except for a periodic pass-through probe.
//  4. Eject: the health prober marks a worker down after consecutive
//     failed /healthz probes; it rejoins through a probation period where
//     any failure sends it straight back down.
//  5. Degrade: when every attempt fails — all replicas down or the budget
//     exhausted — the router serves the last-known-good body for the
//     identity from the shared cache directory, verbatim, with a Warning
//     header, rather than a 502.
//
// Only when there is no worker and no cached body does a request shed
// with 503 and a jittered Retry-After. Every rung is visible in
// /metrics (eliterouter_retries_total, _hedges_total, _failovers_total,
// _breaker_trips_total, _degraded_total, _shed_total, _worker_up).
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"elites/internal/cache"
	"elites/internal/faults"
	"elites/internal/mathx"
	"elites/internal/obs"
)

const (
	// maxRequestBody bounds the buffered client body (re-sent on every
	// retry and hedge attempt).
	maxRequestBody = 8 << 20
	// maxResponseBody bounds a buffered worker response.
	maxResponseBody = 64 << 20
	// latencyRingSize is how many recent GET latencies feed the adaptive
	// hedge trigger.
	latencyRingSize = 128
)

// Config configures a Router. Zero values take the documented defaults.
type Config struct {
	// Workers are the eliteserve base URLs ("http://127.0.0.1:9001" or
	// just "127.0.0.1:9001"). At least one is required.
	Workers []string

	// ProbeInterval is the health-probe cadence (default 500ms).
	ProbeInterval time.Duration
	// EjectAfter is how many consecutive failed probes eject an up worker
	// (default 3).
	EjectAfter int
	// ProbationProbes is the clean-probe streak that promotes a
	// readmitted worker from probation back to up (default 3).
	ProbationProbes int

	// Retries is the budget of extra sequential attempts after the first
	// (default 2).
	Retries int
	// RequestTimeout bounds one client request end to end, across all
	// attempts (default 60s).
	RequestTimeout time.Duration
	// BackoffBase and BackoffCap bound the decorrelated-jitter backoff
	// between retry attempts (defaults 25ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// HedgeAfter, when positive, is a fixed delay after which a warm GET
	// launches a speculative second attempt. When zero, the trigger is
	// adaptive: the p95 of recent successful GET latencies, active once
	// hedgeMinSamples have been observed.
	HedgeAfter time.Duration

	// CacheDir is the shared result-cache directory; the router stores
	// last-known-good bodies there for degraded serving. Empty disables
	// degradation to cached bodies.
	CacheDir string

	// Transport is the base RoundTripper (default http.DefaultTransport).
	Transport http.RoundTripper
	// Faults, when non-nil, injects network faults ("net:<host:port>"
	// points) into every probe and proxied attempt.
	Faults *faults.Injector
	// Seed feeds the backoff and Retry-After jitter streams.
	Seed uint64

	// Tracer, when non-nil, opens a root span per proxied request,
	// injects traceparent on every attempt (so worker spans share the
	// trace id), and serves the span buffer at GET /debug/traces.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives one structured record per proxied
	// request plus warnings for degradation-ladder transitions.
	Logger *slog.Logger
	// SlowRequest, when > 0 and Logger and Tracer are set, logs the full
	// span tree of requests at least this slow.
	SlowRequest time.Duration
}

func (c *Config) setDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ProbationProbes <= 0 {
		c.ProbationProbes = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
}

// Router proxies requests onto the worker fleet. It implements
// http.Handler and owns /healthz, /metrics and /fleet/workers itself;
// everything else is routed by identity.
type Router struct {
	cfg       Config
	workers   []*worker
	met       *fleetMetrics
	lkg       *lkgStore
	transport http.RoundTripper
	client    *http.Client

	jitterMu  sync.Mutex
	backoff   *mathx.RNG
	shedRNG   *mathx.RNG
	prevDelay time.Duration

	digestMu sync.RWMutex
	digests  map[string]uint64 // dataset id -> digest, learned from workers

	latMu    sync.Mutex
	latRing  [latencyRingSize]float64 // seconds
	latNext  int
	latCount int

	startOnce sync.Once
	closeOnce sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a Router over cfg.Workers. The health prober does not start
// until Start is called, so tests can drive probes synchronously.
func New(cfg Config) (*Router, error) {
	cfg.setDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	workers := make([]*worker, 0, len(cfg.Workers))
	seen := map[string]bool{}
	for _, raw := range cfg.Workers {
		w, err := newWorker(raw)
		if err != nil {
			return nil, err
		}
		if seen[w.name] {
			return nil, fmt.Errorf("fleet: duplicate worker %q", w.name)
		}
		seen[w.name] = true
		workers = append(workers, w)
	}
	lkg, err := newLKGStore(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	transport := cfg.Transport
	if cfg.Faults != nil {
		transport = &faultTransport{base: cfg.Transport, inj: cfg.Faults}
	}
	root := mathx.NewRNG(cfg.Seed)
	rt := &Router{
		cfg:       cfg,
		workers:   workers,
		met:       newFleetMetrics(time.Now()),
		lkg:       lkg,
		transport: transport,
		client:    &http.Client{Transport: transport},
		backoff:   root.Derive("fleet/backoff"),
		shedRNG:   root.Derive("fleet/retry-after"),
		prevDelay: cfg.BackoffBase,
		digests:   map[string]uint64{},
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	return rt, nil
}

// Start launches the background health prober. Close stops it.
func (rt *Router) Start() {
	rt.startOnce.Do(func() { go rt.probeLoop() })
}

// Close stops the health prober (idempotent; safe before Start).
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.probeStop) })
	rt.startOnce.Do(func() { close(rt.probeDone) })
	<-rt.probeDone
}

// ServeHTTP answers the router's own endpoints and proxies the rest.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		rt.handleHealthz(w)
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		rt.handleMetrics(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/fleet/workers":
		rt.handleWorkers(w)
	case r.URL.Path == "/debug/traces":
		rt.cfg.Tracer.ServeTraces(w, r)
	default:
		rt.proxy(w, r)
	}
}

func (rt *Router) infos() []workerInfo {
	infos := make([]workerInfo, len(rt.workers))
	for i, w := range rt.workers {
		infos[i] = w.info()
	}
	return infos
}

func (rt *Router) handleHealthz(w http.ResponseWriter) {
	available := 0
	for _, wk := range rt.workers {
		if wk.available() {
			available++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":            "ok",
		"workers":           len(rt.workers),
		"workers_available": available,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ct, om := obs.NegotiateExposition(r.Header)
	w.Header().Set("Content-Type", ct)
	rt.met.write(w, rt.infos(), om)
}

func (rt *Router) handleWorkers(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": rt.infos()})
}

// --- identity routing --------------------------------------------------------

// identityKey maps a request to its rendezvous key and route class.
// Dataset requests hash the dataset's content digest (learned from the
// workers' own listings, so the key matches the workers' cache identity)
// plus the path and the result-shaping query parameters; job requests
// hash the job id, which is itself content-addressed by the workers.
// retryOn404 marks the jobs scatter: a 404 is retried on the next worker
// (the job may have been created there before a topology change) without
// feeding the failure machinery.
func (rt *Router) identityKey(r *http.Request) (key uint64, class string, retryOn404, cacheable bool) {
	p := r.URL.Path
	h := cache.NewHasher()
	h.String("fleet/identity")
	switch {
	case strings.HasPrefix(p, "/v1/jobs/"):
		id := strings.TrimPrefix(p, "/v1/jobs/")
		if i := strings.IndexByte(id, '/'); i >= 0 {
			id = id[:i]
		}
		h.String("job")
		h.String(id)
		return h.Sum(), "jobs", true, false
	case strings.HasPrefix(p, "/v1/datasets/"):
		id := strings.TrimPrefix(p, "/v1/datasets/")
		if i := strings.IndexByte(id, '/'); i >= 0 {
			id = id[:i]
		}
		q := r.URL.Query()
		h.String("dataset")
		h.Word(rt.datasetDigest(id))
		h.String(p)
		h.String(q.Get("stages"))
		h.String(q.Get("format"))
		return h.Sum(), "datasets", false, r.Method == http.MethodGet
	case p == "/v1/datasets":
		h.String("listing")
		return h.Sum(), "datasets", false, r.Method == http.MethodGet
	default:
		h.String("path")
		h.String(p)
		h.String(r.URL.RawQuery)
		return h.Sum(), "other", false, false
	}
}

// datasetDigest returns the learned content digest for a dataset id, or a
// stable hash of the id before any worker has reported one. Both sides of
// the fallback are deterministic, so routing is stable either way.
func (rt *Router) datasetDigest(id string) uint64 {
	rt.digestMu.RLock()
	d, ok := rt.digests[id]
	rt.digestMu.RUnlock()
	if ok {
		return d
	}
	h := cache.NewHasher()
	h.String("fleet/dataset-id")
	h.String(id)
	return h.Sum()
}

// --- proxying ----------------------------------------------------------------

// attemptResult is one worker's answer (or failure) for one attempt.
type attemptResult struct {
	idx  int
	w    *worker
	resp *upstreamResponse
	err  error
}

// statusRecorder captures the written status code for metrics/tracing.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

// proxy instruments one routed request — root span (continuing any
// incoming traceparent), per-request metrics with trace-id exemplar,
// structured log record, slow-request span-tree dump — around the
// routing machinery in proxyRouted.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := rt.cfg.Tracer.StartFromHeader(r.Header, "router.request")
	if sp != nil {
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
	}
	rec := &statusRecorder{ResponseWriter: w}
	class := rt.proxyRouted(rec, r, start)
	code := rec.status
	if code == 0 {
		// Nothing written: the client went away mid-request.
		code = 499
	}
	dur := time.Since(start)
	traceID := ""
	if sp != nil {
		traceID = sp.TraceID().String()
		sp.SetAttr("class", class)
		sp.SetAttrInt("status", code)
		sp.End()
	}
	rt.met.observeRequest(class, code, dur, traceID)
	if lg := rt.cfg.Logger; lg != nil {
		l := obs.WithSpan(lg, sp)
		l.Info("request",
			"class", class, "method", r.Method, "path", r.URL.Path,
			"status", code, "dur_ms", float64(dur.Microseconds())/1000)
		if rt.cfg.SlowRequest > 0 && dur >= rt.cfg.SlowRequest && sp != nil {
			l.Warn("slow request",
				"threshold", rt.cfg.SlowRequest.String(),
				"span_tree", "\n"+obs.RenderTree(rt.cfg.Tracer.TraceSpans(traceID)))
		}
	}
}

// proxyRouted is the routing body: identity, attempts, degradation. It
// returns the route class for the metrics series.
func (rt *Router) proxyRouted(w http.ResponseWriter, r *http.Request, start time.Time) string {
	key, class, retryOn404, cacheable := rt.identityKey(r)

	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading request body: " + err.Error()})
			return class
		}
		if len(body) > maxRequestBody {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "request body too large"})
			return class
		}
	}

	order := rendezvousOrder(rt.workers, key)
	candidates := make([]*worker, 0, len(order))
	for _, wk := range order {
		if wk.selectable() {
			candidates = append(candidates, wk)
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	res := rt.runAttempts(ctx, r, candidates, body, retryOn404)
	if res == nil {
		rt.degrade(w, r, key, cacheable)
		return class
	}

	if res.idx > 0 {
		rt.met.addFailover()
	}
	if r.Method == http.MethodGet && res.resp.status == http.StatusOK {
		rt.observeLatency(time.Since(start))
		if cacheable && res.resp.header.Get("Warning") == "" {
			rt.lkg.put(key, res.resp.header.Get("Content-Type"), res.resp.body)
		}
	}
	res.resp.copyHeaders(w.Header())
	w.Header().Set("X-Elites-Worker", res.w.name)
	w.WriteHeader(res.resp.status)
	w.Write(res.resp.body)
	return class
}

// runAttempts walks the candidate list: sequential budgeted retries on
// failure (with decorrelated-jitter backoff), plus at most one hedged
// attempt for GETs that outlive the latency trigger. It returns the
// winning result, or nil when every attempt failed (the degrade path).
func (rt *Router) runAttempts(ctx context.Context, r *http.Request, candidates []*worker, body []byte, retryOn404 bool) *attemptResult {
	if len(candidates) == 0 {
		return nil
	}
	pathq := r.URL.Path
	if r.URL.RawQuery != "" {
		pathq += "?" + r.URL.RawQuery
	}

	sp := obs.SpanFromContext(ctx)
	resc := make(chan attemptResult, len(candidates))
	launched := 0
	launch := func(hedge bool) bool {
		if launched >= len(candidates) {
			return false
		}
		wk, idx := candidates[launched], launched
		launched++
		go rt.attempt(ctx, wk, idx, hedge, r, pathq, body, resc)
		return true
	}

	launch(false)
	outstanding := 1
	retriesUsed := 0
	hedged := false
	canHedge := r.Method == http.MethodGet
	var hedgeC <-chan time.Time
	if d, ok := rt.hedgeDelay(); ok && canHedge && len(candidates) > 1 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}

	for outstanding > 0 {
		select {
		case res := <-resc:
			outstanding--
			v, tripped := rt.classify(&res, retryOn404)
			if tripped {
				sp.AddEvent("breaker.open", "worker", res.w.name)
				if lg := rt.cfg.Logger; lg != nil {
					obs.WithSpan(lg, sp).Warn("breaker open", "worker", res.w.name)
				}
			}
			switch v {
			case verdictServe:
				return &res
			case verdictSoft:
				// Jobs scatter: the worker is healthy, the job just is
				// not there. Try the next worker immediately; if the
				// scatter is exhausted, the 404 stands.
				if outstanding == 0 && !launch(false) {
					return &res
				}
				if outstanding == 0 {
					outstanding++
				}
			case verdictRetry:
				if outstanding > 0 {
					continue // a hedge is still in flight; let it answer
				}
				if retriesUsed >= rt.cfg.Retries {
					return nil
				}
				if !rt.backoffSleep(ctx) {
					return nil
				}
				if !launch(false) {
					return nil
				}
				retriesUsed++
				outstanding++
				rt.met.addRetry()
				sp.AddEvent("retry", "failed_worker", res.w.name)
			}
		case <-hedgeC:
			hedgeC = nil
			if !hedged && launch(true) {
				hedged = true
				outstanding++
				rt.met.addHedge()
				sp.AddEvent("hedge")
			}
		case <-ctx.Done():
			return nil
		}
	}
	return nil
}

type verdict int

const (
	verdictServe verdict = iota
	verdictRetry
	verdictSoft
)

// classify turns one attempt outcome into a verdict and feeds the
// worker's failure accounting. Transport errors and 5xx answers are
// worker faults (breaker input); 429 is a healthy-but-busy signal,
// retried without blaming the worker; a jobs-scatter 404 is soft.
// tripped reports whether this failure opened the worker's breaker.
func (rt *Router) classify(res *attemptResult, retryOn404 bool) (v verdict, tripped bool) {
	switch {
	case res.err != nil:
		return verdictRetry, res.w.noteRequestFailure()
	case res.resp.status >= 500:
		return verdictRetry, res.w.noteRequestFailure()
	case res.resp.status == http.StatusTooManyRequests:
		res.w.noteRequestSuccess()
		return verdictRetry, false
	case res.resp.status == http.StatusNotFound && retryOn404:
		res.w.noteRequestSuccess()
		return verdictSoft, false
	default:
		res.w.noteRequestSuccess()
		return verdictServe, false
	}
}

// attempt sends one request to one worker and reports on resc. Each
// attempt gets its own child span (hedged attempts are siblings with a
// hedge=true attr), and that span's traceparent is injected upstream so
// the worker's serve/pipeline spans continue the same trace.
func (rt *Router) attempt(ctx context.Context, wk *worker, idx int, hedge bool, r *http.Request, pathq string, body []byte, resc chan<- attemptResult) {
	asp := obs.SpanFromContext(ctx).Child("router.attempt")
	asp.SetAttr("worker", wk.name)
	asp.SetAttrInt("attempt", idx)
	if hedge {
		asp.SetAttrBool("hedge", true)
	}
	finish := func(res attemptResult) {
		switch {
		case res.err != nil:
			asp.SetAttr("error", res.err.Error())
			if errors.Is(res.err, faults.ErrInjected) {
				asp.AddEvent("fault.injected")
			}
		case res.resp != nil:
			asp.SetAttrInt("status", res.resp.status)
		}
		asp.End()
		resc <- res
	}

	req, err := http.NewRequestWithContext(ctx, r.Method, wk.url.String()+pathq, bodyReader(body))
	if err != nil {
		finish(attemptResult{idx: idx, w: wk, err: err})
		return
	}
	for _, k := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	obs.InjectHeader(req.Header, asp)
	resp, err := rt.client.Do(req)
	if err != nil {
		finish(attemptResult{idx: idx, w: wk, err: err})
		return
	}
	ur, err := readResponse(resp)
	finish(attemptResult{idx: idx, w: wk, resp: ur, err: err})
}

// backoffSleep waits one decorrelated-jitter interval:
// d = min(cap, uniform(base, 3*prev)). Returns false if ctx expired.
func (rt *Router) backoffSleep(ctx context.Context) bool {
	rt.jitterMu.Lock()
	base, hi := rt.cfg.BackoffBase, 3*rt.prevDelay
	if hi < base {
		hi = base
	}
	if hi > rt.cfg.BackoffCap {
		hi = rt.cfg.BackoffCap
	}
	d := base
	if span := hi - base; span > 0 {
		d = base + time.Duration(rt.backoff.Intn(int(span)))
	}
	rt.prevDelay = d
	rt.jitterMu.Unlock()

	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryAfterSeconds is the equal-jitter Retry-After for shed responses
// (1 or 2 seconds over a 2s base), so synchronized clients spread out.
func (rt *Router) retryAfterSeconds() int {
	rt.jitterMu.Lock()
	defer rt.jitterMu.Unlock()
	return 1 + rt.shedRNG.Intn(2)
}

// --- hedging -----------------------------------------------------------------

// observeLatency records one successful GET latency for the adaptive
// hedge trigger.
func (rt *Router) observeLatency(d time.Duration) {
	rt.latMu.Lock()
	rt.latRing[rt.latNext] = d.Seconds()
	rt.latNext = (rt.latNext + 1) % latencyRingSize
	if rt.latCount < latencyRingSize {
		rt.latCount++
	}
	rt.latMu.Unlock()
}

// hedgeMinSamples is how many successful GET latencies the adaptive hedge
// trigger needs before its p95 is trusted.
const hedgeMinSamples = 20

// hedgeDelay returns the current hedge trigger: the fixed HedgeAfter if
// configured, otherwise the p95 of recent successful GET latencies once
// enough samples exist. ok=false disables hedging for this request.
func (rt *Router) hedgeDelay() (time.Duration, bool) {
	if rt.cfg.HedgeAfter > 0 {
		return rt.cfg.HedgeAfter, true
	}
	rt.latMu.Lock()
	n := rt.latCount
	if n < hedgeMinSamples {
		rt.latMu.Unlock()
		return 0, false
	}
	samples := make([]float64, n)
	copy(samples, rt.latRing[:n])
	rt.latMu.Unlock()
	sort.Float64s(samples)
	p95 := samples[(n*95)/100]
	d := time.Duration(p95 * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, true
}

// --- degradation -------------------------------------------------------------

// degrade is the bottom of the ladder: every attempt failed. GETs with a
// last-known-good body serve those exact bytes (byte-identical to the
// last healthy response for this identity) with a Warning header;
// everything else sheds with 503 + jittered Retry-After.
func (rt *Router) degrade(w http.ResponseWriter, r *http.Request, key uint64, cacheable bool) {
	sp := obs.SpanFromContext(r.Context())
	if r.Method == http.MethodGet && cacheable {
		if ct, body, ok := rt.lkg.get(key); ok {
			if ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.Header().Set("Warning", `199 eliterouter "degraded: serving last-known-good cached response"`)
			w.Header().Set("X-Elites-Degraded", "true")
			w.WriteHeader(http.StatusOK)
			w.Write(body)
			rt.met.addDegraded()
			sp.AddEvent("degraded")
			if lg := rt.cfg.Logger; lg != nil {
				obs.WithSpan(lg, sp).Warn("degraded response", "path", r.URL.Path)
			}
			return
		}
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", rt.retryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": "no worker available and no cached response",
	})
	rt.met.addShed()
	sp.AddEvent("shed")
	if lg := rt.cfg.Logger; lg != nil {
		obs.WithSpan(lg, sp).Warn("request shed", "path", r.URL.Path)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
