package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elites/internal/obs"
)

// layers is the traced run's instrumentation. Every hook sits outside the
// program: a handler around the router, a RoundTripper handed to the
// router as fleet.Config.Transport, a handler around the worker, and the
// Tracer fields of the router and worker configs. Each hook opens an
// obs span of the benchmark's own and records the durations it measures;
// all tracers write JSON lines into one in-memory sink.
type layers struct {
	sink  *spanBuffer
	bench *obs.Tracer

	mu         sync.Mutex
	routerSelf []float64 // ms: router ServeHTTP minus its round-trips
	routed     int       // requests through the router
	roundTrips int       // router → worker round-trips
	handler    map[string][]float64
}

func newLayers() *layers {
	l := &layers{sink: &spanBuffer{}, handler: map[string][]float64{}}
	l.bench = l.newTracer("e2ebench")
	return l
}

// newTracer returns a tracer that shares the run's span sink.
func (l *layers) newTracer(name string) *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Name: name, Seed: 42, Sink: l.sink})
}

// reset drops the request-path samples gathered so far (spans stay).
func (l *layers) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.routerSelf, l.routed, l.roundTrips = nil, 0, 0
	l.handler = map[string][]float64{}
}

// roundTripKey carries a per-request accumulator from the router hook to
// the transport hook through the request context (the router derives
// every attempt's context from the incoming request's).
type roundTripKey struct{}

type roundTrips struct {
	n   atomic.Int64
	dur atomic.Int64 // ns
}

// wrapRouter times fleet.Router.ServeHTTP. The span's traceparent is
// injected into the request so the router's own spans, the worker's and
// the pipeline's continue the same trace.
func (l *layers) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		acc := &roundTrips{}
		sp := l.bench.StartFromHeader(r.Header, "fleet.Router.ServeHTTP")
		obs.InjectHeader(r.Header, sp)
		ctx := context.WithValue(obs.ContextWithSpan(r.Context(), sp), roundTripKey{}, acc)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		d := time.Since(start)
		sp.End()
		self := d - time.Duration(acc.dur.Load())
		l.mu.Lock()
		l.routerSelf = append(l.routerSelf, ms(self))
		l.routed++
		l.roundTrips += int(acc.n.Load())
		l.mu.Unlock()
	})
}

// timedTransport times each router → worker round-trip up to the moment
// the router has read and closed the body.
type timedTransport struct {
	base http.RoundTripper
	l    *layers
}

func (l *layers) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return &timedTransport{base: base, l: l}
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	acc, _ := req.Context().Value(roundTripKey{}).(*roundTrips)
	if acc == nil {
		// Health probes and digest learning: not part of any request.
		return t.base.RoundTrip(req)
	}
	sp := obs.SpanFromContext(req.Context()).Child("fleet.Transport.RoundTrip")
	start := time.Now()
	done := func() {
		acc.n.Add(1)
		acc.dur.Add(int64(time.Since(start)))
		sp.End()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// wrapWorker times serve.Server.ServeHTTP per endpoint class. The
// worker's own spans continue from this one.
func (l *layers) wrapWorker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := endpointClass(r.URL.Path)
		if class == "" {
			h.ServeHTTP(w, r)
			return
		}
		sp := l.bench.StartFromHeader(r.Header, "serve.Server.ServeHTTP")
		sp.SetAttr("class", class)
		obs.InjectHeader(r.Header, sp)
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		sp.End()
		l.mu.Lock()
		l.handler[class] = append(l.handler[class], ms(d))
		l.mu.Unlock()
	})
}

// endpointClasses are the worker routes the warm mix exercises, named as
// eliteserve's own route labels.
var endpointClasses = []string{"report", "stage", "user", "user_features", "users_batch"}

// endpointClass maps a dataset path onto its route label ("" for
// anything else: health, metrics, listings).
func endpointClass(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/datasets/")
	if !ok {
		return ""
	}
	rest, _, _ = strings.Cut(rest, "?")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 2 && parts[1] == "users:batch":
		return "users_batch"
	case len(parts) == 2 && parts[1] == "report":
		return "report"
	case len(parts) == 3 && parts[1] == "stages":
		return "stage"
	case len(parts) == 3 && parts[1] == "users":
		return "user"
	case len(parts) == 4 && parts[1] == "users" && parts[3] == "features":
		return "user_features"
	}
	return ""
}

// requestPath is what the traced run reports from its warm phase.
type requestPath struct {
	routerSelf []float64
	routed     int
	roundTrips int
	handler    map[string][]float64
}

func (l *layers) requestPath() requestPath {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := make(map[string][]float64, len(l.handler))
	for k, v := range l.handler {
		h[k] = append([]float64(nil), v...)
	}
	return requestPath{
		routerSelf: append([]float64(nil), l.routerSelf...),
		routed:     l.routed, roundTrips: l.roundTrips, handler: h,
	}
}

// --- pipeline spans ----------------------------------------------------------

// pipelineRun is one battery run read back from a worker's spans: the
// "pipeline" span and its "stage.<name>" children (core synthesizes one
// per executed stage, with a cache_hit attribute).
type pipelineRun struct {
	wall   float64            // s
	stages map[string]float64 // stage name → s
	hits   map[string]bool
}

// stageSum is the summed duration of the run's stages, in seconds.
func (p pipelineRun) stageSum() float64 {
	s := 0.0
	for _, d := range p.stages {
		s += d
	}
	return s
}

// hydrate is the summed duration of the stages served from the cache.
func (p pipelineRun) hydrate() float64 {
	s := 0.0
	for name, d := range p.stages {
		if p.hits[name] {
			s += d
		}
	}
	return s
}

// pipelineRuns extracts every pipeline run from recs, in start order.
func pipelineRuns(recs []obs.SpanRecord) []pipelineRun {
	recs = append([]obs.SpanRecord(nil), recs...)
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].StartUS < recs[b].StartUS })
	byID := map[string]*pipelineRun{}
	var order []string
	for _, r := range recs {
		if r.Name == "pipeline" {
			byID[r.Span] = &pipelineRun{
				wall:   float64(r.DurUS) / 1e6,
				stages: map[string]float64{}, hits: map[string]bool{},
			}
			order = append(order, r.Span)
		}
	}
	for _, r := range recs {
		name, ok := strings.CutPrefix(r.Name, "stage.")
		if !ok {
			continue
		}
		if p := byID[r.Parent]; p != nil {
			p.stages[name] += float64(r.DurUS) / 1e6
			p.hits[name] = r.Attrs["cache_hit"] == "true"
		}
	}
	out := make([]pipelineRun, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}
