package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"elites/internal/cache"
)

// newTestRouter builds a Router with fast test timings over worker URLs.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 2 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // probes driven manually via ProbeNow
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// behaviorSet maps worker host:port -> handler behavior, shared by every
// fake worker in a test so behaviors can be assigned after the rendezvous
// order is known.
type behaviorSet struct {
	mu sync.Mutex
	m  map[string]http.HandlerFunc
}

func newBehaviorSet() *behaviorSet { return &behaviorSet{m: map[string]http.HandlerFunc{}} }

func (b *behaviorSet) set(addr string, h http.HandlerFunc) {
	b.mu.Lock()
	b.m[addr] = h
	b.mu.Unlock()
}

func (b *behaviorSet) handler(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	h := b.m[r.Host]
	b.mu.Unlock()
	if h == nil {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "default from %s", r.Host)
		return
	}
	h(w, r)
}

// fakeFleet spins up n fake workers over one behaviorSet.
func fakeFleet(t *testing.T, n int) (*behaviorSet, []string) {
	t.Helper()
	bs := newBehaviorSet()
	addrs := make([]string, n)
	for i := range addrs {
		ts := httptest.NewServer(http.HandlerFunc(bs.handler))
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return bs, addrs
}

func respondText(code int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}
}

// orderFor returns the router's rendezvous order for a request path.
func orderFor(rt *Router, method, target string) []*worker {
	req := httptest.NewRequest(method, target, nil)
	key, _, _, _ := rt.identityKey(req)
	return rendezvousOrder(rt.workers, key)
}

func doGet(rt *Router, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// --- placement ---------------------------------------------------------------

// TestRendezvousStability: ranking is deterministic, spreads identities
// across workers, and removing a worker never reorders the survivors —
// the property that keeps cache identities pinned through topology churn.
func TestRendezvousStability(t *testing.T) {
	var workers []*worker
	for i := 0; i < 5; i++ {
		w, err := newWorker(fmt.Sprintf("10.0.0.%d:9000", i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	primaries := map[string]int{}
	for k := 0; k < 200; k++ {
		h := cache.NewHasher()
		h.String("test/key")
		h.Word(uint64(k))
		key := h.Sum()

		o1 := rendezvousOrder(workers, key)
		o2 := rendezvousOrder(workers, key)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("key %d: order not deterministic", k)
			}
		}
		primaries[o1[0].name]++

		// Drop the primary: the survivors keep their relative order.
		survivors := make([]*worker, 0, len(workers)-1)
		for _, w := range workers {
			if w != o1[0] {
				survivors = append(survivors, w)
			}
		}
		after := rendezvousOrder(survivors, key)
		for i := range after {
			if after[i] != o1[i+1] {
				t.Fatalf("key %d: removal remapped survivors (pos %d: %s != %s)",
					k, i, after[i].name, o1[i+1].name)
			}
		}
	}
	// Placement is reasonably spread: every worker owns something.
	if len(primaries) != len(workers) {
		t.Fatalf("placement collapsed: only %d of %d workers are primaries: %v",
			len(primaries), len(workers), primaries)
	}
}

// TestIdentityKeySeparation: the stage subset, format and dataset digest
// are all part of the routed identity, matching the workers' cache keys.
func TestIdentityKeySeparation(t *testing.T) {
	_, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	keyOf := func(target string) uint64 {
		k, _, _, _ := rt.identityKey(httptest.NewRequest(http.MethodGet, target, nil))
		return k
	}
	base := keyOf("/v1/datasets/demo/report?stages=summary")
	if keyOf("/v1/datasets/demo/report?stages=summary") != base {
		t.Fatal("identity key not deterministic")
	}
	if keyOf("/v1/datasets/demo/report?stages=summary,degree") == base {
		t.Fatal("stage subset does not separate identities")
	}
	if keyOf("/v1/datasets/demo/report?stages=summary&format=text") == base {
		t.Fatal("format does not separate identities")
	}

	// Learning a digest moves the dataset's identities (now keyed by
	// content, like the workers' own cache).
	rt.digestMu.Lock()
	rt.digests["demo"] = 0xfeed
	rt.digestMu.Unlock()
	if keyOf("/v1/datasets/demo/report?stages=summary") == base {
		t.Fatal("learned digest did not change the identity key")
	}
}

// --- worker state machine ----------------------------------------------------

func TestWorkerHealthStateMachine(t *testing.T) {
	w, err := newWorker("127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	const eject, probation = 3, 3

	// up -> down takes eject consecutive failures.
	for i := 0; i < eject-1; i++ {
		if ejected, _ := w.noteProbe(false, eject, probation); ejected {
			t.Fatalf("ejected after only %d failures", i+1)
		}
	}
	if ejected, _ := w.noteProbe(false, eject, probation); !ejected || w.available() {
		t.Fatal("not ejected at the threshold")
	}

	// down -> probation on the first healthy probe; traffic flows again.
	if _, readmitted := w.noteProbe(true, eject, probation); !readmitted || !w.available() {
		t.Fatal("healthy probe did not readmit to probation")
	}

	// Any failure during probation goes straight back down.
	if ejected, _ := w.noteProbe(false, eject, probation); !ejected || w.available() {
		t.Fatal("probation failure did not re-eject")
	}

	// Full recovery: readmit, then a clean streak promotes to up.
	w.noteProbe(true, eject, probation)
	w.noteProbe(true, eject, probation)
	w.noteProbe(true, eject, probation)
	w.mu.Lock()
	st := w.state
	w.mu.Unlock()
	if st != stateUp {
		t.Fatalf("state after clean streak = %v, want up", st)
	}

	// A request failure during probation also re-ejects.
	w.noteProbe(false, eject, probation)
	w.noteProbe(false, eject, probation)
	w.noteProbe(false, eject, probation)
	w.noteProbe(true, eject, probation) // probation again
	w.noteRequestFailure()
	if w.available() {
		t.Fatal("request failure during probation did not re-eject")
	}
}

func TestWorkerBreaker(t *testing.T) {
	w, err := newWorker("127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerTripAfter-1; i++ {
		if tripped := w.noteRequestFailure(); tripped {
			t.Fatalf("breaker tripped after only %d failures", i+1)
		}
	}
	if !w.noteRequestFailure() {
		t.Fatalf("breaker did not trip at %d consecutive failures", breakerTripAfter)
	}

	// While open, only every breakerProbeAfter-th selection passes.
	passed := 0
	for i := 1; i <= 2*breakerProbeAfter; i++ {
		if w.selectable() {
			passed++
			if i%breakerProbeAfter != 0 {
				t.Fatalf("selection %d passed an open breaker off-cadence", i)
			}
		}
	}
	if passed != 2 {
		t.Fatalf("%d probe selections in %d asks, want 2", passed, 2*breakerProbeAfter)
	}

	// One success closes it.
	w.noteRequestSuccess()
	if !w.selectable() {
		t.Fatal("breaker still open after a success")
	}
}

// --- routing behaviors -------------------------------------------------------

// TestRetryFailsOverToNextWorker: a 5xx from the rendezvous primary is
// retried on the next worker in hash order and feeds the primary's
// failure accounting.
func TestRetryFailsOverToNextWorker(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, respondText(http.StatusInternalServerError, `{"error":"boom"}`))
	bs.set(order[1].name, respondText(http.StatusOK, "ok from backup"))

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok from backup" {
		t.Fatalf("failover response: %d %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Elites-Worker"); got != order[1].name {
		t.Fatalf("served by %q, want backup %q", got, order[1].name)
	}
	retries, _, failovers, _, _ := rt.met.counters()
	if retries != 1 || failovers != 1 {
		t.Fatalf("retries=%d failovers=%d, want 1/1", retries, failovers)
	}
	if info := order[0].info(); info.Failures != 1 {
		t.Fatalf("primary failures = %d, want 1", info.Failures)
	}
}

// TestRetryBudgetExhaustion: with every worker failing and no cached
// body, the request sheds with 503 + equal-jitter Retry-After — never a
// hung connection, never a raw 502.
func TestRetryBudgetExhaustion(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs, Retries: 2})
	for _, a := range addrs {
		bs.set(a, respondText(http.StatusBadGateway, "down"))
	}

	rec := doGet(rt, "/v1/datasets/demo/report?stages=summary")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted budget: %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 2 {
		t.Fatalf("Retry-After = %q, want jittered 1..2", rec.Header().Get("Retry-After"))
	}
	_, _, _, _, shed := rt.met.counters()
	if shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
}

// TestHedgedRead: a GET whose primary dawdles past the hedge trigger is
// answered by a speculative attempt on the next worker.
func TestHedgedRead(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs, HedgeAfter: 10 * time.Millisecond})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		fmt.Fprint(w, "slow primary")
	})
	bs.set(order[1].name, respondText(http.StatusOK, "fast hedge"))

	start := time.Now()
	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "fast hedge" {
		t.Fatalf("hedged response: %d %q", rec.Code, rec.Body.String())
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("hedge did not cut latency: %v", d)
	}
	_, hedges, failovers, _, _ := rt.met.counters()
	if hedges != 1 || failovers != 1 {
		t.Fatalf("hedges=%d failovers=%d, want 1/1", hedges, failovers)
	}
}

// TestDegradedServesLastKnownGood: after a clean response is recorded,
// total fleet failure serves those exact bytes with a Warning header and
// a 200 — the acceptance bar is byte-identity, not similarity.
func TestDegradedServesLastKnownGood(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs, CacheDir: t.TempDir()})

	const target = "/v1/datasets/demo/report?stages=summary"
	clean := `{"summary":{"nodes":400}}`
	for _, a := range addrs {
		bs.set(a, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, clean)
		})
	}
	if rec := doGet(rt, target); rec.Code != http.StatusOK {
		t.Fatalf("warm request: %d", rec.Code)
	}

	// The fleet dies.
	for _, a := range addrs {
		bs.set(a, respondText(http.StatusInternalServerError, "dead"))
	}
	rec := doGet(rt, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request: %d, want 200", rec.Code)
	}
	if rec.Body.String() != clean {
		t.Fatalf("degraded body %q not byte-identical to clean body %q", rec.Body.String(), clean)
	}
	if rec.Header().Get("X-Elites-Degraded") != "true" ||
		!strings.Contains(rec.Header().Get("Warning"), "last-known-good") {
		t.Fatalf("degraded markers missing: %v", rec.Header())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("degraded Content-Type = %q", ct)
	}
	_, _, _, degraded, shed := rt.met.counters()
	if degraded != 1 || shed != 0 {
		t.Fatalf("degraded=%d shed=%d, want 1/0", degraded, shed)
	}

	// A degraded body must never refresh the last-known-good store: the
	// Warning-bearing 200 is not a clean observation. (Worker-degraded
	// bodies carry Warning too and are likewise not recorded.)
	rec2 := doGet(rt, target)
	if rec2.Code != http.StatusOK || rec2.Body.String() != clean {
		t.Fatalf("second degraded read: %d %q", rec2.Code, rec2.Body.String())
	}
}

// TestLastKnownGoodWrittenOncePerBody: an unchanged clean body is not
// rewritten to the last-known-good store on every GET — deleting the entry
// file after the first request and proxying again must not recreate it —
// while degraded serving still replays the stored bytes.
func TestLastKnownGoodWrittenOncePerBody(t *testing.T) {
	bs, addrs := fakeFleet(t, 1)
	dir := t.TempDir()
	rt := newTestRouter(t, Config{Workers: addrs, CacheDir: dir})
	defer cache.Release(dir)

	const target = "/v1/datasets/demo/report?stages=summary"
	clean := `{"summary":{"nodes":400}}`
	bs.set(addrs[0], respondText(http.StatusOK, clean))
	if rec := doGet(rt, target); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d", rec.Code)
	}
	files, err := filepath.Glob(filepath.Join(dir, "routerlkg-*.bin"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one last-known-good file after the first GET, got %v (err %v)", files, err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if rec := doGet(rt, target); rec.Code != http.StatusOK || rec.Body.String() != clean {
		t.Fatalf("second request: %d %q", rec.Code, rec.Body.String())
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("unchanged body rewrote %s (stat err %v)", files[0], err)
	}

	bs.set(addrs[0], respondText(http.StatusInternalServerError, "dead"))
	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != clean ||
		rec.Header().Get("X-Elites-Degraded") != "true" {
		t.Fatalf("degraded read: %d %q %v", rec.Code, rec.Body.String(), rec.Header())
	}
}

// TestJobsScatter: job lookups are routed by job id, and a 404 (the job
// lives on another worker after topology churn) scatters to the next
// worker without feeding the failure machinery.
func TestJobsScatter(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	const target = "/v1/jobs/abc123"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, respondText(http.StatusNotFound, `{"error":"unknown job"}`))
	bs.set(order[1].name, respondText(http.StatusOK, `{"state":"done"}`))

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "done") {
		t.Fatalf("scattered job lookup: %d %q", rec.Code, rec.Body.String())
	}
	if info := order[0].info(); info.Failures != 0 {
		t.Fatalf("scatter 404 counted as a worker failure: %+v", info)
	}
	retries, _, _, _, _ := rt.met.counters()
	if retries != 0 {
		t.Fatalf("scatter counted as a retry: %d", retries)
	}

	// Nobody has the job: the 404 stands (it is an answer, not a fault).
	bs.set(order[1].name, respondText(http.StatusNotFound, `{"error":"unknown job"}`))
	if rec := doGet(rt, target); rec.Code != http.StatusNotFound {
		t.Fatalf("exhausted scatter: %d, want 404", rec.Code)
	}
}

// --- health probing ----------------------------------------------------------

// healthToggle is a fake worker health surface with a flippable state.
type healthToggle struct {
	mu      sync.Mutex
	healthy map[string]bool
}

func (h *healthToggle) handler(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	ok := h.healthy[r.Host]
	h.mu.Unlock()
	switch {
	case r.URL.Path == "/healthz" && ok:
		fmt.Fprint(w, `{"status":"ok"}`)
	case r.URL.Path == "/healthz":
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"draining"}`)
	case r.URL.Path == "/v1/datasets":
		fmt.Fprint(w, `{"datasets":[{"id":"demo","digest":"00000000000000ff"}]}`)
	default:
		w.WriteHeader(http.StatusOK)
	}
}

func (h *healthToggle) set(addr string, ok bool) {
	h.mu.Lock()
	h.healthy[addr] = ok
	h.mu.Unlock()
}

// TestProbeEjectionAndReadmission walks the full health cycle: eject
// after consecutive probe failures, readmit to probation on recovery,
// promote to up after a clean streak — with the transitions visible in
// /metrics and /fleet/workers.
func TestProbeEjectionAndReadmission(t *testing.T) {
	ht := &healthToggle{healthy: map[string]bool{}}
	ts1 := httptest.NewServer(http.HandlerFunc(ht.handler))
	ts2 := httptest.NewServer(http.HandlerFunc(ht.handler))
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)
	a1 := strings.TrimPrefix(ts1.URL, "http://")
	a2 := strings.TrimPrefix(ts2.URL, "http://")
	ht.set(a1, true)
	ht.set(a2, true)

	rt := newTestRouter(t, Config{Workers: []string{a1, a2}, EjectAfter: 3, ProbationProbes: 3})
	ctx := context.Background()

	rt.ProbeNow(ctx)
	if d := rt.datasetDigest("demo"); d != 0xff {
		t.Fatalf("digest learning: got %#x, want 0xff", d)
	}

	// Worker 2 turns unhealthy (e.g. draining): three probe failures eject.
	ht.set(a2, false)
	for i := 0; i < 3; i++ {
		rt.ProbeNow(ctx)
	}
	var w2 *worker
	for _, w := range rt.workers {
		if w.name == a2 {
			w2 = w
		}
	}
	if w2.available() {
		t.Fatal("unhealthy worker not ejected after 3 probe failures")
	}
	rec := doGet(rt, "/metrics")
	body := rec.Body.String()
	if !strings.Contains(body, fmt.Sprintf("eliterouter_worker_up{worker=%q} 0", a2)) ||
		!strings.Contains(body, "eliterouter_workers_available 1") {
		t.Fatalf("metrics do not show the ejection:\n%s", body)
	}

	// Recovery: first healthy probe readmits (traffic flows, probation),
	// two more promote to up.
	ht.set(a2, true)
	rt.ProbeNow(ctx)
	if !w2.available() {
		t.Fatal("healthy probe did not readmit")
	}
	if st := w2.info().State; st != "probation" {
		t.Fatalf("state after readmission = %q, want probation", st)
	}
	rt.ProbeNow(ctx)
	rt.ProbeNow(ctx)
	if st := w2.info().State; st != "up" {
		t.Fatalf("state after clean streak = %q, want up", st)
	}
	if !strings.Contains(doGet(rt, "/metrics").Body.String(), "eliterouter_readmissions_total 1") {
		t.Fatal("readmission not counted")
	}
}

// TestDownWorkerReceivesNoTraffic: requests for an identity whose primary
// is down go straight to the backup, with no retry spent.
func TestDownWorkerReceivesNoTraffic(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs, EjectAfter: 1})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, respondText(http.StatusOK, "primary"))
	bs.set(order[1].name, respondText(http.StatusOK, "backup"))

	// Mark the primary down directly (the prober's job).
	order[0].noteProbe(false, 1, 3)
	if order[0].available() {
		t.Fatal("setup: primary should be down")
	}
	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "backup" {
		t.Fatalf("down-primary routing: %d %q", rec.Code, rec.Body.String())
	}
	retries, _, _, _, _ := rt.met.counters()
	if retries != 0 {
		t.Fatalf("skipping a down worker burned %d retries", retries)
	}
	if info := order[0].info(); info.Requests != 0 {
		t.Fatalf("down worker still saw %d requests", info.Requests)
	}
}
