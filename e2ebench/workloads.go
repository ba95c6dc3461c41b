package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/store"
)

// conns is how many client connections drive the stack: the cold
// workloads send their two identical requests concurrently on them, the
// open loop shares them between its senders.
const conns = 2

// Warm-mixed load: the fixed Poisson rate of the timed phase, the lengths
// of the saturation phase behind max_rps and of cold-battery's traced
// warm phase, as shares of --seconds, and the windows the timed phase and
// the saturation phase are cut into. The rate is a seventh or less of
// the saturation max_rps recorded on a 2-vCPU Xeon VM (see README.md,
// "Warm traffic"), so the open loop runs well below capacity.
const (
	warmRate       = 800.0
	saturateShare  = 0.5
	warmProbeShare = 0.4
	openWindow     = time.Second
	saturateWindow = 500 * time.Millisecond
)

// On a shared host, interference from other tenants only ever adds time,
// in spells that come and go within a run. So each time metric is taken
// per window (per op on cold-battery) and reported as the quartile of the
// windows on its good side: the lower quartile of a latency or a CPU cost,
// the upper quartile of a rate. A slower program moves every window, so
// it moves the quartile too; a spell of interference that covers fewer
// than three windows in four does not.
func goodCost(xs []float64) float64 { return percentile(xs, 0.25) }
func goodRate(xs []float64) float64 { return percentile(xs, 0.75) }

// The exact stage-cache traffic of one full-battery run: seven cached
// stages (basic, degree, eigen, distances, centrality, mutualcore,
// features) that all compute cold and all hydrate warm.
const cachedStages = 7

// runner holds one invocation's state.
type runner struct {
	ctx  context.Context
	cfg  config
	work string
	seed maphash.Seed
	lay  *layers // traced run only

	data   *dataset
	ref    *reference
	stacks []*stack

	out       metrics
	attempted int
	failed    int
	failures  []string
	notes     []string
	setups    []float64 // s
	loads     []float64 // s
}

func newRunner(ctx context.Context, cfg config, work string) *runner {
	r := &runner{ctx: ctx, cfg: cfg, work: work, seed: maphash.MakeSeed(), out: metrics{}}
	if cfg.trace {
		r.lay = newLayers()
	}
	return r
}

func (r *runner) close() {
	for _, st := range r.stacks {
		st.close()
	}
}

func (r *runner) fail(msg string) { r.failures = append(r.failures, msg) }

func (r *runner) dir(name string) string { return filepath.Join(r.work, name) }

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, "e2ebench: "+format+"\n", args...)
}

// --- set-up ------------------------------------------------------------------

// setUp performs the whole set-up cfg.setupReps times (once when traced)
// and returns the last stack. One repetition, the one setup_s times:
// generate the dataset, save it, load it, register it on a fresh worker
// over cacheDir, start both listeners, let the router probe the worker,
// then the workload's prime step. setup_s is the median repetition.
//
// The first repetition also does the run's one-off work, untimed, between
// starting the stack and priming it: the cold reference battery, which
// primes the disk cache, then once (nil for none). The worker is then
// restarted, so its priming reads the cache from disk as in every later
// repetition. cold-battery has no prime step, so its setup_s leaves the
// cache-priming battery out; that battery is what its ops measure.
func (r *runner) setUp(cacheDir func() string, once, prime func(*stack) error) (*stack, error) {
	reps := r.cfg.setupReps
	if r.cfg.trace {
		reps = 1
	}
	var st *stack
	var digest uint64
	for i := range reps {
		if st != nil {
			st.close()
			r.stacks = r.stacks[:len(r.stacks)-1]
		}
		runtime.GC()
		start := time.Now()
		d, err := makeDataset(r.cfg.users, r.dir(fmt.Sprintf("dataset-%d", i)))
		if err != nil {
			return nil, err
		}
		dg := store.DatasetDigest(d.ds, d.activity)
		if i == 0 {
			r.data, digest = d, dg
		} else if dg != digest {
			r.fail("the dataset generator gave two different datasets for one configuration")
		}
		st, err = newStack(r.ctx, d, cacheDir(), r.lay, true)
		if err != nil {
			return nil, err
		}
		r.stacks = append(r.stacks, st)
		took := time.Since(start)
		if i == 0 {
			r.logf("reference battery (cold, in process)")
			if err := r.makeReference(); err != nil {
				return nil, err
			}
			if once != nil {
				if err := once(st); err != nil {
					return nil, err
				}
			}
			if err := st.setWorker(cacheDir()); err != nil {
				return nil, err
			}
		}
		if prime != nil {
			start := time.Now()
			if err := prime(st); err != nil {
				return nil, err
			}
			took += time.Since(start)
		}
		r.setups = append(r.setups, took.Seconds())
		r.loads = append(r.loads, d.loadDur.Seconds())
		r.logf("set-up %d/%d: %.2fs", i+1, reps, took.Seconds())
	}
	r.data = st.data
	// Let the row worker go with the first repetition's dataset; expect
	// starts a new one over the kept dataset when it is needed.
	r.ref.srv = nil
	return st, nil
}

// --- timed phases ------------------------------------------------------------

// usage is process resource use over one timed phase.
type usage struct {
	cpu      time.Duration
	peakHeap uint64 // bytes of live heap, highest sample
	allocs   uint64 // bytes allocated
	gcPause  time.Duration
}

// meter samples the live heap every few milliseconds between start and
// stop and diffs CPU time, allocation and GC pause counters.
type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	pause0 uint64
	stopc  chan struct{}
	done   chan struct{}
	peak   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() (live, allocs uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// cpuMarks reads the process CPU time at start and at the end of each of
// the n windows of length w that follow it, and sends the n+1 readings
// once the last window has ended.
func cpuMarks(start time.Time, w time.Duration, n int) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	go func() {
		marks := make([]time.Duration, 0, n+1)
		for k := range n + 1 {
			time.Sleep(time.Until(start.Add(time.Duration(k) * w)))
			marks = append(marks, cpuTime())
		}
		out <- marks
	}()
	return out
}

func startMeter() *meter {
	m := &meter{stopc: make(chan struct{}), done: make(chan struct{})}
	_, m.alloc0 = readRuntime()
	m.pause0 = gcPauseNs()
	m.cpu0 = cpuTime()
	go func() {
		defer close(m.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			live, _ := readRuntime()
			m.peak = max(m.peak, live)
			select {
			case <-m.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *meter) stop() usage {
	cpu := cpuTime() - m.cpu0
	close(m.stopc)
	<-m.done
	_, allocs := readRuntime()
	return usage{
		cpu: cpu, peakHeap: m.peak, allocs: allocs - m.alloc0,
		gcPause: time.Duration(gcPauseNs() - m.pause0),
	}
}

// add accumulates another phase's usage.
func (u *usage) add(v usage) {
	u.cpu += v.cpu
	u.peakHeap = max(u.peakHeap, v.peakHeap)
	u.allocs += v.allocs
	u.gcPause += v.gcPause
}

// --- closed loop: cold-battery ----------------------------------------------

// fullRequest is the all-stages report request. The seed only permutes
// the order of the ?stages= list, which the server canonicalizes, so
// every seed asks for the same identity in a different spelling.
func fullRequest(rng *rand.Rand) request {
	names := core.StageNames()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return request{method: http.MethodGet, path: reportPath(stagesQuery(names))}
}

// closedOp sends req on conns connections at once and waits for every
// reply; the op's latency is until the last reply is read.
func (r *runner) closedOp(c *client, req request) (time.Duration, []reply) {
	replies := make([]reply, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			replies[i] = c.do(r.ctx, req, &buf)
		}()
	}
	wg.Wait()
	return time.Since(start), replies
}

// closedResult is what the closed loop measures.
type closedResult struct {
	lat   []float64 // ms per op
	cpu   []float64 // ms of process CPU per op
	use   usage
	runs  []pipelineRun
	hits  float64
	miss  float64
	reqs  int
	runsN float64
	shed  float64
}

// battery runs ops until budget has passed (at least one). Before each
// op, untimed, prepare swaps a fresh worker in; after it the op's replies,
// its cache traffic and its run count are checked: the stage cache must
// see exactly wantHits hits and wantMisses misses, and the two requests
// must share one run.
func (r *runner) battery(st *stack, prepare func(op int) error, budget time.Duration, wantHits, wantMisses float64) (closedResult, error) {
	var res closedResult
	c := newClient(st.routerURL, conns, r.seed)
	defer c.close()
	wc := newClient(st.workerURL, 1, r.seed)
	defer wc.close()
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0xba77e7))
	var elapsed time.Duration
	for op := 0; op == 0 || elapsed < budget; op++ {
		if err := prepare(op); err != nil {
			return res, err
		}
		before, err := scrape(r.ctx, wc)
		if err != nil {
			return res, err
		}
		req := fullRequest(rng)
		runtime.GC()
		m := startMeter()
		d, replies := r.closedOp(c, req)
		u := m.stop()
		res.use.add(u)
		res.cpu = append(res.cpu, ms(u.cpu))
		elapsed += d
		after, err := scrape(r.ctx, wc)
		if err != nil {
			return res, err
		}
		res.lat = append(res.lat, ms(d))
		res.reqs += len(replies)
		for _, rep := range replies {
			r.attempted++
			switch {
			case !rep.ok():
				r.failed++
				r.noteFailure(fmt.Sprintf("op %d: status %d err %v", op, rep.status, rep.err))
			case rep.digest != r.ref.full:
				r.failed++
				r.noteFailure(fmt.Sprintf("op %d: report body differs from the in-process battery", op))
			}
		}
		hits := delta(before, after, "eliteserve_stage_cache_hits_total")
		misses := delta(before, after, "eliteserve_stage_cache_misses_total")
		runs := delta(before, after, "eliteserve_runs_total")
		if hits != wantHits || misses != wantMisses {
			r.fail(fmt.Sprintf("op %d: stage cache hits/misses %g/%g, want %g/%g", op, hits, misses, wantHits, wantMisses))
		}
		if runs != 1 {
			r.fail(fmt.Sprintf("op %d: %g pipeline runs for %d coalescing requests, want 1", op, runs, len(replies)))
		}
		res.hits += hits
		res.miss += misses
		res.runsN += runs
		res.shed += delta(before, after, "eliteserve_shed_requests_total")
		if st.tracer != nil {
			res.runs = append(res.runs, pipelineRuns(st.tracer.Spans())...)
		}
		r.logf("op %d: %.3fs", op, d.Seconds())
	}
	return res, nil
}

// closedMetrics reports the end-to-end metrics of the closed loop, each
// op one window (see goodCost); max_rps is the completed request rate of
// an op, both connections busy throughout.
func (r *runner) closedMetrics(res closedResult) {
	rates := make([]float64, len(res.lat))
	for i, l := range res.lat {
		rates[i] = conns / (l / 1000)
	}
	r.out.set("latency_ms", goodCost(res.lat), "ms")
	r.out.set("max_rps", goodRate(rates), "1/s")
	r.out.set("cpu_ms_per_op", goodCost(res.cpu), "ms")
	r.out.set("peak_heap_mb", float64(res.use.peakHeap)/(1<<20), "MB")
	r.out.set("setup_s", median(r.setups), "s")
}

func (r *runner) coldBattery() error {
	st, err := r.setUp(func() string { return r.dir("setup-cache") }, nil, nil)
	if err != nil {
		return err
	}
	prev := ""
	res, err := r.battery(st, func(op int) error {
		if prev != "" {
			cache.Release(prev)
			os.RemoveAll(prev)
		}
		prev = r.dir(fmt.Sprintf("cold-%d", op))
		return st.setWorker(prev)
	}, time.Duration(r.cfg.seconds*float64(time.Second)), 0, cachedStages)
	if err != nil {
		return err
	}
	// One more op, untimed and not reported: a fresh worker over the cache
	// the last op wrote. Every cached stage must now hydrate from disk and
	// the body must still match the reference, so what the cache wrote
	// reads back as what was computed.
	r.logf("re-read check")
	if _, err := r.battery(st, func(int) error { return st.setWorker(prev) }, 0, cachedStages, 0); err != nil {
		return err
	}
	if !r.cfg.trace {
		r.closedMetrics(res)
		return nil
	}
	r.closedLayers(res)
	return r.tracedTail(nil)
}

// --- open loop: warm-mixed ---------------------------------------------------

// The warm mix's report variants (nil is the default battery) and stage
// views. The stage views are those whose runs are cheap to prime: bios,
// categories and activity are uncached, so they would recompute on every
// priming run, and features is the whole matrix; the report variants
// cover those.
var (
	warmSubsets = [][]string{
		nil,
		{core.StageSummary, core.StageDegree, core.StageReciprocity},
		{core.StageCentrality, core.StageFeatures},
	}
	warmStages = []string{
		core.StageComponents, core.StageSummary, core.StageBasic, core.StageDegree,
		core.StageEigen, core.StageReciprocity, core.StageDistances,
		core.StageHistograms, core.StageCentrality, core.StageMutualCore,
	}
)

// newMix reads the user count from the dataset endpoint, so every rank
// drawn exists in the dataset the server actually holds.
func (r *runner) newMix(c *client) (*mix, error) {
	b, err := c.getBody(r.ctx, "/v1/datasets/"+datasetID)
	if err != nil {
		return nil, err
	}
	var info struct {
		Nodes int `json:"nodes"`
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return nil, fmt.Errorf("dataset info: %w", err)
	}
	if info.Nodes < 2 {
		return nil, fmt.Errorf("dataset info: %d users", info.Nodes)
	}
	m := &mix{dataset: datasetID, users: info.Nodes, reportStages: warmSubsets, stages: warmStages}
	for _, s := range warmSubsets {
		q := ""
		if s != nil {
			q = stagesQuery(s)
		}
		m.reports = append(m.reports, q)
	}
	return m, nil
}

// primeRequests are the requests that fill a fresh worker's request memos
// through the router: every report variant and stage view once (each a
// pipeline run that hydrates the cached stages), one user (the degree
// ranking), and batches covering every rank (every feature shard
// decoded). The warm mix then never needs a pipeline run.
func primeRequests(m *mix) []request {
	var reqs []request
	for _, q := range m.reports {
		reqs = append(reqs, request{method: http.MethodGet, path: reportPath(q)})
	}
	for _, s := range m.stages {
		reqs = append(reqs, request{method: http.MethodGet, path: stagePath(s)})
	}
	reqs = append(reqs, request{method: http.MethodGet, path: "/v1/datasets/" + datasetID + "/users/1"})
	const chunk = 1024
	for lo := 1; lo <= m.users; lo += chunk {
		var b strings.Builder
		b.WriteString(`{"ranks":[`)
		for rank := lo; rank < lo+chunk && rank <= m.users; rank++ {
			if rank > lo {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(rank))
		}
		b.WriteString("]}")
		reqs = append(reqs, request{method: http.MethodPost, path: "/v1/datasets/" + datasetID + "/users:batch", body: []byte(b.String())})
	}
	return reqs
}

// primeWarm primes a fresh worker: primeRequests, each body checked
// against the reference. Every rank's feature row is also requested once
// straight from the worker, so the memo meets the mix fully warm instead
// of warming up along the Zipf tail while it is measured.
func (r *runner) primeWarm(st *stack, m *mix) error {
	// Feature rows first: a traced worker's span ring then still holds
	// the priming runs' spans when the traced run reads them.
	for rank := 1; rank <= m.users; rank++ {
		path := "/v1/datasets/" + datasetID + "/users/" + strconv.Itoa(rank) + "/features"
		rec := httptest.NewRecorder()
		st.worker.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("priming %s: status %d", path, rec.Code)
		}
	}
	c := newClient(st.routerURL, 1, r.seed)
	defer c.close()
	var buf bytes.Buffer
	for _, req := range primeRequests(m) {
		rep := c.do(r.ctx, req, &buf)
		if !rep.ok() {
			return fmt.Errorf("priming %s %s: status %d: %v", req.method, req.path, rep.status, rep.err)
		}
		want, err := r.expect(req)
		if err != nil {
			return err
		}
		if rep.digest != want {
			r.fail(fmt.Sprintf("priming %s %s: body differs from the reference", req.method, req.path))
		}
	}
	return nil
}

// openResult is one or more open-loop phases' samples.
type openResult struct {
	lat      []float64 // ms, from due time
	winP50   []float64 // ms, median latency of the requests due in each window
	winCPU   []float64 // ms, process CPU per request completed in each window
	lag      []float64 // ms, generator lateness
	use      usage
	n        int
	reports  int // report requests
	memoable int // requests of the kinds the body memo serves (all but users/{rank})
}

// openPhase runs one Poisson phase at rate for dur against st, checks
// every reply and returns its figures, also per openWindow-long window
// (see goodCost). The worker must not run the pipeline during the phase.
// Callers collect garbage first where the phase's peak heap is reported.
func (r *runner) openPhase(st *stack, m *mix, rng *rand.Rand, rate float64, dur time.Duration) (openResult, counters, counters, error) {
	var res openResult
	s := poissonSchedule(rng, rate, dur, m.generator(rng))
	c := newClient(st.routerURL, conns, r.seed)
	defer c.close()
	wc := newClient(st.workerURL, 1, r.seed)
	defer wc.close()
	before, err := scrape(r.ctx, wc)
	if err != nil {
		return res, nil, nil, err
	}
	nwin := max(1, int(dur/openWindow))
	win := dur / time.Duration(nwin)
	meter := startMeter()
	start := time.Now()
	marks := cpuMarks(start, win, nwin)
	samples := runOpen(r.ctx, c, s, conns, start)
	cpu := <-marks
	res.use = meter.stop()
	after, err := scrape(r.ctx, wc)
	if err != nil {
		return res, nil, nil, err
	}
	if runs := delta(before, after, "eliteserve_runs_total"); runs != 0 {
		r.fail(fmt.Sprintf("warm phase ran the pipeline %g times, want 0", runs))
	}
	replies := make([]reply, len(samples))
	for i, smp := range samples {
		replies[i] = smp.reply
		res.lat = append(res.lat, ms(smp.latency()))
		if l, ok := smp.lag(); ok {
			res.lag = append(res.lag, ms(l))
		}
		class := endpointClass(s.reqs[i].path)
		if class == "report" {
			res.reports++
		}
		if class != "user" {
			res.memoable++
		}
	}
	res.n = len(samples)
	due := make([][]float64, nwin)
	done := make([]int, nwin)
	for _, smp := range samples {
		if k := int(smp.due / win); k < nwin {
			due[k] = append(due[k], ms(smp.latency()))
		}
		if k := int(smp.done / win); k < nwin {
			done[k]++
		}
	}
	for k := range nwin {
		if len(due[k]) > 0 {
			res.winP50 = append(res.winP50, median(due[k]))
		}
		if done[k] > 0 {
			res.winCPU = append(res.winCPU, ms(cpu[k+1]-cpu[k])/float64(done[k]))
		}
	}
	if err := r.checkSamples(s.reqs, replies); err != nil {
		return res, nil, nil, err
	}
	return res, before, after, nil
}

// saturate drives st with conns closed-loop senders, each sending its next
// mix request as soon as its previous reply is read, for dur. The
// completed-request rate is the most the stack sustains: a closed loop
// cannot build a backlog, and conns senders keep router, worker and
// client all busy. It returns the upper quartile of the rates of the
// phase's whole saturateWindow windows (see goodRate) and the p99
// request latency.
func (r *runner) saturate(st *stack, m *mix, rng *rand.Rand, dur time.Duration) (float64, float64, error) {
	draw := m.generator(rng)
	c := newClient(st.routerURL, conns, r.seed)
	defer c.close()
	wc := newClient(st.workerURL, 1, r.seed)
	defer wc.close()
	before, err := scrape(r.ctx, wc)
	if err != nil {
		return 0, 0, err
	}
	var (
		mu      sync.Mutex
		reqs    []request
		replies []reply
		lat     []float64
		done    []time.Duration // completion offsets from start
		wg      sync.WaitGroup
	)
	runtime.GC()
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < dur {
				mu.Lock()
				req := draw(rng)
				mu.Unlock()
				t := time.Now()
				rep := c.do(r.ctx, req, &buf)
				d := time.Since(t)
				mu.Lock()
				reqs, replies, lat = append(reqs, req), append(replies, rep), append(lat, ms(d))
				done = append(done, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	counts := make([]float64, max(1, int(dur/saturateWindow)))
	for _, t := range done {
		if i := int(t / saturateWindow); i < len(counts) {
			counts[i]++
		}
	}
	rate := goodRate(counts) / saturateWindow.Seconds()
	after, err := scrape(r.ctx, wc)
	if err != nil {
		return 0, 0, err
	}
	if runs := delta(before, after, "eliteserve_runs_total"); runs != 0 {
		r.fail(fmt.Sprintf("saturation phase ran the pipeline %g times, want 0", runs))
	}
	if err := r.checkSamples(reqs, replies); err != nil {
		return 0, 0, err
	}
	return rate, percentile(lat, 0.99), nil
}

// warmStack builds and primes a warm stack over the reference cache,
// traced as newStack describes.
func (r *runner) warmStack(m *mix, lay *layers, hooks bool) (*stack, error) {
	st, err := newStack(r.ctx, r.data, r.ref.dir, lay, hooks)
	if err != nil {
		return nil, err
	}
	r.stacks = append(r.stacks, st)
	return st, r.primeWarm(st, m)
}

// warmOnce is the warm mix's one-off set-up: it learns the mix from the
// server behind st and completes the reference table for it.
func (r *runner) warmOnce(st *stack) (*mix, error) {
	c := newClient(st.routerURL, 1, r.seed)
	m, err := r.newMix(c)
	c.close()
	if err != nil {
		return nil, err
	}
	return m, r.warmReference(m)
}

func (r *runner) warmMixed() error {
	var m *mix
	st, err := r.setUp(func() string { return r.dir("refcache") },
		func(st *stack) (err error) {
			m, err = r.warmOnce(st)
			return err
		},
		func(st *stack) error { return r.primeWarm(st, m) })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0x3a7b))
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		return r.tracedTail(&warmRun{traced: st, m: m, dur: dur})
	}
	r.logf("timed phase: %v at %.0f requests/s", dur, warmRate)
	runtime.GC()
	res, _, _, err := r.openPhase(st, m, rng, warmRate, dur)
	if err != nil {
		return err
	}
	r.logf("saturation phase")
	maxRPS, satP99, err := r.saturate(st, m, rng, time.Duration(saturateShare*float64(dur)))
	if err != nil {
		return err
	}
	r.out.set("latency_ms", goodCost(res.winP50), "ms")
	r.out.set("max_rps", maxRPS, "1/s")
	r.out.set("cpu_ms_per_op", goodCost(res.winCPU), "ms")
	r.out.set("peak_heap_mb", float64(res.use.peakHeap)/(1<<20), "MB")
	r.out.set("setup_s", median(r.setups), "s")
	r.notes = append(r.notes,
		fmt.Sprintf("warm-mixed: %d requests at %.0f/s: p50 %.3fms p99 %.3fms", res.n, warmRate, median(res.lat), percentile(res.lat, 0.99)),
		fmt.Sprintf("saturation: %.0f requests/s on %d connections, p99 %.3fms", maxRPS, conns, satP99))
	return nil
}
