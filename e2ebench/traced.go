package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"elites/internal/core"
)

// The traced run (--trace 1) reports the per-layer metrics. Which phase
// each comes from:
//
//   - the workload's own pipeline runs give pipeline.*, stage.*, cache.*
//     and serve.runs_per_report / serve.shed (warm-mixed has no runs in
//     its timed phase, so its stage figures come from its priming runs);
//   - a warm phase of alternating untraced and traced Poisson segments
//     (see tracedTail) gives the request-path figures: fleet.*,
//     serve.handler_ms.*, serve.body_memo_hit_ratio,
//     serve.alloc_kb_per_req, runtime.gc_pause_ms, loadgen.lag_p99_ms,
//     e2e.latency_p99_ms and obs.*. On warm-mixed it is the whole timed
//     phase; cold-battery appends a short one after its ops;
//   - isolated kernel calls give kernel.*; store.load_s comes from set-up.

// warmRun is the traced warm phase's input.
type warmRun struct {
	traced *stack
	m      *mix
	dur    time.Duration
}

// closedLayers reports the layer figures of cold-battery's ops.
func (r *runner) closedLayers(res closedResult) {
	r.runLayers(res.runs)
	ops := float64(len(res.lat))
	r.out.set("cache.hits", res.hits/ops, "count")
	r.out.set("cache.misses", res.miss/ops, "count")
	r.out.set("serve.runs_per_report", res.runsN/float64(res.reqs), "ratio")
	r.out.set("serve.shed", res.shed, "count")
}

// runLayers reports pipeline and per-stage figures as medians over runs.
func (r *runner) runLayers(runs []pipelineRun) {
	var wall, sum, overlap []float64
	stages := map[string][]float64{}
	for _, p := range runs {
		wall = append(wall, p.wall)
		sum = append(sum, p.stageSum())
		overlap = append(overlap, p.stageSum()/p.wall)
		for name, d := range p.stages {
			stages[name] = append(stages[name], d)
		}
	}
	r.out.set("pipeline.wall_s", median(wall), "s")
	r.out.set("pipeline.stage_sum_s", median(sum), "s")
	r.out.set("pipeline.overlap", median(overlap), "ratio")
	for _, name := range core.StageNames() {
		r.out.set("stage."+name+"_s", median(stages[name]), "s")
	}
}

// tracedTail runs the warm phase and the kernels. w is nil for
// cold-battery, which gets a short warm phase on a fresh hooked
// stack over the reference cache.
//
// The warm phase cycles three primed stacks, U P H U P H, each segment a
// Poisson stream at warmRate: U untraced, P with the program's tracers
// only (spans to the JSONL sink: the cost of turning tracing on,
// reported as obs.trace_overhead_pct against U), H with tracers and the
// benchmark's hooks (the request-path timings). Alternating spreads
// drift on the machine over all three alike.
func (r *runner) tracedTail(w *warmRun) error {
	closed := w == nil
	if closed {
		st, err := newStack(r.ctx, r.data, r.ref.dir, r.lay, true)
		if err != nil {
			return err
		}
		r.stacks = append(r.stacks, st)
		m, err := r.warmOnce(st)
		if err != nil {
			return err
		}
		// Restart, as set-up does, so priming reads the cache from disk.
		if err := st.setWorker(r.ref.dir); err != nil {
			return err
		}
		if err := r.primeWarm(st, m); err != nil {
			return err
		}
		w = &warmRun{traced: st, m: m, dur: time.Duration(r.cfg.seconds * warmProbeShare * float64(time.Second))}
	}
	// Hydration per fresh worker: everything the hooked worker's priming
	// runs read back from the disk cache.
	primeRuns := pipelineRuns(w.traced.tracer.Spans())
	h := 0.0
	for _, p := range primeRuns {
		h += p.hydrate()
	}
	r.out.set("cache.hydrate_s", h, "s")
	if !closed {
		r.runLayers(primeRuns)
	}
	untraced, err := r.warmStack(w.m, nil, false)
	if err != nil {
		return err
	}
	tracersOnly, err := r.warmStack(w.m, r.lay, false)
	if err != nil {
		return err
	}

	r.lay.reset()
	runtime.GC()
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0x7ace))
	stacks := []*stack{untraced, tracersOnly, w.traced}
	seg := w.dur / time.Duration(2*len(stacks))
	res := make([]openResult, len(stacks))
	var memoHits, shed, runs, hits, misses float64
	reports := 0
	for i := range 2 * len(stacks) {
		k := i % len(stacks)
		one, before, after, err := r.openPhase(stacks[k], w.m, rng, warmRate, seg)
		if err != nil {
			return err
		}
		runs += delta(before, after, "eliteserve_runs_total")
		hits += delta(before, after, "eliteserve_stage_cache_hits_total")
		misses += delta(before, after, "eliteserve_stage_cache_misses_total")
		shed += delta(before, after, "eliteserve_shed_requests_total")
		if k == 0 {
			memoHits += delta(before, after, "eliteserve_body_cache_hits_total")
		}
		reports += one.reports
		acc := &res[k]
		acc.lat = append(acc.lat, one.lat...)
		acc.lag = append(acc.lag, one.lag...)
		acc.use.add(one.use)
		acc.n += one.n
		acc.memoable += one.memoable
	}
	u, p := res[0], res[1]
	path := r.lay.requestPath()
	r.out.set("fleet.self_ms.p50", median(path.routerSelf), "ms")
	r.out.set("fleet.self_ms.p99", percentile(path.routerSelf, 0.99), "ms")
	r.out.set("fleet.attempts_per_req", float64(path.roundTrips)/float64(path.routed), "ratio")
	var all []float64
	for _, class := range endpointClasses {
		r.out.set("serve.handler_ms.p50."+class, median(path.handler[class]), "ms")
		all = append(all, path.handler[class]...)
	}
	r.out.set("serve.handler_ms.p99", percentile(all, 0.99), "ms")
	r.out.set("serve.body_memo_hit_ratio", memoHits/float64(u.memoable), "ratio")
	r.out.set("serve.alloc_kb_per_req", float64(u.use.allocs)/1024/float64(u.n), "KB")
	// GC cycles are seconds apart at this rate, so the pause total covers
	// the whole warm phase rather than the untraced segments alone.
	var lag []float64
	var pause time.Duration
	for _, x := range res {
		lag = append(lag, x.lag...)
		pause += x.use.gcPause
	}
	r.out.set("runtime.gc_pause_ms", ms(pause), "ms")
	r.out.set("loadgen.lag_p99_ms", percentile(lag, 0.99), "ms")
	r.out.set("e2e.latency_p99_ms", percentile(u.lat, 0.99), "ms")
	pu, pp := median(u.lat), median(p.lat)
	r.out.set("obs.trace_overhead_pct", 100*(pp-pu)/pu, "%")
	r.out.set("obs.trace_samples_untraced", float64(len(u.lat)), "count")
	r.out.set("obs.trace_samples_traced", float64(len(p.lat)), "count")
	r.notes = append(r.notes, fmt.Sprintf("trace overhead: p50 %.4fms traced (n=%d) vs %.4fms untraced (n=%d); with the benchmark's hooks too %.4fms (n=%d)",
		pp, len(p.lat), pu, len(u.lat), median(res[2].lat), len(res[2].lat)))
	if !closed {
		r.out.set("cache.hits", hits, "count")
		r.out.set("cache.misses", misses, "count")
		r.out.set("serve.runs_per_report", runs/float64(max(reports, 1)), "ratio")
		r.out.set("serve.shed", shed, "count")
	}
	r.out.set("store.load_s", median(r.loads), "s")
	r.out.set("cache.disk_bytes", float64(r.ref.diskBytes), "bytes")

	r.logf("kernels")
	km, err := kernelMetrics(r.data, r.lay.bench)
	if err != nil {
		return err
	}
	for name, m := range km {
		r.out[name] = m
	}
	return nil
}
