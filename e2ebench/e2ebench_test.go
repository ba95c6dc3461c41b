package main

import (
	"context"
	"encoding/json"
	"hash/maphash"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
}

func TestSampleLag(t *testing.T) {
	ms := time.Millisecond
	ready := sample{due: 10 * ms, picked: 4 * ms, sent: 11 * ms, done: 15 * ms}
	if l, ok := ready.lag(); !ok || l != ms {
		t.Errorf("ready request: lag %v ok %v, want 1ms true", l, ok)
	}
	if ready.latency() != 5*ms {
		t.Errorf("latency %v, want 5ms (from due)", ready.latency())
	}
	queued := sample{due: 10 * ms, picked: 30 * ms, sent: 30 * ms, done: 32 * ms}
	if _, ok := queued.lag(); ok {
		t.Error("a request that waited for a busy sender is backlog, not generator lag")
	}
	if queued.latency() != 22*ms {
		t.Errorf("queued latency %v, want 22ms: the wait behind the stall counts", queued.latency())
	}
}

// TestRunOpenChargesStalls stalls one request on a single connection and
// checks that the requests due behind it are charged the wait.
func TestRunOpenChargesStalls(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1, maphash.MakeSeed())
	defer c.close()
	var s schedule
	for i := range 5 {
		s.due = append(s.due, time.Duration(i)*10*time.Millisecond)
		s.reqs = append(s.reqs, request{method: http.MethodGet, path: "/"})
	}
	out := runOpen(context.Background(), c, s, 1, time.Now())
	for i, smp := range out {
		if !smp.ok() {
			t.Fatalf("request %d failed: %+v", i, smp.reply)
		}
	}
	// Request 1 was due at 10ms but could only go after the 100ms stall.
	if got := out[1].latency(); got < 80*time.Millisecond {
		t.Errorf("request behind the stall: latency %v, want >= 80ms", got)
	}
	if _, ok := out[1].lag(); ok {
		t.Error("request behind the stall counted as generator lag")
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	m := &mix{dataset: "d", users: 100, reports: []string{""}, reportStages: [][]string{nil}, stages: []string{"summary"}}
	draw := func(seed uint64) schedule {
		rng := rand.New(rand.NewPCG(seed, 1))
		return poissonSchedule(rng, 1000, time.Second, m.generator(rng))
	}
	a, b, c := draw(1), draw(1), draw(2)
	if len(a.due) < 800 || len(a.due) > 1200 {
		t.Fatalf("%d arrivals in 1s at 1000/s", len(a.due))
	}
	if len(a.due) != len(b.due) || a.reqs[17].key() != b.reqs[17].key() {
		t.Error("same seed gave different schedules")
	}
	if len(a.due) == len(c.due) && a.reqs[17].key() == c.reqs[17].key() && a.due[17] == c.due[17] {
		t.Error("different seeds gave the same schedule")
	}
	for _, r := range a.reqs {
		if endpointClass(r.path) == "" {
			t.Fatalf("request %s %s maps to no endpoint class", r.method, r.path)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, on a
// 500-account platform and checks the run is correct and prints every
// metric BENCHMARK.json names, with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := config{
				workload: w.Name, seed: 3, seconds: 0.5, trace: trace,
				out: t.TempDir(), users: 500, setupReps: 2, log: io.Discard,
			}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

func TestCompareWarnsAcrossMachines(t *testing.T) {
	dir := t.TempDir()
	rec := record{Machine: machine(), Workload: "warm-mixed", Result: result{
		Correct: true, Attempted: 1, Metrics: metrics{"latency_ms": {Value: 2, Unit: "ms"}},
	}}
	a, b := dir+"/a.jsonl", dir+"/b.jsonl"
	if err := appendRecord(a, rec); err != nil {
		t.Fatal(err)
	}
	rec.Machine.NumCPU++
	rec.Result.Metrics = metrics{"latency_ms": {Value: 1, Unit: "ms"}}
	if err := appendRecord(b, rec); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DIFFERENT MACHINES") || !strings.Contains(out.String(), "-50.0%") {
		t.Errorf("compare output:\n%s", out.String())
	}
	out.Reset()
	if err := compare(&out, a, a); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "DIFFERENT MACHINES") {
		t.Errorf("same machine flagged as different:\n%s", out.String())
	}
}
