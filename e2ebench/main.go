// Command e2ebench is the repository's end-to-end benchmark. In one
// process it builds what the binaries build — an eliterouter (fleet.New)
// in front of one eliteserve worker (serve.New), each on a loopback
// listener — over the canonical generated dataset, drives the stack over
// HTTP from at most GOMAXPROCS connections, checks every response against
// an in-process reference, and prints its metrics.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload cold-battery|warm-mixed \
//	    --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). Every run also appends its result and the
// machine fingerprint to results.jsonl in the --out directory; compare
// prints the per-metric medians of two such files and warns loudly when
// they were recorded on different machines. See README.md for the
// workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	out       string    // directory for results.jsonl, span files and scratch
	users     int       // platform size handed to twitter.DefaultPlatformConfig (20000)
	setupReps int       // set-ups per run; setup_s is their median (3)
	log       io.Writer // progress lines (standard error)
}

var workloads = map[string]func(*runner) error{
	"cold-battery": (*runner).coldBattery,
	"warm-mixed":   (*runner).warmMixed,
}

func main() {
	cfg := config{users: 20000, setupReps: 3, log: os.Stderr}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold-battery or warm-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (request stream; the dataset is fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/e2ebench", "directory for results, spans and scratch data")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: e2ebench compare old.jsonl new.jsonl")
			os.Exit(2)
		}
		if err := compare(os.Stdout, flag.Arg(1), flag.Arg(2)); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: the workload, its checks, the results
// record. A failed check is reported through res (and the exit code); err
// is for runs that could not measure at all.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	fp := machine()
	fmt.Fprintf(cfg.log, "e2ebench: %s seed=%d seconds=%g trace=%v on %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, fp)

	r := newRunner(ctx, cfg, work)
	defer r.close()
	steal0, total0 := hostTicks()
	if err := workloads[cfg.workload](r); err != nil {
		return nil, err
	}
	steal1, total1 := hostTicks()
	stealPct := 0.0
	if total1 > total0 {
		stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	res := r.result()
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := os.WriteFile(path, r.lay.sink.bytes(), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("spans %s (render with: sh scripts/traceview.sh %s)\n", path, path)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, note := range r.notes {
		fmt.Println("note:", note)
	}
	fmt.Printf("fingerprint %s host_steal=%.1f%%\n", fp, stealPct)
	if err := appendRecord(filepath.Join(cfg.out, "results.jsonl"), record{
		Time: time.Now().UTC().Format(time.RFC3339), Machine: fp, StealPct: stealPct,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Result: *res,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// result assembles the output line and fails the run on any figure that
// is not a finite number (a metric that could not be measured).
func (r *runner) result() *result {
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: r.out}
	for name, m := range r.out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail(fmt.Sprintf("metric %s was not measured", name))
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		r.fail("no operation was attempted")
	}
	res.Correct = len(r.failures) == 0 && r.failed == 0
	for _, f := range r.failures {
		fmt.Fprintln(r.cfg.log, "e2ebench: CHECK FAILED:", f)
	}
	return res
}
