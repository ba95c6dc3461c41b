package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/fleet"
	"elites/internal/obs"
	"elites/internal/serve"
	"elites/internal/store"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// datasetID is the id the dataset is registered under on every worker.
const datasetID = "verified"

// batteryOptions are eliteserve's default battery options (seed 42, every
// sampling size at its zero-value default, all cores) over one cache dir.
func batteryOptions(cacheDir string) core.Options {
	return core.Options{Seed: 42, CacheDir: cacheDir}
}

// dataset is the generated input: the canonical platform instance, saved
// the way elitegen saves it and loaded back the way eliteserve -data does.
type dataset struct {
	ds       *twitter.Dataset
	activity *timeseries.DailySeries
	loadDur  time.Duration // store.LoadDataset alone
}

// makeDataset generates the verified platform of users accounts, saves it
// under dir and loads it back.
func makeDataset(users int, dir string) (*dataset, error) {
	p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(users))
	if err != nil {
		return nil, fmt.Errorf("generating platform: %w", err)
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	if err := store.SaveDataset(dir, ds, activity, store.Meta{Tool: "e2ebench", Seed: 42}); err != nil {
		return nil, fmt.Errorf("saving dataset: %w", err)
	}
	start := time.Now()
	lds, lact, _, err := store.LoadDataset(dir)
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}
	return &dataset{ds: lds, activity: lact, loadDur: time.Since(start)}, nil
}

// newWorker builds one eliteserve worker the way cmd/eliteserve does with
// its default flags, over cacheDir, with the dataset registered. Request
// logs go to a discarded text handler: the formatting cost stays in, the
// terminal write does not.
func newWorker(d *dataset, cacheDir string, tracer *obs.Tracer) (*serve.Server, error) {
	srv := serve.New(serve.Config{
		Options:       batteryOptions(cacheDir),
		MaxConcurrent: 2,
		MaxQueue:      8,
		AsyncAfter:    30 * time.Second,
		Tracer:        tracer,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := srv.RegisterDataset(datasetID, d.ds, d.activity, "e2ebench"); err != nil {
		return nil, err
	}
	return srv, nil
}

// swapHandler serves through whichever handler was stored last, so one
// listener can front a fresh worker per operation.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// listen serves h on a loopback port with the binaries' server timeouts.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// stack is one eliterouter in front of one eliteserve worker, each on its
// own loopback listener. The worker behind the router can be replaced
// (setWorker) without touching the router or the listeners.
type stack struct {
	data                 *dataset
	lay                  *layers // nil when untraced
	worker               swapHandler
	tracer               *obs.Tracer // the current worker's tracer (nil when untraced)
	router               *fleet.Router
	servers              []*http.Server
	workerURL, routerURL string
	nworkers             int
}

// newStack starts the router and the worker listener; the first worker
// serves from cacheDir. The router runs with eliterouter's default flags:
// no -cache, so it keeps no last-known-good bodies (with -cache it writes
// one cache file per proxied GET). With lay set, router and workers get
// tracers writing to its sink; hooks additionally wraps router, transport
// and worker in the benchmark's timing hooks.
func newStack(ctx context.Context, d *dataset, cacheDir string, lay *layers, hooks bool) (*stack, error) {
	st := &stack{data: d, lay: lay}
	if err := st.setWorker(cacheDir); err != nil {
		return nil, err
	}
	hooks = hooks && lay != nil
	var wh http.Handler = &st.worker
	if hooks {
		wh = lay.wrapWorker(wh)
	}
	whs, wurl, err := listen(wh)
	if err != nil {
		return nil, err
	}
	st.servers = append(st.servers, whs)
	st.workerURL = wurl

	rcfg := fleet.Config{
		Workers:        []string{wurl},
		ProbeInterval:  500 * time.Millisecond,
		EjectAfter:     3,
		Retries:        2,
		RequestTimeout: 60 * time.Second,
		Seed:           42,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if lay != nil {
		rcfg.Tracer = lay.newTracer("eliterouter")
	}
	if hooks {
		rcfg.Transport = lay.wrapTransport(http.DefaultTransport)
	}
	rt, err := fleet.New(rcfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	rt.Start()
	rt.ProbeNow(ctx)
	var rh http.Handler = rt
	if hooks {
		rh = lay.wrapRouter(rh)
	}
	rhs, rurl, err := listen(rh)
	if err != nil {
		st.close()
		return nil, err
	}
	st.servers = append(st.servers, rhs)
	st.routerURL = rurl
	return st, nil
}

// setWorker replaces the worker behind the listener with a fresh one over
// cacheDir: empty request memos, and a cache instance whose memory tier is
// empty (cache.Release drops the shared per-directory instance first), as
// after a process restart.
func (st *stack) setWorker(cacheDir string) error {
	cache.Release(cacheDir)
	var tr *obs.Tracer
	if st.lay != nil {
		st.nworkers++
		tr = st.lay.newTracer("eliteserve-" + strconv.Itoa(st.nworkers))
	}
	srv, err := newWorker(st.data, cacheDir, tr)
	if err != nil {
		return err
	}
	st.tracer = tr
	st.worker.set(srv)
	return nil
}

func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	}
	for _, hs := range st.servers {
		hs.Close()
	}
}

// --- worker counters ---------------------------------------------------------

// counters is a scrape of the worker's eliteserve_* counters.
type counters map[string]float64

// scrape reads the worker's /metrics exposition straight from the worker
// (not through the router) and keeps the unlabelled counters.
func scrape(ctx context.Context, c *client) (counters, error) {
	b, err := c.getBody(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "eliteserve_") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(val)[0], 64)
		if err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// spanBuffer collects every tracer's JSONL lines in memory; the benchmark
// writes them out once at the end, so no file write sits on the traced
// hot path beyond the line encoding the tracers already do.
type spanBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *spanBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *spanBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
