package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call the load generator sends through the router.
type request struct {
	method string
	path   string // path and query, relative to the base URL
	body   []byte
}

// key identifies a request for the digest table: two requests with the
// same key must get byte-identical bodies.
func (r request) key() string { return r.method + " " + r.path + " " + string(r.body) }

// client sends requests over at most conns keep-alive connections and
// digests every response body. One client belongs to one base URL.
type client struct {
	base string
	http *http.Client
	seed maphash.Seed
}

func newClient(base string, conns int, seed maphash.Seed) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, http: &http.Client{Transport: tr}, seed: seed}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is the outcome of one request.
type reply struct {
	status int
	digest uint64
	err    error
}

// ok reports whether the request succeeded at the HTTP level.
func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// do sends req and digests the body into buf (reused across calls by one
// sender, so steady-state reads do not allocate).
func (c *client) do(ctx context.Context, req request, buf *bytes.Buffer) reply {
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, c.base+req.path, body)
	if err != nil {
		return reply{err: err}
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{status: resp.StatusCode, err: err}
	}
	return reply{status: resp.StatusCode, digest: maphash.Bytes(c.seed, buf.Bytes())}
}

// getBody sends a GET and returns the raw body (set-up and scrapes only).
func (c *client) getBody(ctx context.Context, path string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// --- open loop ---------------------------------------------------------------

// schedule is an open-loop arrival plan: reqs[i] is due at offset due[i]
// from the start of the phase.
type schedule struct {
	due  []time.Duration
	reqs []request
}

// poissonSchedule draws Poisson arrivals at rate per second over dur,
// each request drawn from next. Same rng state, same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, next func(*rand.Rand) request) schedule {
	var s schedule
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return s
		}
		s.due = append(s.due, at)
		s.reqs = append(s.reqs, next(rng))
	}
}

// sample is one open-loop request's timeline, as offsets from the start of
// the phase: when it was due, when a sender picked it up, when it went on
// the wire and when its response had been read.
type sample struct {
	due, picked, sent, done time.Duration
	reply
}

// latency is the request's time from when it was due, so a stall also
// charges every request that queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator itself sent a request it was ready for
// (picked up before it was due); ok is false for requests that waited for
// a busy connection, whose delay is the system's, not the generator's.
func (s sample) lag() (time.Duration, bool) {
	if s.picked > s.due {
		return 0, false
	}
	return s.sent - s.due, true
}

// runOpen sends s through c on conns senders, the schedule's offsets
// counted from start. Each sender takes the next request in schedule
// order, sleeps until it is due and sends it; a request that falls due
// while every sender is busy waits for the first free one.
func runOpen(ctx context.Context, c *client, s schedule, conns int, start time.Time) []sample {
	out := make([]sample, len(s.due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.due) || ctx.Err() != nil {
					return
				}
				picked := time.Since(start)
				if wait := s.due[i] - picked; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				r := c.do(ctx, s.reqs[i], &buf)
				out[i] = sample{due: s.due[i], picked: picked, sent: sent, done: time.Since(start), reply: r}
			}
		}()
	}
	wg.Wait()
	return out
}

// --- warm request mix --------------------------------------------------------

// mix draws the warm-mixed request stream: each request is one of the
// five kinds (report, stage view, user, user features, users:batch) with
// equal probability, as the repository holds no request log to weigh
// them by. Ranks are Zipf-distributed over the user count the server
// reports, so rank 1 (the top account by out-degree) is the hottest key
// and the tail is long.
type mix struct {
	dataset      string
	users        int
	reports      []string   // report query strings ("" is the default battery)
	reportStages [][]string // the stage selection of each report (nil = default)
	stages       []string   // stage names served by stages/{stage}
}

// The Zipf exponent of rank draws and the largest users:batch (sizes are
// uniform from 1). Neither comes from a measured request stream: s = 1.1
// is an assumed popularity skew, and 64 is the batch range the benchmark
// was specified with.
const (
	zipfS    = 1.1
	maxBatch = 64
)

// generator returns a draw function bound to rng's own Zipf source.
func (m *mix) generator(rng *rand.Rand) func(*rand.Rand) request {
	z := rand.NewZipf(rng, zipfS, 1, uint64(m.users-1))
	rank := func() int { return 1 + int(z.Uint64()) }
	prefix := "/v1/datasets/" + m.dataset
	return func(r *rand.Rand) request {
		switch r.IntN(5) {
		case 0:
			q := m.reports[r.IntN(len(m.reports))]
			return request{method: http.MethodGet, path: prefix + "/report" + q}
		case 1:
			return request{method: http.MethodGet, path: prefix + "/stages/" + m.stages[r.IntN(len(m.stages))]}
		case 2:
			return request{method: http.MethodGet, path: prefix + "/users/" + strconv.Itoa(rank())}
		case 3:
			return request{method: http.MethodGet, path: prefix + "/users/" + strconv.Itoa(rank()) + "/features"}
		default:
			k := 1 + r.IntN(maxBatch)
			var b strings.Builder
			b.WriteString(`{"ranks":[`)
			for i := range k {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(rank()))
			}
			b.WriteString("]}")
			return request{method: http.MethodPost, path: prefix + "/users:batch", body: []byte(b.String())}
		}
	}
}
