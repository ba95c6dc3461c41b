// Package faults is a deterministic fault-injection layer for the
// characterization stack. An Injector holds an ordered list of seeded,
// rule-based injection points; the pipeline scheduler consults Stage before
// each stage attempt and the result cache consults Cache before each disk
// operation, so tests (and eliteserve's hidden -faults flag) can force
// stage panics, stage errors, slow stages, cache I/O errors, disk-full
// conditions and mid-run cancellations at chosen points without touching
// production code paths.
//
// Rules are matched in declaration order against hierarchical point names
// ("stage:degree", "cache:read", "cache:store", "net:127.0.0.1:9001"); a
// trailing "*" in a rule's Point is a prefix wildcard. Each rule fires
// inside a hit window (After skipped hits, then Times fires) and,
// optionally, behind a seeded probability gate — the same seed and the same
// sequence of hits always produce the same injections, which is what lets
// the chaos suite assert exact degraded bodies and exact recovery.
//
// The "net:" points are the fleet's network fault surface: eliterouter's
// transport consults Net before every proxied attempt, so rules can inject
// added latency (slow), connection drops (drop) and synthesized 5xx bursts
// (5xx) per worker — which is how the chaos suite exercises failover,
// hedging and the per-worker circuit breaker deterministically, without a
// flaky network.
//
// The textual rule grammar accepted by Parse:
//
//	rule     := point "=" kind { ":" key "=" value }
//	spec     := rule { "," rule }
//	point    := "stage:" name | "cache:" op | "net:" worker | "*"
//	           (name/op/worker may be "*")
//	kind     := "panic" | "error" | "slow" | "cancel" | "ioerror" |
//	           "enospc" | "drop" | "5xx"
//	key      := "after" | "times" | "delay" | "p"     (times accepts "all")
//
// Example: "stage:degree=panic,net:*=drop:times=3,net:*=slow:delay=5ms:p=0.2".
package faults

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is the sentinel every injected (non-panic) failure wraps, so
// tests can tell an injected fault from an organic one.
var ErrInjected = errors.New("faults: injected failure")

// ErrDropped is the sentinel KindDrop failures wrap (alongside
// ErrInjected): the network transport maps it to a torn connection.
var ErrDropped = errors.New("connection dropped")

// ErrHTTP5xx is the sentinel Kind5xx failures wrap (alongside
// ErrInjected): the network transport maps it to a synthesized 503
// response from the worker, as if it were overloaded.
var ErrHTTP5xx = errors.New("upstream 5xx")

// Kind is the failure mode a rule injects.
type Kind int

// Injection kinds.
const (
	// KindError makes the hook return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes the hook panic (the pipeline must contain it).
	KindPanic
	// KindSlow delays the hook by Rule.Delay, honoring the context, then
	// lets execution proceed (it composes with other rules at the point).
	KindSlow
	// KindCancel invokes the cancel function bound with BindCancel (the
	// run's own cancellation) and returns an error wrapping ErrInjected.
	KindCancel
	// KindIOError makes the hook return a generic injected I/O error.
	KindIOError
	// KindENOSPC makes the hook return an error wrapping syscall.ENOSPC.
	KindENOSPC
	// KindDrop makes the hook return an error wrapping ErrDropped; the
	// router's transport surfaces it as a connection torn mid-request.
	KindDrop
	// Kind5xx makes the hook return an error wrapping ErrHTTP5xx; the
	// router's transport surfaces it as a synthesized 503 from the worker.
	Kind5xx
)

// String names the kind in the Parse grammar's vocabulary.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindSlow:
		return "slow"
	case KindCancel:
		return "cancel"
	case KindIOError:
		return "ioerror"
	case KindENOSPC:
		return "enospc"
	case KindDrop:
		return "drop"
	case Kind5xx:
		return "5xx"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// defaultSlowDelay is the injected latency for KindSlow rules that set no
// Delay.
const defaultSlowDelay = 50 * time.Millisecond

// Rule is one injection: fire Kind at every point matching Point, within
// the (After, Times) hit window, behind an optional probability gate.
type Rule struct {
	// Point is the injection point: "stage:<name>" or "cache:<op>" (ops:
	// read, write, store), with a trailing "*" acting as a prefix wildcard.
	Point string
	// Kind is the injected failure mode.
	Kind Kind
	// After skips the first After matching hits before the rule arms.
	After int
	// Times bounds how often the rule fires once armed (0 means once;
	// negative means unlimited).
	Times int
	// Delay is the injected latency for KindSlow (0 means 50ms).
	Delay time.Duration
	// P gates each eligible hit on a seeded coin flip when 0 < P < 1
	// (0 and >= 1 both mean "always").
	P float64
}

// ruleState is a Rule plus its per-run counters.
type ruleState struct {
	Rule
	hits  int
	fired int
}

// Injector evaluates rules at injection points. All methods are safe for
// concurrent use; with concurrent stages the hit order (and therefore which
// hit a windowed or probabilistic rule fires on) follows the schedule, so
// deterministic tests should either serialize stages or use rules that fire
// on every hit.
type Injector struct {
	mu     sync.Mutex
	rules  []*ruleState
	rng    uint64
	cancel func()
	fired  map[string]int
}

// New builds an injector over rules; seed drives the probability gates.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{rng: seed, fired: map[string]int{}}
	for _, r := range rules {
		if r.Times == 0 {
			r.Times = 1
		}
		if r.Delay == 0 {
			r.Delay = defaultSlowDelay
		}
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// BindCancel registers the function KindCancel rules invoke — callers bind
// the run context's cancel before starting the pipeline. A nil fn unbinds.
func (in *Injector) BindCancel(fn func()) {
	in.mu.Lock()
	in.cancel = fn
	in.mu.Unlock()
}

// Stage is the pipeline hook: it fires any rules matching "stage:<name>".
// A KindPanic rule panics; other terminal kinds return an error the
// scheduler records as the stage's failure.
func (in *Injector) Stage(ctx context.Context, name string) error {
	return in.fire(ctx, "stage:"+name)
}

// Cache is the result-cache hook for disk operations ("read", "write",
// "store"): it fires any rules matching "cache:<op>". The cache layer
// treats a returned error as that operation's I/O failure.
func (in *Injector) Cache(op string) error {
	return in.fire(context.Background(), "cache:"+op)
}

// Net is the network-transport hook: it fires any rules matching
// "net:<name>" (name is the target worker's host:port) before a proxied
// attempt. KindSlow rules delay the attempt honoring ctx; a returned error
// wrapping ErrDropped means the connection drops, one wrapping ErrHTTP5xx
// means the worker answers 503.
func (in *Injector) Net(ctx context.Context, name string) error {
	return in.fire(ctx, "net:"+name)
}

// Fired reports how many injections have fired at point (exact name, not
// pattern).
func (in *Injector) Fired(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// match reports whether pattern covers point ("*" suffix is a prefix
// wildcard).
func match(pattern, point string) bool {
	if pattern == point {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(point, pattern[:len(pattern)-1])
	}
	return false
}

// fire evaluates every rule at point. Rule state advances under the lock;
// the injected action itself (sleeping, panicking, cancelling) happens
// outside it, so a contained panic can never strand the injector's mutex.
func (in *Injector) fire(ctx context.Context, point string) error {
	in.mu.Lock()
	var delays []time.Duration
	var term *ruleState
	for _, rs := range in.rules {
		if !match(rs.Point, point) {
			continue
		}
		rs.hits++
		if rs.hits <= rs.After {
			continue
		}
		if rs.Times >= 0 && rs.fired >= rs.Times {
			continue
		}
		if rs.P > 0 && rs.P < 1 && in.randFloat() >= rs.P {
			continue
		}
		rs.fired++
		in.fired[point]++
		if rs.Kind == KindSlow {
			delays = append(delays, rs.Delay)
			continue
		}
		term = rs
		break
	}
	cancel := in.cancel
	in.mu.Unlock()

	for _, d := range delays {
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if term == nil {
		return nil
	}
	switch term.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faults: injected panic at %s", point))
	case KindCancel:
		if cancel != nil {
			cancel()
		}
		return fmt.Errorf("%w: run cancelled at %s", ErrInjected, point)
	case KindIOError:
		return fmt.Errorf("%w: I/O error at %s", ErrInjected, point)
	case KindENOSPC:
		return fmt.Errorf("%w at %s: %w", ErrInjected, point, syscall.ENOSPC)
	case KindDrop:
		return fmt.Errorf("%w: %w at %s", ErrInjected, ErrDropped, point)
	case Kind5xx:
		return fmt.Errorf("%w: %w at %s", ErrInjected, ErrHTTP5xx, point)
	default:
		return fmt.Errorf("%w at %s", ErrInjected, point)
	}
}

// randFloat advances the seeded SplitMix64 stream and returns a uniform
// draw in [0, 1).
func (in *Injector) randFloat() float64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Parse builds an injector from the textual rule grammar (see the package
// comment). An empty spec yields an injector with no rules.
func Parse(spec string, seed uint64) (*Injector, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return New(seed, rules...), nil
}

func parseRule(raw string) (Rule, error) {
	point, rest, ok := strings.Cut(raw, "=")
	if !ok {
		return Rule{}, fmt.Errorf("faults: rule %q: want point=kind[:key=value...]", raw)
	}
	if err := checkPoint(point); err != nil {
		return Rule{}, err
	}
	parts := strings.Split(rest, ":")
	r := Rule{Point: point}
	switch parts[0] {
	case "error":
		r.Kind = KindError
	case "panic":
		r.Kind = KindPanic
	case "slow":
		r.Kind = KindSlow
	case "cancel":
		r.Kind = KindCancel
	case "ioerror":
		r.Kind = KindIOError
	case "enospc":
		r.Kind = KindENOSPC
	case "drop":
		r.Kind = KindDrop
	case "5xx":
		r.Kind = Kind5xx
	default:
		return Rule{}, fmt.Errorf("faults: rule %q: unknown kind %q (want panic|error|slow|cancel|ioerror|enospc|drop|5xx)", raw, parts[0])
	}
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return Rule{}, fmt.Errorf("faults: rule %q: option %q: want key=value", raw, opt)
		}
		switch key {
		case "after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Rule{}, fmt.Errorf("faults: rule %q: bad after %q", raw, val)
			}
			r.After = n
		case "times":
			if val == "all" {
				r.Times = -1
				break
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("faults: rule %q: bad times %q (want a positive count or \"all\")", raw, val)
			}
			r.Times = n
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Rule{}, fmt.Errorf("faults: rule %q: bad delay %q", raw, val)
			}
			r.Delay = d
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Rule{}, fmt.Errorf("faults: rule %q: bad p %q (want [0,1])", raw, val)
			}
			r.P = p
		default:
			return Rule{}, fmt.Errorf("faults: rule %q: unknown option %q (want after|times|delay|p)", raw, key)
		}
	}
	return r, nil
}

// checkPoint validates a rule's point against the known vocabulary, so a
// typoed stage prefix fails at parse time rather than silently never firing.
func checkPoint(point string) error {
	if point == "*" {
		return nil
	}
	if name, ok := strings.CutPrefix(point, "stage:"); ok {
		if name == "" {
			return fmt.Errorf("faults: point %q: empty stage name", point)
		}
		return nil
	}
	if op, ok := strings.CutPrefix(point, "cache:"); ok {
		switch op {
		case "read", "write", "store", "*":
			return nil
		}
		return fmt.Errorf("faults: point %q: unknown cache op (want read|write|store|*)", point)
	}
	if name, ok := strings.CutPrefix(point, "net:"); ok {
		if name == "" {
			return fmt.Errorf("faults: point %q: empty worker name", point)
		}
		return nil
	}
	return fmt.Errorf("faults: point %q: want stage:<name>, cache:<op>, net:<worker> or *", point)
}
