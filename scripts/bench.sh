#!/bin/sh
# bench.sh — run the repo's heavy benchmarks and record the results as
# machine-readable JSON, establishing a perf baseline future PRs can diff
# against.
#
# Covered: sharded Brandes betweenness (worker budgets 1/2/4/8), the CSN
# goodness-of-fit bootstrap (1/2/8), the full characterization cold vs.
# warm result cache, the HTTP serving layer's cold vs. warm report
# request latency (eliteserve's stack: router, coalescer, admission,
# pipeline, encoding), the bulk per-user feature matrix pass (1/8),
# warm users:batch requests (encoded-body memo vs. precomputed feature
# shards), and the §IV-B Lanczos eigenvalue fit (top 150 from 450 Krylov
# vectors).
#
# Benchmark names are normalized (the trailing -GOMAXPROCS suffix is
# stripped) so baselines survive a change in core count; allocation stats
# (B/op, allocs/op) are recorded for benchmarks that report them.
#
#   sh scripts/bench.sh                 # writes BENCH_results.json
#   sh scripts/bench.sh compare         # fresh run diffed against the
#                                       # committed baseline; prints per-
#                                       # benchmark deltas, writes nothing
#   BENCHTIME=5x sh scripts/bench.sh    # more iterations
#   OUT=/tmp/b.json sh scripts/bench.sh # alternate output path
#   PATTERN=BenchmarkBetweenness sh scripts/bench.sh compare
#                                       # restrict to one benchmark family
#   GATE_PATTERN=Betweenness GATE_MAX=10 sh scripts/bench.sh compare
#                                       # compare exits 1 if any matching
#                                       # benchmark regresses > 10% — the
#                                       # CI perf gate
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-record}"
BENCHTIME="${BENCHTIME:-2x}"
OUT="${OUT:-BENCH_results.json}"
BASELINE="${BASELINE:-BENCH_results.json}"
PATTERN="${PATTERN:-BenchmarkBetweennessParallel|BenchmarkBootstrapParallel|BenchmarkCharacterizationCache|BenchmarkServeRequest|BenchmarkFeatureMatrix|BenchmarkServeUserBatch|BenchmarkEigenvaluePowerLaw}"
GATE_PATTERN="${GATE_PATTERN:-}"
GATE_MAX="${GATE_MAX:-}"

raw=$(mktemp)
json=$(mktemp)
trap 'rm -f "$raw" "$json"' EXIT

# No pipe: a compile error or benchmark failure must abort (set -e) before
# the baseline file is overwritten.
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" . > "$raw"
cat "$raw" >&2

case "$MODE" in
record)
    awk -v go_version="$(go version | awk '{print $3}')" \
        -v benchtime="$BENCHTIME" '
    BEGIN { n = 0 }
    $1 ~ /^Benchmark/ && $4 == "ns/op" {
        sub(/-[0-9]+$/, "", $1)   # strip the GOMAXPROCS suffix
        name[n] = $1; iters[n] = $2; ns[n] = $3
        bytes[n] = ""; allocs[n] = ""
        for (i = 5; i < NF; i++) {
            if ($(i + 1) == "B/op")      bytes[n] = $i
            if ($(i + 1) == "allocs/op") allocs[n] = $i
        }
        n++
    }
    END {
        if (n == 0) { print "bench.sh: no benchmark results parsed" > "/dev/stderr"; exit 1 }
        printf "{\n"
        printf "  \"go\": \"%s\",\n", go_version
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"results\": [\n"
        for (i = 0; i < n; i++) {
            printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", \
                name[i], iters[i], ns[i]
            if (allocs[i] != "")
                printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", bytes[i], allocs[i]
            printf "}%s\n", (i < n - 1 ? "," : "")
        }
        printf "  ]\n"
        printf "}\n"
    }' "$raw" > "$json"
    mv "$json" "$OUT"
    trap 'rm -f "$raw"' EXIT
    echo "wrote $OUT" >&2
    ;;
compare)
    # Diff the fresh run against the committed baseline: one line per
    # benchmark with old/new ns/op and the delta (negative = faster).
    # Baselines recorded on different hardware drift wholesale; the per-
    # benchmark pattern is what matters. With GATE_PATTERN/GATE_MAX set,
    # exit non-zero when a matching benchmark regresses past the bound.
    [ -f "$BASELINE" ] || { echo "bench.sh: no baseline $BASELINE to compare against" >&2; exit 1; }
    awk -v baseline="$BASELINE" -v gate_pat="$GATE_PATTERN" -v gate_max="$GATE_MAX" '
    # Pass 1: the baseline JSON (our own writer format — one result per line).
    FILENAME == baseline {
        if (match($0, /"name": "[^"]+"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            sub(/-[0-9]+$/, "", name)   # old baselines kept the suffix
            if (match($0, /"ns_per_op": [0-9]+/))
                base[name] = substr($0, RSTART + 13, RLENGTH - 13)
        }
        next
    }
    # Pass 2: the fresh `go test -bench` output.
    $1 ~ /^Benchmark/ && $4 == "ns/op" {
        sub(/-[0-9]+$/, "", $1)
        fresh[$1] = $3
        order[m++] = $1
    }
    END {
        if (m == 0) { print "bench.sh: no fresh results parsed" > "/dev/stderr"; exit 1 }
        printf "%-48s %14s %14s %9s\n", "benchmark", "baseline", "fresh", "delta"
        worst = 0; gate_worst = ""; gate_fail = 0
        for (i = 0; i < m; i++) {
            name = order[i]
            if (!(name in base)) {
                printf "%-48s %14s %14.0f %9s\n", name, "(new)", fresh[name], "-"
                continue
            }
            d = 100 * (fresh[name] - base[name]) / base[name]
            if (d > worst) worst = d
            if (gate_pat != "" && gate_max != "" && name ~ gate_pat && d > gate_max + 0) {
                gate_fail = 1
                gate_worst = gate_worst sprintf("  %s %+.1f%%\n", name, d)
            }
            printf "%-48s %14.0f %14.0f %+8.1f%%\n", name, base[name], fresh[name], d
        }
        for (name in base)
            if (!(name in fresh))
                printf "%-48s %14.0f %14s %9s\n", name, base[name], "(gone)", "-"
        printf "worst regression: %+.1f%%\n", worst
        if (gate_fail) {
            printf "bench.sh: gate %s exceeded %s%%:\n%s", gate_pat, gate_max, gate_worst > "/dev/stderr"
            exit 1
        }
    }' "$BASELINE" "$raw"
    ;;
*)
    echo "bench.sh: unknown mode '$MODE' (want: record or compare)" >&2
    exit 1
    ;;
esac
