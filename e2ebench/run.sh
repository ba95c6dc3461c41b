#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload warm-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the binary, the
# per-run scratch directories, results.jsonl and the span files. It fails
# (exit 1, no result line) when the elites module is not beside it.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] || { echo "run.sh: no go.mod in $root; run from the repository root" >&2; exit 1; }
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
