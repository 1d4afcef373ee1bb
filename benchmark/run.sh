#!/bin/bash
# Entry point named by BENCHMARK.json: builds the harness and the
# cmd/campaignd binary the fleet workloads drive into .bench_build/ of the
# checkout, then runs the harness with the given arguments. Every file the
# toolchain or the benchmark writes (build cache, temp dirs, journals,
# lakes, logs, traces) stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

stale() {
	[ ! -x "$build/bench" ] || [ ! -x "$build/campaignd" ] ||
		[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$build/bench" -print -quit)" ]
}

if stale; then
	start=$(date +%s%N)
	(cd "$root" && go build -o "$build/campaignd" ./cmd/campaignd) >&2
	(cd "$root/benchmark" && go build -o "$build/bench" .) >&2
	ms=$((($(date +%s%N) - start) / 1000000))
	# harness.build_s: the one-off build, kept out of every set-up metric.
	printf '%d.%03d\n' $((ms / 1000)) $((ms % 1000)) >"$build/build_s"
fi

cd "$root"
exec "$build/bench" -campaignd "$build/campaignd" "$@"
