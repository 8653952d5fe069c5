#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build bench/e2e from source into
# .bench_build (the only directory the build writes, Go caches included),
# then run it with the driver's arguments. Run from the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOENV=off \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/e2e" ./e2e)
exec "$build/e2e" "$@"
