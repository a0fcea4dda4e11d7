#!/usr/bin/env bash
# Builds the OZZ campaign benchmark from this checkout and runs it.
#
#   bash ozzbench/run.sh --workload steady|hunt|fleet --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, span dumps, determinism records and
# fleet state — stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# No telemetry: nothing may outlive the run or write outside the checkout.
go telemetry off >&2
(cd "$src" && go build -o "$out/bin/ozzbench" .) >&2
exec "$out/bin/ozzbench" --out "$out/ozzbench" "$@"
