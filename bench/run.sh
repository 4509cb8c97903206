#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root. Every argument is passed through:
#
#   bash bench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries, temporary files and the replicas'
# snapshot directories all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry and settings under the user's home.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" -root "$root" -bin "$out/bin" "$@"
