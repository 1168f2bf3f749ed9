#!/usr/bin/env bash
# Builds the perfbench driver from this checkout's sources and runs it with
# the given arguments (see README.md). The Go build cache, the binary and
# run artifacts stay under $CARGO_TARGET_DIR (default .bench_build) inside
# the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$root/$out
mkdir -p "$out/tmp" "$out/run"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp PPROF_TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -golden perfbench/golden.json -out "$out/run" "$@"
