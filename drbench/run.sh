#!/usr/bin/env bash
# Builds the drbench binary from the checkout's sources and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash drbench/run.sh --workload burst --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary files, span JSON) stays under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

# XDG_CONFIG_HOME keeps the go command's settings and telemetry counters
# in the checkout too. The module has no dependencies to fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/drbench" .)
cd "$root"
exec "$out/drbench" -spans "$out/spans" "$@"
