#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload. From the checkout root:
#
#	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and the run's scratch data stay
# under $CARGO_TARGET_DIR (default .bench_build), which a relative path
# places in the checkout, wherever the script is run from.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$src/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"

# The module needs nothing beyond the checkout and the standard library,
# so the build never looks for modules anywhere else.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOSUMDB=off

(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -data "$out" "$@"
