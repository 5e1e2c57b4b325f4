#!/usr/bin/env bash
# Builds cmd/facsvc and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload square --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build and
# module caches, the go command's configuration (telemetry) and temporary
# files stay under .bench_build (or $CARGO_TARGET_DIR when set), so nothing
# is written outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/facsvc" ]]; then
	echo "perfbench: run from the root of a repository checkout (no go.mod or cmd/facsvc here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/facsvc" ./cmd/facsvc
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --facsvc "$out/facsvc" "$@"
