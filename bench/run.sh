#!/usr/bin/env bash
# Builds the batlifed benchmark from the source tree it sits in and runs
# it with the given flags. Run from the repository root:
#
#   bash bench/run.sh -seed 1 [-workload NAME] [-seconds S] [-trace 1]
#
# Build outputs, the Go build cache and trace files go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# The go command also keeps its settings and telemetry counters under
# the user config directory; point that into the checkout too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/batlifebench" .)
exec "$out/batlifebench" -trace-dir "$out/traces" "$@"
