#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the checkout:
#
#   bash lyrabench/run.sh --workload fabric-compile --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the checkout's
# .bench_build directory (or $CARGO_TARGET_DIR when it is set), including
# the Go build cache and temporary files.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
(cd "$root/lyrabench" && go build -o "$out/lyrabench" .) >&2
exec "$out/lyrabench" --root "$root" "$@"
