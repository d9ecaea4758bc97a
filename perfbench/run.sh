#!/usr/bin/env bash
# Builds the benchmark driver and runs one benchmark run.
#
# Run from the root of a jxplain source checkout:
#
#   bash perfbench/run.sh --workload events --seed 1 --seconds 12 --trace 0
#
# Everything the run builds or writes (Go build cache, binaries, generated
# inputs, trace files) stays under $CARGO_TARGET_DIR, default .bench_build,
# inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/jxplain" ] || [ ! -d "$root/cmd/jxshard" ] ||
	[ ! -d "$root/internal/core" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a jxplain source checkout (go.mod, cmd/, internal/ and perfbench/ needed)" >&2
	exit 2
fi

work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work/gocache" "$work/gotmp" "$work/gopath" "$work/bin"

export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOPATH="$work/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
export PERFBENCH_WORK="$work"

(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" run "$@"
