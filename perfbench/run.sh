#!/usr/bin/env bash
# Builds aqeserver and the benchmark from the source tree this script sits
# in, then runs the benchmark; every argument is passed through:
#
#   bash perfbench/run.sh --workload adhoc-tpch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the traced run's span files stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/aqeserver" ]; then
	echo "run.sh: no aqe source tree in $root" >&2
	exit 1
fi
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/aqeserver" ./cmd/aqeserver
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" -server "$build/aqeserver" -out "$build" -commit "$commit" "$@"
