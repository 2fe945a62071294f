#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload perm-static --seed 1 --seconds 20 --trace 0
# Every build artifact and Go cache goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path \
	XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build output goes to stderr, so the result stays the last stdout line.
if ! (cd perfbench && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
