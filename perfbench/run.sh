#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, binary, WAL scratch, span dumps) stays under .bench_build/ in
# the current directory. Without the repository around perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
# VCS stamping (the commit in the report's context line) fails in some
# checkouts, for example one owned by another user; build without it then.
(cd "$src" && go build -o "$out/perfbench" . 2>/dev/null) ||
	(cd "$src" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
