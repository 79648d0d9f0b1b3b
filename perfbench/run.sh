#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-mixed --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the go command's own state and the
# binary stay under .bench_build/ in the checkout. The module proxy is
# off: the benchmark needs nothing beyond the standard library and the
# repository itself.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
