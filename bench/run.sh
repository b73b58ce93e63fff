#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload iperf --seed 3 --seconds 10 --trace 0
#
# Run it from the module root. The binary and every Go cache it needs go
# under .bench_build/ there, so the build neither reads nor writes outside
# the checkout; the first build compiles the standard library into that
# cache and takes a minute or two.
set -euo pipefail

if [[ ! -f go.mod || ! -d bench ]]; then
	echo "bench/run.sh: run from the module root (no go.mod or bench/ here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o "$out/hostsim-bench" ./bench
exec "$out/hostsim-bench" "$@"
