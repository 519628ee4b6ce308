#!/usr/bin/env bash
# Builds repobench and gcxd from this checkout's sources and runs one
# workload; arguments are passed on, e.g.
#
#   bash repobench/run.sh --workload xmark-scan --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/repobench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/repobench"
go build -buildvcs=false -o "$out/bin/repobench" .
go build -buildvcs=false -o "$out/bin/gcxd" gcx/cmd/gcxd
cd "$root"
exec "$out/bin/repobench" -gcxd "$out/bin/gcxd" -work "$out/repobench" "$@"
