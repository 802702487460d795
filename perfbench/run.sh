#!/usr/bin/env bash
# Builds the ataqcd daemon and the benchmark from this checkout, then runs
# the benchmark. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload compile-dense --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache, temporary files, and the go command's own
# config files (XDG_CONFIG_HOME). Go telemetry is switched off there: with it
# on, the go command forks an upload process that outlives this script.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/ataqcd ]]; then
	echo "run.sh: no ataqc source here (go.mod, cmd/ataqcd); run it from the repository root" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go build -o "$out/bin/ataqcd" ./cmd/ataqcd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/ataqcd" -workdir "$out" "$@"
