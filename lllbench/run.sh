#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash lllbench/run.sh --workload serve-hot --seed 7 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file the benchmark writes stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/lllbench/go.mod" ]]; then
	echo "lllbench: run from the repository root (go.mod and lllbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/lllbench" && go build -o "$out/lllbench" .)
exec "$out/lllbench" "$@"
