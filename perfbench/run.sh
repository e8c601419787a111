#!/usr/bin/env bash
# Builds the perfbench command and the powerchop binary from this checkout,
# then runs perfbench with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/powerchop" powerchop/cmd/powerchop) >&2

exec "$out/bin/perfbench" -powerchop "$out/bin/powerchop" -work "$out/work" "$@"
