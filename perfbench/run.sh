#!/usr/bin/env bash
# Builds the edramd benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the checkout
# root:
#
#   bash perfbench/run.sh --workload design-session --seed 1 --seconds 12 --trace 0
#
# Every file the toolchain and the benchmark write stays under
# .bench_build/ in the checkout (Go build cache, temp files, the binary,
# the disk-tier directories of each daemon life and the trace spans).
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/home" "${out}/tmp"

export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/gotmp"
export GOPATH="${out}/gopath"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOPROXY=off

go -C "${root}/perfbench" build -buildvcs=false -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
