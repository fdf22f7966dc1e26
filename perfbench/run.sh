#!/usr/bin/env bash
# Builds the benchmark and prefetchd from this checkout's source, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload daemon-link --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and the trace files stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d prefetcher || ! -d cmd/prefetchd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, prefetcher/, cmd/prefetchd/ and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/prefetchd" repro/cmd/prefetchd) >&2
# Write the build's output to disk now: left to the kernel, the writeback
# of a fresh build cache lands in the measured window.
sync -f "$out/bin"

exec "$out/bin/perfbench" -daemon-bin "$out/bin/prefetchd" -out-dir "$out" "$@"
