#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything else the Go toolchain
# writes stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

(
	cd "$root/perfbench"
	HOME="$out/home" \
		XDG_CONFIG_HOME="$out/home/.config" \
		XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" \
		TMPDIR="$out/tmp" \
		GOTOOLCHAIN=local \
		GOPROXY=off \
		CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
