#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload report --seed 42 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build; the benchmark's own scratch data
# goes to .bench_tmp and traced spans to .bench_out.
set -euo pipefail
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
root=$(pwd)
b="$root/.bench_build"
mkdir -p "$b/tmp" "$b/config" "$b/cache"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod" \
	GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config" XDG_CACHE_HOME="$b/cache" \
	GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$b/perfbench" .)
exec "$b/perfbench" "$@"
