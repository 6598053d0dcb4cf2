#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (the Go build cache, the binary, a traced run's spans) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The benchmark is a module of its own that builds the repository's
# packages from the parent directory (see perfbench/go.mod).
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
