#!/usr/bin/env bash
# Builds the benchmark program and kiterd from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload analyze-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, trace
# files) stays under .bench_build in the repository root.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/bin/" . kiter/cmd/kiterd)
exec "$out/bin/benchmark" -kiterd "$out/bin/kiterd" -out "$out" "$@"
