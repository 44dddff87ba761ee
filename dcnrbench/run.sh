#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash dcnrbench/run.sh --workload intradc --seed 1 --seconds 20 --trace 0
#   bash dcnrbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, toolchain settings, the binary) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"

# The commit goes into the run header; outside a git checkout it reads
# "unknown". The ceiling keeps git from searching above the checkout.
DCNRBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
	git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export DCNRBENCH_COMMIT

mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$root/dcnrbench" && go build -o "$build/dcnrbench" .) >&2
exec "$build/dcnrbench" "$@"
