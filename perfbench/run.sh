#!/bin/bash
# Builds served and the benchmark driver from the checkout in the current
# directory, then runs the driver with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, span dumps) goes
# under .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/served ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/served and perfbench/ must exist)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off

go build -o "$build/bin/served" ./cmd/served
(cd perfbench && go build -o "$build/bin/perfbench" .)

commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/bin/perfbench" -served "$build/bin/served" -out "$build" -commit "$commit" "$@"
