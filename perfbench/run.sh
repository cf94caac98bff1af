#!/bin/sh
# Builds the benchmark and cmd/buserve from this checkout's sources and
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload repro|serve|farm --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binaries, each run's
# scratch directory (removed when the run ends) and the traced runs'
# span files.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/buserve" buanalysis/cmd/buserve)

# The commit under test: git's when this is a repository, otherwise a
# digest of the Go sources, which names the code just as well.
if commit="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	:
else
	commit="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT="$commit"

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
