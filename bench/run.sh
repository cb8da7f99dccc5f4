#!/usr/bin/env bash
# Builds the benchmark and cmd/prefcoverd from this checkout into
# .bench_build/ and runs the benchmark with the given flags. Run it from the
# repository root, e.g.
#
#   bash bench/run.sh --workload cold-pins --seed 1 --seconds 24 --trace 0
#
# The Go build cache and the daemons' temp files stay under .bench_build/
# too, so a run writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" TMPDIR="$out/tmp"
(cd bench && go build -o "$out/prefbench" .)
go build -o "$out/prefcoverd" ./cmd/prefcoverd
exec "$out/prefbench" -daemon "$out/prefcoverd" "$@"
