#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from this checkout, then
# run it: bash bench/perf/run.sh run --workload hot --seed 1 --trace 0
# (see bench/perf/README.md). Run from the root of the checkout. The
# shared dune cache is off, so the build reads and writes only inside
# the checkout (a build from scratch takes seconds).
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet bench/perf/perf.exe bin/dpserved.exe
exec _build/default/bench/perf/perf.exe "$@"
