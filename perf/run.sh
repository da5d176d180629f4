#!/bin/sh
# Builds the benchmark from source in this checkout, then runs it:
#   sh perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr and to _build/; only the benchmark writes
# to stdout.  Outside a full checkout the build fails and so does this.
set -e
export DUNE_CACHE=disabled
dune build --root . perf/main.exe 1>&2
exec ./_build/default/perf/main.exe "$@"
