#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Must be started from the root of the checkout. Build output goes to
# stderr so that the result stays the last line of standard output.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
