#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the root of a checkout, e.g.
#   bash edenbench/run.sh --workload invoke-hot --seed 7 --seconds 20 --trace 0
# The build writes only under _build/; the dune cache is off so nothing
# is written outside the checkout.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./edenbench/eden_bench.exe 1>&2
exec ./_build/default/edenbench/eden_bench.exe "$@"
