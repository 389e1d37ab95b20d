#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# from the root of a checkout.  Repetitions run until about S host
# seconds have passed; --trace 1 adds the traced run and reports the
# per-layer metrics.  The last line of standard output is the result as
# one JSON object.  The build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe run --spec BENCHMARK.json "$@"
