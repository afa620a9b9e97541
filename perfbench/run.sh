#!/usr/bin/env bash
# Build the benchmark from source, then run it from the
# repository root:
#
#   bash perfbench/run.sh --workload failover --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh selftest
#
# Build output stays under _build/ in the checkout; the dune cache is
# off so nothing is written outside it.  Without the repository's
# sources around it the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
