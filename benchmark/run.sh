#!/usr/bin/env bash
# Build the LISA benchmark from source and run it, from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# The build stays inside the checkout (_build, no shared dune cache).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: run this from the root of a LISA checkout" >&2
  exit 2
fi

exec dune exec --root . --cache=disabled --display quiet \
  ./benchmark/lisa_bench.exe -- "$@"
