#!/usr/bin/env bash
# Build the mediator and the benchmark from source, then run one workload:
#   bash medbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error; the last line of standard output is
# the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "medbench: no mediator sources here (dune-project, lib/ and bin/ are needed)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "medbench: dune not found on PATH" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./medbench/main.exe ./bin/disco.exe 1>&2
exec ./_build/default/medbench/main.exe --disco ./_build/default/bin/disco.exe "$@"
