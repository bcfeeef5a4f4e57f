#!/bin/sh
# Build the end-to-end benchmark from source and run it.  Run from the
# root of the repository; arguments go to perfbench/e2e.exe, e.g.
#
#   sh perfbench/run.sh --workload npb_cg --seed 1 --seconds 10 --trace 0
#
# Build output goes to dune's _build/ (on stderr, so the last line of
# stdout stays the benchmark's result).
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d examples ]; then
  echo "perfbench: dune-project, lib/ and examples/ are missing;" \
    "run from the root of a full checkout" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . ./perfbench/e2e.exe 1>&2
exec ./_build/default/perfbench/e2e.exe "$@"
