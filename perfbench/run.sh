#!/bin/sh
# Benchmark entry point; run from the root of an NV-Scavenger checkout:
#   sh perfbench/run.sh --workload run-cam --seed 1 --seconds 20 --trace 0
# Builds the two commands and the driver (the first build takes a while),
# then hands every argument to the driver.  See perfbench/README.md.
set -eu
if [ ! -f dune-project ] || [ ! -f bin/nvscav.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of an NV-Scavenger checkout" >&2
  exit 2
fi
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bin/nvscav.exe ./bin/experiments.exe \
  ./perfbench/nvbench.exe >&2
exec ./_build/default/perfbench/nvbench.exe "$@"
