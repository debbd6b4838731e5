#!/usr/bin/env bash
# Builds the ledger from the sources of the checkout this script sits in,
# then runs it with every argument passed through (see README.md here).
# The dune cache stays off so the build reads and writes only the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/ledger/ledger.exe >&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
