#!/usr/bin/env bash
# Regenerate every figure and quantitative claim of Crockett (1989), and
# every measurement of the stack built on them: `exp` runs every
# experiment, prints its report, writes the tables and summaries it
# declares (results/<table>.json, BENCH_<name>.json) and exits non-zero
# if a verdict fails or a declared file is not written. `exp` alone
# writes under target/exp/; this script names the repo root, so it is
# the one that refreshes the committed files. Extra arguments go to
# `exp` (`--smoke`, experiment ids).
set -euo pipefail
cd "$(dirname "$0")"
cargo run --release -q -p pario-bench --bin exp -- --out . "$@"
