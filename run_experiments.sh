#!/usr/bin/env bash
# Regenerate every figure and quantitative claim of Crockett (1989), and
# every measurement of the stack built on them: `exp` runs every
# experiment, prints its report, writes the tables and summaries it
# declares (results/<table>.json, BENCH_<name>.json at the repo root),
# and exits non-zero if a verdict fails or a declared file is not
# written. Extra arguments go to `exp` (`--smoke`, experiment ids).
set -euo pipefail
cargo run --release -q -p pario-bench --bin exp -- "$@"
