#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. Arguments pass through:
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --repeat 2           ... twice, and check the sets agree
#   benchmark/run.sh --smoke              ... at about a second per run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, one JSON result line (the gate's form)
#
# Run it from anywhere; it does not change directory, so a relative
# CARGO_TARGET_DIR means what it means to cargo.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export PARIO_BENCH_OUT="${PARIO_BENCH_OUT:-$here/out}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/pario-benchmark"

# Pin the whole process tree to one CPU. In this sandbox a wake-up that
# crosses vCPUs costs 15-50 us of host scheduling - several times the
# software path being measured - and comes and goes with thread
# placement (README, "Noise"). On one CPU every hand-off is a plain
# context switch. Without taskset the benchmark still runs, unpinned.
if command -v taskset >/dev/null 2>&1; then
    cpu="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/[,-].*//')"
    if [ -n "$cpu" ]; then
        exec taskset -c "$cpu" "$bin" "$@"
    fi
fi
exec "$bin" "$@"
