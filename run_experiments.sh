#!/usr/bin/env bash
# Regenerate every figure and quantitative claim of Crockett (1989), and
# every measurement of the stack built on them.
# Outputs land on stdout and (as JSON) in results/; the measured
# experiments also leave a flat BENCH_<name>.json at the repo root.
set -euo pipefail
mkdir -p results

# E1..E12: the paper's claims, on the simulator (request counts and
# virtual time; one run is exact) — but for E8, which times the real
# sequential stream on sleeping devices, five runs a lane, and leaves
# BENCH_e8_readahead.json and BENCH_e8_writebehind.json beside its two
# tables.
paper="e1_figure1 e2_striping e3_selfsched e4_device_per_process
       e5_global_view e6_seek_degradation e7_declustering e8_buffering
       e9_view_mismatch e10_boundary e11_reliability e12_is_blocksize"
# E13..E20: the real stack, every lane run five times or more and
# reported as a median between its quartiles.
measured="span_coalesce e14_server e15_executor e16_faults e17_cache
          e18_net e19_scale e20_recovery"

started=$(mktemp)
trap 'rm -f "$started"' EXIT
for exp in $paper $measured; do
    cargo run --release -q -p pario-bench --bin "exp_$exp"
done

# Every experiment must have left every one of its tables behind in
# this run; a silent skip (an early exit, a renamed table, one table of
# two no longer written) should fail the run, not go unnoticed. An
# experiment's table is results/<its name>.json, except that E1 draws a
# timeline and saves none and four of the paper's save two each.
tables_of() {
    case $1 in
        e1_figure1) ;;
        e2_striping) echo e2_striping_devices e2_striping_unit ;;
        e8_buffering) echo e8_readahead e8_writebehind ;;
        e9_view_mismatch) echo e9_crossover e9_view_mismatch ;;
        e11_reliability) echo e11_campaign e11_mtbf ;;
        *) echo "$1" ;;
    esac
}
missing=0
for exp in $paper $measured; do
    for table in $(tables_of "$exp"); do
        if [ -z "$(find results -name "$table.json" -newer "$started")" ]; then
            echo "MISSING: results/$table.json (exp_$exp left none)" >&2
            missing=1
        fi
    done
done
# The flat benchmark summaries (regression tracking) must exist too.
for exp in $measured; do
    if [ -z "$(find . -maxdepth 1 -name "BENCH_$exp.json" -newer "$started")" ]; then
        echo "MISSING: BENCH_$exp.json" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "run_experiments.sh: one or more result files missing" >&2
    exit 1
fi
echo "All expected result files present."
