#!/usr/bin/env bash
# Regenerate every figure and quantitative claim of Crockett (1989).
# Outputs land on stdout and (as JSON) in results/.
set -euo pipefail
mkdir -p results
for exp in e1_figure1 e2_striping e3_selfsched e4_device_per_process \
           e5_global_view e6_seek_degradation e7_declustering \
           e8_buffering e9_view_mismatch e10_boundary e11_reliability \
           e12_is_blocksize; do
    cargo run --release -q -p pario-bench --bin "exp_$exp"
done
cargo run --release -q -p pario-bench --bin exp_span_coalesce
cargo run --release -q -p pario-bench --bin exp_e14_server
cargo run --release -q -p pario-bench --bin exp_e15_executor
cargo run --release -q -p pario-bench --bin exp_e16_faults
cargo run --release -q -p pario-bench --bin exp_e17_cache
cargo run --release -q -p pario-bench --bin exp_e18_net
cargo run --release -q -p pario-bench --bin exp_e19_scale
cargo run --release -q -p pario-bench --bin exp_e20_recovery

# Every experiment must have left its JSON behind; a silent skip (an
# early exit, a renamed table) should fail the run, not go unnoticed.
missing=0
for f in e2_striping_devices e2_striping_unit e3_selfsched \
         e4_device_per_process e5_global_view e6_seek_degradation \
         e7_declustering e8_readahead e8_writebehind e9_crossover \
         e9_view_mismatch e10_boundary e11_campaign e11_mtbf \
         e12_is_blocksize span_coalesce span_coalesce_global \
         span_coalesce_parity_write span_coalesce_degraded \
         e14_server e14_server_sweep e15_executor e15_executor_sched \
         e15_executor_handoff \
         e16_faults e17_cache e17_cache_under_flush \
         e18_net_sweep e18_net_depth \
         e19_scale e19_net e20_recovery; do
    if [ ! -f "results/$f.json" ]; then
        echo "MISSING: results/$f.json" >&2
        missing=1
    fi
done

# The flat benchmark summaries (regression tracking) must exist too.
for f in BENCH_e14_server.json BENCH_e15_executor.json \
         BENCH_e16_faults.json BENCH_e17_cache.json BENCH_e18_net.json \
         BENCH_e19_scale.json BENCH_e20_recovery.json; do
    if [ ! -f "$f" ]; then
        echo "MISSING: $f" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "run_experiments.sh: one or more result files missing" >&2
    exit 1
fi
echo "All expected result files present."
