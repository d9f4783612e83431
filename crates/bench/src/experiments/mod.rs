//! The experiments, one module each, and [`ALL`], the one list of them.

use crate::Experiment;

mod e10_boundary;
mod e11_reliability;
mod e12_is_blocksize;
mod e14_server;
mod e15_executor;
mod e16_faults;
mod e17_cache;
mod e18_net;
mod e19_scale;
mod e1_figure1;
mod e20_recovery;
mod e2_striping;
mod e3_selfsched;
mod e4_device_per_process;
mod e5_global_view;
mod e6_seek_degradation;
mod e7_declustering;
mod e8_buffering;
mod e9_view_mismatch;
mod span_coalesce;

/// Every experiment, in the order `exp` runs them.
pub const ALL: &[Experiment] = &[
    Experiment {
        id: "e1",
        title: "E1 / Figure 1",
        claim: "the four sequential parallel file organizations and their \
                access patterns for three processes",
        run: e1_figure1::run,
        tables: &[],
        benches: &[],
    },
    Experiment {
        id: "e2",
        title: "E2 (striping scaling)",
        claim: "striping a type S file across multiple drives raises transfer \
                rate roughly linearly",
        run: e2_striping::run,
        tables: &["e2_striping_devices", "e2_striping_unit"],
        benches: &[],
    },
    Experiment {
        id: "e3",
        title: "E3 (self-scheduled synchronization)",
        claim: "two-phase pointer reservation lets the next process proceed \
                before the previous transfer completes; a big lock unduly \
                serializes access",
        run: e3_selfsched::run,
        tables: &["e3_selfsched"],
        benches: &[],
    },
    Experiment {
        id: "e4",
        title: "E4 (device per process: PS and IS)",
        claim: "with one device per process, PS and IS give each process a \
                private drive and processes proceed at their own rates",
        run: e4_device_per_process::run,
        tables: &["e4_device_per_process"],
        benches: &[],
    },
    Experiment {
        id: "e5",
        title: "E5 (global view of PS vs striped)",
        claim: "the global (sequential) view of a striped file enjoys I/O \
                parallelism; the PS organization's global view visits one disk \
                after another with none",
        run: e5_global_view::run,
        tables: &["e5_global_view"],
        benches: &[],
    },
    Experiment {
        id: "e6",
        title: "E6 (seek degradation with shared devices)",
        claim: "sharing a drive among processes costs seeks; on-disk allocation \
                policy and arm scheduling determine how much",
        run: e6_seek_degradation::run,
        tables: &["e6_seek_degradation"],
        benches: &[],
    },
    Experiment {
        id: "e7",
        title: "E7 (declustering vs whole-block placement)",
        claim: "splitting blocks across drives reduces contention under \
                non-uniform access; whole-block placement concentrates hot \
                blocks on one drive",
        run: e7_declustering::run,
        tables: &["e7_declustering", "e7_hot_block"],
        benches: &[],
    },
    Experiment {
        id: "e8",
        title: "E8 (multiple buffering and I/O overlap)",
        claim: "single buffering serialises I/O and computation; a second \
                buffer with a dedicated I/O thread overlaps them, up to 2x at a \
                balanced compute:I/O ratio",
        run: e8_buffering::run,
        tables: &["e8_readahead", "e8_writebehind"],
        benches: &["e8_readahead", "e8_writebehind"],
    },
    Experiment {
        id: "e9",
        title: "E9 (internal-view mismatch: PS file read as IS)",
        claim: "adapter view = degraded performance; global view = serial; \
                conversion = expensive once, fast thereafter",
        run: e9_view_mismatch::run,
        tables: &["e9_view_mismatch", "e9_crossover"],
        benches: &[],
    },
    Experiment {
        id: "e10",
        title: "E10 (partition-boundary data)",
        claim: "replicate boundary data in the file, or cache it in memory; \
                caching pays off over multiple passes, replication costs storage \
                and global-view coherence work",
        run: e10_boundary::run,
        tables: &["e10_boundary"],
        benches: &[],
    },
    Experiment {
        id: "e11",
        title: "E11 (reliability)",
        claim: "MTBF falls linearly with device count; parity rides out one \
                failed drive (striped layouts only); shadowing doubles cost; \
                partial restores tear consistency",
        run: e11_reliability::run,
        tables: &["e11_mtbf", "e11_campaign"],
        benches: &[],
    },
    Experiment {
        id: "e12",
        title: "E12 (IS global view vs buffer space)",
        claim: "the IS global view parallelises while clusters fit the buffer \
                space; clusters at or beyond the buffer budget serialise it",
        run: e12_is_blocksize::run,
        tables: &["e12_is_blocksize"],
        benches: &[],
    },
    Experiment {
        id: "e13",
        title: "E13 span coalescing (vectored runs + device fan-out)",
        claim: "transferring as much data as possible in each access: spans \
                become one vectored request per device run, and independent \
                runs proceed in parallel across devices",
        run: span_coalesce::run,
        tables: &["span_coalesce"],
        benches: &["span_coalesce"],
    },
    Experiment {
        id: "e14",
        title: "E14: multi-client service layer (sessions, sharing, admission)",
        claim: "independent client sessions share one server: SS cursors span \
                sessions exactly-once, throughput scales with devices, and a \
                bounded admission queue enforces the configured in-flight limit",
        run: e14_server::run,
        tables: &["e14_server"],
        benches: &["e14_server"],
    },
    Experiment {
        id: "e15",
        title: "E15 I/O executor (persistent per-device workers)",
        claim: "dedicated I/O processors: the modelled 1989 drive's seek-aware \
                policy beats FIFO on a scattered backlog, and a call that finds \
                its undelayed node idle runs on the calling thread instead of \
                paying the hand-off",
        run: e15_executor::run,
        tables: &["e15_executor"],
        benches: &["e15_executor"],
    },
    Experiment {
        id: "e16",
        title: "E16 (online fault management)",
        claim: "a shadowed volume rides out an injected fail-stop: foreground \
                reads and writes keep flowing while the device is detected, \
                declared Failed, and rebuilt online through throttled bursts",
        run: e16_faults::run,
        tables: &["e16_faults"],
        benches: &["e16_faults"],
    },
    Experiment {
        id: "e17",
        title: "E17: volume-wide shared buffer cache (hot reuse, coalescing, \
                hits beside flushes)",
        claim: "a shared buffer tier in front of the I/O processors turns \
                cross-session hot reuse into frame copies and moves a burst's \
                write-backs and cold misses as vectored runs",
        run: e17_cache::run,
        tables: &["e17_cache"],
        benches: &["e17_cache"],
    },
    Experiment {
        id: "e18",
        title: "E18: network service layer (pario-net)",
        claim: "the framed wire protocol carries the full session surface over \
                a socket; pipelined claims under per-connection credits keep the \
                devices, not the round trips, as the bottleneck",
        run: e18_net::run,
        tables: &["e18_net"],
        benches: &["e18_net"],
    },
    Experiment {
        id: "e19",
        title: "E19: open-loop scale harness and the admission throughput ceiling",
        claim: "a fixed arrival schedule (coordinated-omission safe) finds the \
                server's saturation point and the latency cliff past it",
        run: e19_scale::run,
        tables: &["e19_scale"],
        benches: &["e19_scale"],
    },
    Experiment {
        id: "e20",
        title: "E20: crash recovery — journal traffic and mount-time replay",
        claim: "the write-ahead intent journal keeps metadata crash-consistent \
                without a record on the steady-state write path and, with \
                allocation running ahead of the appends, a logarithm of records \
                on the growing one; mount-time replay recovers a dirty volume in \
                milliseconds",
        run: e20_recovery::run,
        tables: &["e20_recovery"],
        benches: &["e20_recovery"],
    },
];
