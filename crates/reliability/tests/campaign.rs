//! A failure campaign: drives fail one after another on the schedule the
//! exponential model draws, and after each failure the system detects,
//! serves degraded, rebuilds onto a replacement, and scrubs clean —
//! sustained over many events, the operational story behind the paper's
//! reliability arithmetic.

use pario_fs::{FileSpec, HealthState, Volume, VolumeConfig};
use pario_layout::LayoutSpec;
use pario_reliability::{
    failure_schedule, rebuild_device, scrub, RebuildThrottle, PAPER_DEVICE_MTBF_HOURS,
};

const BS: usize = 512;

#[test]
fn survive_a_decade_of_failures() {
    let devices = 5usize;
    let v = Volume::create_in_memory(VolumeConfig {
        devices,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap();
    let f = v
        .create_file(FileSpec::new(
            "archive",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 4,
                rotated: true,
            },
        ))
        .unwrap();
    let n = 64u64;
    for r in 0..n {
        f.write_record(r, &vec![(r % 251) as u8 + 1; BS]).unwrap();
    }

    // Ten simulated years of failures on 5 drives at the paper's MTBF.
    // Each year draws a fresh schedule (replaced drives can fail again);
    // expectation is 5 * 8,760 / 30,000 ≈ 1.5 events per year.
    let events: Vec<_> = (0..10)
        .flat_map(|year| failure_schedule(devices, PAPER_DEVICE_MTBF_HOURS, 8_760.0, 100 + year))
        .collect();
    assert!(
        events.len() >= 8,
        "seeded schedules should produce a healthy number of failures, got {}",
        events.len()
    );

    let mut buf = vec![0u8; BS];
    let mut generation = 0u64;
    for (k, ev) in events.iter().enumerate() {
        // Drive dies.
        v.device(ev.device).fail();

        // Degraded operation: every record readable; one record updated
        // each generation to prove writes continue too.
        for r in 0..n {
            f.read_record(r, &mut buf).unwrap();
        }
        generation += 1;
        f.write_record(generation % n, &vec![(generation % 250) as u8 + 1; BS])
            .unwrap();

        // Replacement arrives blank; rebuild and scrub.
        v.device(ev.device).heal();
        let zero = vec![0u8; BS];
        for b in 0..v.device(ev.device).num_blocks() {
            v.device(ev.device).write_block(b, &zero).unwrap();
        }
        rebuild_device(&v, ev.device, RebuildThrottle::UNBOUNDED).unwrap();
        assert_eq!(
            v.device_health(ev.device),
            HealthState::Healthy,
            "event {k}"
        );
        assert!(!v.is_degraded(), "event {k}");
        assert!(
            scrub(&f).unwrap().is_empty(),
            "event {k} (device {}): scrub dirty after rebuild",
            ev.device
        );
    }

    // Final content check: every record present; the per-generation
    // updates took effect.
    for r in 0..n {
        f.read_record(r, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == buf[0]), "record {r} torn");
        assert_ne!(buf[0], 0, "record {r} lost");
    }
}
