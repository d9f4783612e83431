//! Rotating-disk geometry and timing.
//!
//! The paper's era is the late-1980s Winchester drive: tens of megabytes to
//! a few gigabytes, 3600 RPM, average seeks in the tens of milliseconds,
//! and ~1 MB/s media rates. Service time for a request decomposes into
//! *seek* (head movement across cylinders), *rotational latency* (waiting
//! for the first sector to come under the head), and *transfer* (sectors
//! passing under the head). All three are modelled here; the standard
//! `a + b·√d` seek curve captures the arm's accelerate/coast/settle
//! behaviour.

use serde::{Deserialize, Serialize};

use pario_sim::SimTime;

/// Physical description and timing parameters of a modelled disk.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiskGeometry {
    /// Number of cylinders (seek positions).
    pub cylinders: u32,
    /// Heads (= tracks per cylinder).
    pub heads: u32,
    /// Sectors per track.
    pub sectors_per_track: u32,
    /// Sector payload in bytes.
    pub sector_bytes: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Seek settle time in microseconds (the `a` of `a + b·√d`).
    pub seek_settle_us: f64,
    /// Seek coefficient in microseconds per √cylinder (the `b`).
    pub seek_sqrt_us: f64,
}

impl DiskGeometry {
    /// A late-1980s Winchester drive in the class the paper cites
    /// (30,000 h MTBF): ~340 MB, 3600 RPM, ~16 ms average seek, ~1.2 MB/s
    /// media rate. Loosely modelled on the CDC Wren-series drives used in
    /// contemporary multiprocessors.
    pub fn wren_1989() -> DiskGeometry {
        DiskGeometry {
            cylinders: 1549,
            heads: 9,
            sectors_per_track: 46,
            sector_bytes: 512,
            rpm: 3600,
            seek_settle_us: 3000.0,
            seek_sqrt_us: 350.0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.cylinders)
            * u64::from(self.heads)
            * u64::from(self.sectors_per_track)
            * u64::from(self.sector_bytes)
    }

    /// Total capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        u64::from(self.cylinders) * u64::from(self.heads) * u64::from(self.sectors_per_track)
    }

    /// One full revolution.
    pub fn revolution(&self) -> SimTime {
        SimTime::from_secs_f64(60.0 / f64::from(self.rpm))
    }

    /// Time for one sector to pass under the head.
    pub fn sector_time(&self) -> SimTime {
        self.revolution() / u64::from(self.sectors_per_track)
    }

    /// Sustained media transfer rate in bytes per second.
    pub fn media_rate(&self) -> f64 {
        f64::from(self.sectors_per_track) * f64::from(self.sector_bytes)
            / self.revolution().as_secs_f64()
    }

    /// Seek time across `distance` cylinders: zero for zero distance,
    /// otherwise `settle + b·√distance`.
    pub fn seek_time(&self, distance: u32) -> SimTime {
        if distance == 0 {
            return SimTime::ZERO;
        }
        let us = self.seek_settle_us + self.seek_sqrt_us * f64::from(distance).sqrt();
        SimTime::from_secs_f64(us / 1e6)
    }

    /// Average seek time over uniformly random request pairs (≈ seek over
    /// one third of the cylinders) — a sanity-check quantity, not used by
    /// the model itself.
    pub fn avg_seek(&self) -> SimTime {
        self.seek_time(self.cylinders / 3)
    }

    /// Cylinder containing absolute sector `lba`.
    pub fn cylinder_of(&self, lba: u64) -> u32 {
        (lba / (u64::from(self.heads) * u64::from(self.sectors_per_track))) as u32
    }

    /// Sector's angular position on its track, in sector units.
    pub fn sector_on_track(&self, lba: u64) -> u32 {
        (lba % u64::from(self.sectors_per_track)) as u32
    }

    /// Rotational latency from time `now` until sector `target` (angular
    /// index on track) is under the head, assuming the platter's angular
    /// position at `now` is `(now mod revolution)` from index zero.
    pub fn rotational_latency(&self, now: SimTime, target_sector: u32) -> SimTime {
        let rev = self.revolution().as_ns();
        let spt = u64::from(self.sectors_per_track);
        // Current angular position measured in nanoseconds into the
        // revolution; the target sector begins at target * rev / spt.
        let phase = now.as_ns() % rev;
        let target_ns = u64::from(target_sector) * rev / spt;
        let wait = if target_ns >= phase {
            target_ns - phase
        } else {
            rev - phase + target_ns
        };
        SimTime::from_ns(wait)
    }

    /// Media transfer time for `sectors` consecutive sectors (head and
    /// cylinder switches inside a transfer are not modelled; multi-track
    /// transfers are optimistic by a few sector times).
    pub fn transfer_time(&self, sectors: u64) -> SimTime {
        self.sector_time() * sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wren_is_a_plausible_1989_drive() {
        let g = DiskGeometry::wren_1989();
        let mb = g.capacity_bytes() as f64 / 1e6;
        assert!((100.0..2000.0).contains(&mb), "capacity {mb} MB");
        let rate = g.media_rate() / 1e6;
        assert!((0.5..3.0).contains(&rate), "media rate {rate} MB/s");
        let avg = g.avg_seek().as_secs_f64() * 1e3;
        assert!((5.0..30.0).contains(&avg), "avg seek {avg} ms");
        assert_eq!(g.revolution(), SimTime::from_secs_f64(1.0 / 60.0));
    }

    #[test]
    fn seek_monotone_and_zero_at_home() {
        let g = DiskGeometry::wren_1989();
        assert_eq!(g.seek_time(0), SimTime::ZERO);
        let mut prev = SimTime::ZERO;
        for d in [1, 2, 10, 100, 1000, 1548] {
            let t = g.seek_time(d);
            assert!(t > prev, "seek({d}) not increasing");
            prev = t;
        }
        // Settle dominates a one-cylinder seek.
        assert!(g.seek_time(1) >= SimTime::from_us(3000));
    }

    #[test]
    fn rotational_latency_bounded_by_revolution() {
        let g = DiskGeometry::wren_1989();
        let rev = g.revolution();
        for now_ns in [0u64, 1, 12_345_678, 999_999_937] {
            for sector in [0u32, 1, 22, 45] {
                let lat = g.rotational_latency(SimTime::from_ns(now_ns), sector);
                assert!(lat < rev, "latency {lat} >= revolution {rev}");
            }
        }
        // At time zero, sector zero is directly under the head.
        assert_eq!(g.rotational_latency(SimTime::ZERO, 0), SimTime::ZERO);
    }

    #[test]
    fn rotation_wraps_around() {
        let g = DiskGeometry::wren_1989();
        let rev = g.revolution();
        // Just after sector 1 has passed, reaching sector 1 costs ~one rev.
        let spt = u64::from(g.sectors_per_track);
        let just_after = SimTime::from_ns(rev.as_ns() / spt + 1);
        let lat = g.rotational_latency(just_after, 1);
        assert!(lat > rev - rev / spt - SimTime::from_us(1));
    }

    #[test]
    fn transfer_scales_linearly() {
        let g = DiskGeometry::wren_1989();
        assert_eq!(g.transfer_time(10), g.sector_time() * 10);
        // A full track takes one revolution (integer division slop < spt).
        let track = g.transfer_time(u64::from(g.sectors_per_track));
        let diff = track.saturating_sub(g.revolution()) + g.revolution().saturating_sub(track);
        assert!(diff <= SimTime::from_us(1));
    }

    #[test]
    fn chs_mapping() {
        let g = DiskGeometry::wren_1989();
        let per_cyl = u64::from(g.heads) * u64::from(g.sectors_per_track);
        assert_eq!(g.cylinder_of(0), 0);
        assert_eq!(g.cylinder_of(per_cyl - 1), 0);
        assert_eq!(g.cylinder_of(per_cyl), 1);
        assert_eq!(g.sector_on_track(0), 0);
        assert_eq!(g.sector_on_track(u64::from(g.sectors_per_track) + 3), 3);
    }
}
