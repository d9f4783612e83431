//! The one rig builder of the service-layer experiments (E13–E20):
//! memory devices with an optional modelled service time → [`Volume`]
//! (optionally cached) → [`Server`] →
//! optionally a [`NetServer`] on loopback. Beside it, the helpers every
//! one of those binaries used to carry a copy of.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pario_core::ParallelFile;
use pario_disk::{DeviceRef, FaultDevice, FaultPlan, MemDisk};
use pario_fs::{Volume, VolumeCacheConfig};
use pario_layout::LayoutSpec;
use pario_net::{NetConfig, NetServer};
use pario_server::{Server, ServerConfig};

use crate::BS;

/// What a lane runs on. Build one, then end with [`Rig::devices`],
/// [`Rig::volume`] or [`Rig::server`].
pub struct Rig {
    devices: usize,
    blocks: u64,
    block_size: usize,
    delay: Duration,
    cache: Option<VolumeCacheConfig>,
}

impl Rig {
    /// `devices` undelayed memory devices of 2048 [`BS`]-byte blocks,
    /// fronted by the volume's own executor, uncached.
    pub fn new(devices: usize) -> Rig {
        Rig {
            devices,
            blocks: 2048,
            block_size: BS,
            delay: Duration::ZERO,
            cache: None,
        }
    }

    /// Blocks per device.
    pub fn blocks(mut self, blocks: u64) -> Rig {
        self.blocks = blocks;
        self
    }

    /// Device (and volume) block size in bytes.
    pub fn block_size(mut self, bytes: usize) -> Rig {
        self.block_size = bytes;
        self
    }

    /// Modelled service time per device request. From 100 µs up the
    /// device sleeps rather than spins, so requests on different devices
    /// overlap even on one core.
    pub fn delay(mut self, per_request: Duration) -> Rig {
        self.delay = per_request;
        self
    }

    /// Attach the volume-wide cache tier.
    pub fn cache(mut self, cfg: VolumeCacheConfig) -> Rig {
        self.cache = Some(cfg);
        self
    }

    /// The device bank alone, for lanes that drive devices directly or
    /// wrap some of them before [`Rig::volume_over`].
    pub fn devices(&self) -> Vec<DeviceRef> {
        (0..self.devices)
            .map(|i| {
                let disk = MemDisk::named(&format!("mem{i}"), self.blocks, self.block_size);
                Arc::new(disk.with_delay(self.delay)) as DeviceRef
            })
            .collect()
    }

    /// A fresh volume over a fresh device bank.
    pub fn volume(self) -> Volume {
        let devices = self.devices();
        self.volume_over(devices)
    }

    /// A fresh volume over `devices` — the bank from [`Rig::devices`],
    /// possibly with fault injectors wrapped around some of it.
    pub fn volume_over(self, devices: Vec<DeviceRef>) -> Volume {
        let volume = Volume::new(devices).expect("a fresh memory bank formats");
        match self.cache {
            Some(cfg) => volume.enable_cache(cfg).expect("no cache attached yet"),
            None => volume,
        }
    }

    /// A server over a fresh volume.
    pub fn server(self, cfg: ServerConfig) -> Server {
        Server::new(self.volume(), cfg)
    }
}

/// Put `server` behind a loopback listener; returns it with the address
/// to `connect_tcp` to (same-host clients end on its Unix-domain lane).
pub fn serve(server: Server) -> (NetServer, String) {
    let net =
        NetServer::bind_tcp("127.0.0.1:0", server, NetConfig::default()).expect("loopback bind");
    let addr = net.local_addr().expect("a TCP listener has an address");
    (net, addr.to_string())
}

/// Wrap `devices[slot]` in a fault injector running `plan`, disarmed:
/// the lane arms it once its file is written.
pub fn inject(devices: &mut [DeviceRef], slot: usize, plan: FaultPlan) -> Arc<FaultDevice> {
    let (fault, wrapped) = FaultDevice::wrap(devices[slot].clone(), plan);
    devices[slot] = wrapped;
    fault.set_armed(false);
    fault
}

/// `pairs` striped primaries, each with a shadow: the layout of every
/// lane that fails a device under load.
pub fn mirrored(pairs: usize) -> LayoutSpec {
    LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: pairs,
        unit: 1,
    }))
}

/// The byte every block of record `idx` is filled with.
pub fn rec_byte(idx: u64) -> u8 {
    (idx % 251) as u8
}

/// Make `pf` exactly `records` one-block records long, record `i`
/// filled with [`rec_byte`]`(i)`, through the span path (a handful of
/// device requests) so timed lanes start from cheaply produced state.
pub fn fill(pf: &ParallelFile, records: u64) {
    let bs = pf.raw().block_size();
    let mut data = vec![0u8; records as usize * bs];
    for (i, block) in data.chunks_mut(bs).enumerate() {
        block.fill(rec_byte(i as u64));
    }
    pf.raw().write_span(0, &data).expect("fill");
    pf.raw().set_len_records(records).expect("publish length");
}

/// Seconds `f` takes.
pub fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Run `client(i)` for `i` in `0..n`, a thread each; seconds from before
/// the first spawn to after the last join. A client's panic is the
/// caller's.
pub fn clients(n: usize, client: impl Fn(usize) + Sync) -> f64 {
    timed(|| {
        std::thread::scope(|s| {
            for i in 0..n {
                let client = &client;
                s.spawn(move || client(i));
            }
        })
    })
}

/// The records a self-scheduled drain delivered, across its clients.
#[derive(Default)]
pub struct Ledger(Mutex<HashSet<u64>>);

impl Ledger {
    /// Enter one client's deliveries; panics on a record seen before.
    pub fn deliver(&self, records: Vec<u64>) {
        let mut seen = self.0.lock().expect("a client panicked");
        for idx in records {
            assert!(seen.insert(idx), "record {idx} delivered twice");
        }
    }

    /// Panics unless `records` distinct records were delivered.
    pub fn complete(self, records: u64) {
        let seen = self.0.into_inner().expect("a client panicked");
        assert_eq!(seen.len() as u64, records, "every record exactly once");
    }
}

/// Format a latency in nanoseconds for a table cell.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// `EXP_SMOKE=1` asks for a CI-sized run: the same lanes and
/// assertions over smaller populations.
pub fn smoke() -> bool {
    std::env::var("EXP_SMOKE").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_core::Organization;

    #[test]
    fn a_rig_builds_every_tier_and_fill_reads_back() {
        let server = Rig::new(2)
            .blocks(64)
            .cache(VolumeCacheConfig::write_back(4))
            .server(ServerConfig::default());
        assert!(server.volume().cache().is_some());
        let pf =
            ParallelFile::create(server.volume(), "f", Organization::GlobalDirect, BS, 1).unwrap();
        fill(&pf, 9);
        let mut buf = vec![0u8; BS];
        pf.raw().read_record(8, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == rec_byte(8)));
        assert_eq!(pf.len_records(), 9);
        assert!(server.stats().executor.serviced > 0);
    }

    #[test]
    fn latencies_format_by_magnitude() {
        assert_eq!(fmt_ns(640.0), "640ns");
        assert_eq!(fmt_ns(4_863.0), "4.9us");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
    }
}
