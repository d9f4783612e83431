//! The system under test, assembled from the crates' public API: probed
//! devices, a volume, its files, and (for the GDA workloads) the server
//! and socket front ends — plus `RecordPort`, one record-op entry point
//! per layer boundary, which both the generator and the peeled replays
//! call.

use std::sync::Arc;
use std::time::Duration;

use pario_buffer::VolumeCache;
use pario_core::{DirectHandle, Organization, ParallelFile, SelfSchedReader, SelfSchedWriter};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::{resolve, RawFile, Volume, VolumeCacheConfig};
use pario_net::{NetClient, NetConfig, NetServer, RemoteDirect};
use pario_server::{DirectClient, Server, ServerConfig};
use pario_workloads::record_payload;

use crate::probe_disk::{LeafSpan, ProbeCounts, ProbeDisk, TraceCtl};

/// Block size of every device, and record size of every file.
pub const BS: usize = 4096;
/// Devices per volume.
pub const DEVICES: usize = 4;
/// Blocks per device (64 MiB each; pages are touched only where used).
pub const DEVICE_BLOCKS: u64 = 16384;
/// Records in the GDA and SS files and 4 KiB blocks in the span file:
/// 32 MiB of user data, a quarter of the volume.
pub const RECORDS: u64 = 8192;
/// Frames in the `cache-skew` volume cache: a quarter of the file, so
/// the Zipf head fits and the tail does not.
pub const CACHE_FRAMES: usize = 2048;
/// Device service delay on `cache-skew`, so a miss costs a sleep.
pub const SKEW_DELAY: Duration = Duration::from_micros(200);

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Expected record contents without a 32 MiB table.
///
/// `record_payload(tag, size)[i]` is `(tag * K + i) % 251`: every
/// payload is a window into one period-251 ramp, so `of(tag)` is a
/// slice of `record_payload(0, size + 251)` at an offset that depends
/// only on the tag (pinned against `record_payload` by a unit test).
pub struct Payload {
    ramp: Vec<u8>,
    size: usize,
}

impl Payload {
    /// Payloads of `size` bytes.
    pub fn new(size: usize) -> Payload {
        Payload {
            ramp: record_payload(0, size + 251),
            size,
        }
    }

    /// The bytes `record_payload(tag, size)` would return.
    pub fn of(&self, tag: u64) -> &[u8] {
        let off = (tag.wrapping_mul(2654435761) % 251) as usize;
        &self.ramp[off..off + self.size]
    }

    /// Fill `out` (a whole number of records) with the payloads of
    /// records `first..`.
    pub fn fill(&self, first: u64, out: &mut [u8]) {
        for (i, chunk) in out.chunks_mut(self.size).enumerate() {
            chunk.copy_from_slice(self.of(first + i as u64));
        }
    }

    /// Number of records in `got` (starting at record `first`) whose
    /// bytes differ from their payload.
    pub fn mismatches(&self, first: u64, got: &[u8]) -> u64 {
        got.chunks(self.size)
            .enumerate()
            .filter(|(i, chunk)| *chunk != self.of(first + *i as u64))
            .count() as u64
    }
}

/// The four probed in-memory devices of one rig.
pub struct Devices {
    /// The innermost devices (kept for the corruption test).
    pub mems: Vec<Arc<MemDisk>>,
    /// The probes handed to the volume.
    pub probes: Vec<Arc<ProbeDisk>>,
}

impl Devices {
    /// Fresh zero-filled devices, each adding `delay` per transfer.
    pub fn new(ctl: &Arc<TraceCtl>, delay: Duration) -> Devices {
        let mems: Vec<Arc<MemDisk>> = (0..DEVICES)
            .map(|i| {
                Arc::new(MemDisk::named(&format!("mem{i}"), DEVICE_BLOCKS, BS).with_delay(delay))
            })
            .collect();
        let probes = mems
            .iter()
            .enumerate()
            .map(|(i, m)| ProbeDisk::wrap(m.clone() as DeviceRef, i, ctl.clone()))
            .collect();
        Devices { mems, probes }
    }

    /// The probes as the `DeviceRef`s a volume takes.
    pub fn refs(&self) -> Vec<DeviceRef> {
        self.probes.iter().map(|p| p.clone() as DeviceRef).collect()
    }

    /// Probe counters summed over the devices.
    pub fn counts(&self) -> ProbeCounts {
        self.probes
            .iter()
            .fold(ProbeCounts::zero(), |acc, p| acc.plus(&p.counts()))
    }

    /// Drain the recorded leaf spans of every device, by start time.
    pub fn take_spans(&self) -> Vec<LeafSpan> {
        let mut all: Vec<LeafSpan> = self.probes.iter().flat_map(|p| p.take_spans()).collect();
        all.sort_by_key(|s| s.start_ns);
        all
    }

    /// A fresh volume over the devices, with device 0's meta region
    /// declared to its probe.
    pub fn new_volume(&self) -> Res<Volume> {
        let vol = Volume::new(self.refs()).map_err(err)?;
        self.probes[0].set_meta_region(vol.meta_region_blocks());
        Ok(vol)
    }
}

/// Where each 4 KiB record of a file lives: `(device, absolute block)`,
/// the address the "equivalent block call" below `RawFile` uses.
pub fn block_map(raw: &RawFile, records: u64) -> Arc<Vec<(usize, u64)>> {
    assert_eq!(raw.record_size(), BS, "records are whole blocks");
    let meta = raw.meta_snapshot();
    let layout = raw.layout();
    Arc::new(
        (0..records)
            .map(|l| {
                let p = layout.map(l);
                (
                    meta.device_map[p.device],
                    resolve(&meta.extents[p.device], p.block),
                )
            })
            .collect(),
    )
}

/// The layer boundaries a record op can enter at, outermost first.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// `NetClient` / `RemoteDirect` over TCP.
    Net,
    /// `Session` / `DirectClient`.
    Session,
    /// `ParallelFile` handle: `DirectHandle`, or the SS reader/writer.
    Handle,
    /// `RawFile::read_record` / `write_record`.
    Raw,
    /// `VolumeCache::read_block` / `write_block` (cached volumes only).
    Cache,
    /// `Volume::io_device(i)`: the executor hand-off.
    IoDev,
    /// `Volume::device(i)`: the probed device itself.
    Dev,
}

/// A record-op entry point at one boundary. A run holds a handful of
/// these, so the size of the largest variant is of no account.
#[allow(clippy::large_enum_variant)]
pub enum RecordPort {
    /// Field order matters: the handle closes over the connection the
    /// client owns, so it must drop first.
    Net(RemoteDirect, NetClient),
    Session(DirectClient),
    Direct(DirectHandle),
    /// SS handles: `write` is `write_next`, `read` is `read_next`; the
    /// record index is what the caller expects the cursor to hand out.
    Ss(SelfSchedWriter, SelfSchedReader),
    Raw(RawFile),
    Cache(Arc<VolumeCache>, Arc<Vec<(usize, u64)>>),
    Blocks(Vec<DeviceRef>, Arc<Vec<(usize, u64)>>),
}

impl RecordPort {
    /// Read record `r` into `out`.
    pub fn read(&self, r: u64, out: &mut [u8]) -> Res<()> {
        match self {
            RecordPort::Net(h, _) => h.read_record(r, out).map_err(err),
            RecordPort::Session(c) => c.read_record(r, out).map_err(err),
            RecordPort::Direct(h) => h.read_record(r, out).map_err(err),
            RecordPort::Ss(_, rd) => match rd.read_next(out).map_err(err)? {
                Some(got) if got == r => Ok(()),
                got => Err(format!("SS cursor handed out {got:?}, expected {r}")),
            },
            RecordPort::Raw(f) => f.read_record(r, out).map_err(err),
            RecordPort::Cache(c, map) => {
                let (d, b) = map[r as usize];
                c.read_block(d, b, out).map_err(err)
            }
            RecordPort::Blocks(devs, map) => {
                let (d, b) = map[r as usize];
                devs[d].read_block(b, out).map_err(err)
            }
        }
    }

    /// Write `data` as record `r`.
    pub fn write(&self, r: u64, data: &[u8]) -> Res<()> {
        match self {
            RecordPort::Net(h, _) => h.write_record(r, data).map_err(err),
            RecordPort::Session(c) => c.write_record(r, data).map_err(err),
            RecordPort::Direct(h) => h.write_record(r, data).map_err(err),
            RecordPort::Ss(w, _) => match w.write_next(data).map_err(err)? {
                got if got == r => Ok(()),
                got => Err(format!("SS cursor handed out {got}, expected {r}")),
            },
            RecordPort::Raw(f) => f.write_record(r, data).map_err(err),
            RecordPort::Cache(c, map) => {
                let (d, b) = map[r as usize];
                c.write_block(d, b, data).map_err(err)
            }
            RecordPort::Blocks(devs, map) => {
                let (d, b) = map[r as usize];
                devs[d].write_block(b, data).map_err(err)
            }
        }
    }
}

/// What a GDA rig adds to the bare volume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GdaShape {
    /// Clients come in over `NetServer` (TCP loopback).
    pub socket: bool,
    /// Write-back `VolumeCache` of [`CACHE_FRAMES`] frames over devices
    /// that sleep [`SKEW_DELAY`] per transfer.
    pub cache: bool,
}

/// The SS rig: an empty volume; `ss-queue` creates and removes its own
/// files on it.
pub struct SsRig {
    pub devs: Devices,
    pub vol: Volume,
}

impl SsRig {
    /// Fresh devices and an empty volume.
    pub fn new(ctl: &Arc<TraceCtl>) -> Res<SsRig> {
        let devs = Devices::new(ctl, Duration::ZERO);
        let vol = devs.new_volume()?;
        Ok(SsRig { devs, vol })
    }

    /// Create a growable SS file of 4 KiB records named `name`.
    pub fn create(&self, name: &str) -> Res<ParallelFile> {
        ParallelFile::create(&self.vol, name, Organization::SelfScheduledSeq, BS, 1).map_err(err)
    }
}

/// Name of the file every rig creates.
pub const FILE: &str = "bench";

/// A volume with one file on it and whatever fronts it.
pub struct Rig {
    pub devs: Devices,
    pub vol: Volume,
    /// The file, opened at the `ParallelFile` level.
    pub pfile: ParallelFile,
    /// `(device, block)` of each of the file's [`RECORDS`] blocks.
    pub map: Arc<Vec<(usize, u64)>>,
    pub server: Option<Server>,
    pub net: Option<NetServer>,
}

impl Rig {
    /// The GDA rig: 4-way striped (unit 1) GDA file of [`RECORDS`]
    /// 4 KiB records, prefilled with each record's payload, behind
    /// `Server` with `ServerConfig::default()`.
    pub fn gda(ctl: &Arc<TraceCtl>, shape: GdaShape, payload: &Payload) -> Res<Rig> {
        let delay = if shape.cache {
            SKEW_DELAY
        } else {
            Duration::ZERO
        };
        let devs = Devices::new(ctl, delay);
        let vol = devs.new_volume()?;
        let pfile =
            ParallelFile::create_sized(&vol, FILE, Organization::GlobalDirect, BS, 1, RECORDS)
                .map_err(err)?;
        prefill(pfile.raw(), payload)?;
        if shape.cache {
            vol.enable_cache(VolumeCacheConfig::write_back(CACHE_FRAMES))
                .map_err(err)?;
        }
        let map = block_map(pfile.raw(), RECORDS);
        let server = Server::new(vol.clone(), ServerConfig::default());
        let net = if shape.socket {
            Some(
                NetServer::bind_tcp("127.0.0.1:0", server.clone(), NetConfig::default())
                    .map_err(err)?,
            )
        } else {
            None
        };
        Ok(Rig {
            devs,
            vol,
            pfile,
            map,
            server: Some(server),
            net,
        })
    }

    /// The span rig: a 32 MiB `Sequential` file on rotated parity over
    /// 3 data devices, prefilled through the parity write path (which
    /// is why `setup_s` moves with it).
    pub fn span_parity(ctl: &Arc<TraceCtl>, payload: &Payload) -> Res<Rig> {
        let devs = Devices::new(ctl, Duration::ZERO);
        let vol = devs.new_volume()?;
        let pfile = ParallelFile::create_with_layout(
            &vol,
            FILE,
            Organization::Sequential,
            BS,
            1,
            pario_layout::LayoutSpec::Parity {
                data_devices: DEVICES - 1,
                rotated: true,
            },
            None,
        )
        .map_err(err)?;
        prefill(pfile.raw(), payload)?;
        let map = block_map(pfile.raw(), RECORDS);
        Ok(Rig {
            devs,
            vol,
            pfile,
            map,
            server: None,
            net: None,
        })
    }

    /// A record-op entry point into the rig's file at `b`. Each call
    /// opens its own session / connection / handle.
    pub fn port(&self, b: Boundary) -> Res<RecordPort> {
        Ok(match b {
            Boundary::Net => {
                let addr = self
                    .net
                    .as_ref()
                    .and_then(|n| n.local_addr())
                    .ok_or("rig has no listener")?;
                let client = NetClient::connect_tcp(&addr.to_string()).map_err(err)?;
                let h = client.open_direct(FILE).map_err(err)?;
                RecordPort::Net(h, client)
            }
            Boundary::Session => {
                let server = self.server.as_ref().ok_or("rig has no server")?;
                RecordPort::Session(server.connect().open_direct(FILE).map_err(err)?)
            }
            Boundary::Handle => RecordPort::Direct(self.pfile.direct_handle().map_err(err)?),
            Boundary::Raw => RecordPort::Raw(self.pfile.raw().clone()),
            Boundary::Cache => RecordPort::Cache(
                self.vol.cache().ok_or("rig has no cache")?.clone(),
                self.map.clone(),
            ),
            Boundary::IoDev => RecordPort::Blocks(
                (0..DEVICES).map(|i| self.vol.io_device(i)).collect(),
                self.map.clone(),
            ),
            Boundary::Dev => RecordPort::Blocks(
                (0..DEVICES).map(|i| self.vol.device(i)).collect(),
                self.map.clone(),
            ),
        })
    }

    /// Tear the rig down to its devices: stop the listener, drop the
    /// server, file and volume (the volume's drop checkpoints), and
    /// hand back the devices for a remount.
    pub fn into_devices(self) -> Devices {
        let Rig {
            devs,
            vol,
            pfile,
            server,
            net,
            ..
        } = self;
        drop(net);
        drop(server);
        drop(pfile);
        drop(vol);
        devs
    }
}

/// Write every record's payload through `write_span`, 1 MiB at a time.
fn prefill(raw: &RawFile, payload: &Payload) -> Res<()> {
    const CHUNK: u64 = 256;
    let mut buf = vec![0u8; CHUNK as usize * BS];
    for first in (0..RECORDS).step_by(CHUNK as usize) {
        payload.fill(first, &mut buf);
        raw.write_span(first * BS as u64, &buf).map_err(err)?;
    }
    raw.set_len_records(RECORDS).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_window_equals_record_payload() {
        let p = Payload::new(BS);
        for tag in [0, 1, 2, 250, 251, 8191, 1 << 20, u64::MAX / 3] {
            assert_eq!(p.of(tag), &record_payload(tag, BS)[..], "tag {tag}");
        }
        let mut two = vec![0u8; 2 * BS];
        p.fill(7, &mut two);
        assert_eq!(p.mismatches(7, &two), 0);
        two[BS + 5] ^= 1;
        assert_eq!(p.mismatches(7, &two), 1);
    }

    /// Every boundary of the in-process GDA rig reads the prefilled
    /// payload of the record asked for, so the block map addresses the
    /// same bytes the upper layers do.
    #[test]
    fn every_boundary_reads_the_same_record() {
        let ctl = TraceCtl::new();
        let payload = Payload::new(BS);
        let rig = Rig::gda(
            &ctl,
            GdaShape {
                socket: true,
                cache: false,
            },
            &payload,
        )
        .unwrap();
        let mut buf = vec![0u8; BS];
        for b in [
            Boundary::Net,
            Boundary::Session,
            Boundary::Handle,
            Boundary::Raw,
            Boundary::IoDev,
            Boundary::Dev,
        ] {
            let port = rig.port(b).unwrap();
            for r in [0, 1, 5, 4097, RECORDS - 1] {
                port.read(r, &mut buf).unwrap();
                assert_eq!(buf, payload.of(r), "{b:?} record {r}");
                port.write(r, payload.of(r)).unwrap();
            }
        }
        assert!(rig.port(Boundary::Cache).is_err());
    }
}
