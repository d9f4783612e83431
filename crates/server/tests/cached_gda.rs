//! GDA semantics on a volume with the shared cache tier enabled: the
//! byte-range locks must keep their exact uncached meaning. Locked
//! read-modify-writes never lose increments across concurrent sessions,
//! and a record write is durable on the raw media the moment its range
//! lock releases — the write-back tier is flushed for the locked span
//! before the guard drops, never after.

use pario_core::{Organization, ParallelFile};
use pario_fs::{resolve, RawFile, Volume, VolumeCacheConfig, VolumeConfig};
use pario_server::{Server, ServerConfig, ServerError};

const REC: usize = 64;
const BS: usize = 256;

fn cached_volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap()
    .enable_cache(VolumeCacheConfig::write_back(32))
    .unwrap()
}

/// Record `r`'s bytes assembled straight from the raw devices, bypassing
/// the cache tier entirely.
fn media_record(v: &Volume, f: &RawFile, r: u64) -> Vec<u8> {
    let layout = f.layout();
    let meta = f.meta_snapshot();
    let mut out = vec![0u8; REC];
    let mut byte = r * REC as u64;
    let mut done = 0usize;
    while done < REC {
        let l = byte / BS as u64;
        let within = (byte % BS as u64) as usize;
        let take = (BS - within).min(REC - done);
        let p = layout.map(l);
        let dev = meta.device_map[p.device];
        let abs = resolve(&meta.extents[p.device], p.block);
        let mut block = vec![0u8; BS];
        v.device(dev).read_block(abs, &mut block).unwrap();
        out[done..done + take].copy_from_slice(&block[within..within + take]);
        byte += take as u64;
        done += take;
    }
    out
}

#[test]
fn cached_gda_updates_never_lose_increments() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: u64 = 50;
    let volume = cached_volume();
    let pf = ParallelFile::create(&volume, "shared", Organization::GlobalDirect, REC, 4).unwrap();
    pf.direct_handle()
        .unwrap()
        .write_record(0, &[0; REC])
        .unwrap();
    let server = Server::new(volume, ServerConfig::default());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let sess = server.connect();
            s.spawn(move || {
                let c = sess.open_direct("shared").unwrap();
                for _ in 0..PER_CLIENT {
                    c.update(0, |bytes| {
                        let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                        bytes[..8].copy_from_slice(&(v + 1).to_le_bytes());
                    })
                    .unwrap();
                }
            });
        }
    });
    let sess = server.connect();
    let c = sess.open_direct("shared").unwrap();
    let mut buf = [0u8; REC];
    c.read_record(0, &mut buf).unwrap();
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    assert_eq!(v, CLIENTS as u64 * PER_CLIENT, "lost increments");

    // The cache tier carried the traffic.
    let cache = server
        .volume()
        .cache_stats()
        .expect("cached volume reports cache stats");
    assert!(cache.base.hits > 0, "hot record must hit: {cache:?}");
}

#[test]
fn range_locked_write_is_durable_on_media_at_unlock() {
    let volume = cached_volume();
    let pf = ParallelFile::create(&volume, "d", Organization::GlobalDirect, REC, 4).unwrap();
    let raw = pf.raw().clone();
    let server = Server::new(volume, ServerConfig::default());
    let sess = server.connect();
    let c = sess.open_direct("d").unwrap();

    // No flush anywhere: write_record's own range-lock release must
    // have pushed the span out of the write-back tier already.
    for r in 0..16u64 {
        let data: Vec<u8> = (0..REC).map(|i| (r as usize * 31 + i) as u8).collect();
        c.write_record(r, &data).unwrap();
        assert_eq!(
            media_record(server.volume(), &raw, r),
            data,
            "record {r} not on media after its range lock released"
        );
    }

    let stats = server.volume().cache_stats().expect("cache stats");
    assert!(
        stats.base.writebacks > 0,
        "write-back tier flushed at unlock: {stats:?}"
    );
}

/// A range lock belongs to the file it was taken on. Another file's
/// client used to write under it — without that file's range lock —
/// and, unlocking it, flushed its own file's span and released the
/// locked file's unflushed.
#[test]
fn a_range_lock_serves_only_the_file_it_was_taken_on() {
    let volume = cached_volume();
    let a = ParallelFile::create(&volume, "a", Organization::GlobalDirect, REC, 4).unwrap();
    ParallelFile::create(&volume, "b", Organization::GlobalDirect, REC, 4).unwrap();
    let raw_a = a.raw().clone();
    let server = Server::new(volume, ServerConfig::default());
    let sess = server.connect();
    let (ca, cb) = (
        sess.open_direct("a").unwrap(),
        sess.open_direct("b").unwrap(),
    );
    let lock = ca.lock_range(0, 4).unwrap();

    // b's record 1 has the byte offsets the lock covers, on another file.
    match cb.write_record_locked(&lock, 1, &[5; REC]) {
        Err(ServerError::RangeNotLocked { lo, hi }) => assert_eq!((lo, hi), (64, 128)),
        other => panic!("expected RangeNotLocked, got {other:?}"),
    }
    assert_eq!(cb.len_records(), 0, "nothing was written to b");

    ca.write_record_locked(&lock, 2, &[7; REC]).unwrap();
    cb.unlock(lock).unwrap();
    assert_eq!(
        media_record(server.volume(), &raw_a, 2),
        vec![7; REC],
        "the locked file's span is on media once the lock releases"
    );
}
