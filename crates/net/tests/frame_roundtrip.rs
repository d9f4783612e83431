//! Property tests for the wire codec: frames round-trip through
//! arbitrary split/partial reads, every request variant survives
//! encode→decode exactly, the full `ServerError` taxonomy maps
//! losslessly both ways, and so does a `ServerStats` snapshot.

use std::io::Read;

use bytes::Bytes;
use proptest::prelude::*;

use pario_core::{CoreError, Organization};
use pario_disk::DiskError;
use pario_fs::{FsError, HealthState};
use pario_net::frame::{encode_frame, read_frame, RawFrame};
use pario_net::proto::{
    decode_reply_error, decode_server_error, decode_server_stats, encode_reply_error,
    encode_server_error, encode_server_stats, Request,
};
use pario_net::wire::WireWriter;
use pario_net::NetError;
use pario_server::{LatencyBucket, ServerError, ServerStats, LATENCY_BUCKETS};

/// A reader that hands out at most `chunk` bytes per call — the
/// severest form of short reads a socket can produce.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any frame survives any split of the byte stream.
    #[test]
    fn frames_survive_arbitrary_split_reads(
        request_id in any::<u64>(),
        code in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..13,
    ) {
        let mut wire = Vec::new();
        encode_frame(&mut wire, request_id, code, &body);
        let mut r = Trickle { data: &wire, pos: 0, chunk };
        let f = read_frame(&mut r, 1 << 20).unwrap().expect("one frame");
        prop_assert_eq!(f, RawFrame { request_id, code, body });
        // And the stream then ends cleanly at the frame boundary.
        prop_assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), None);
    }

    /// Several frames back to back parse one by one, whatever the
    /// chunking.
    #[test]
    fn back_to_back_frames_parse_in_order(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..8),
        chunk in 1usize..5,
    ) {
        let mut wire = Vec::new();
        for (i, b) in bodies.iter().enumerate() {
            encode_frame(&mut wire, i as u64, 1, b);
        }
        let mut r = Trickle { data: &wire, pos: 0, chunk };
        for (i, b) in bodies.iter().enumerate() {
            let f = read_frame(&mut r, 1 << 20).unwrap().expect("frame");
            prop_assert_eq!(f.request_id, i as u64);
            prop_assert_eq!(&f.body, b);
        }
        prop_assert_eq!(read_frame(&mut r, 1 << 20).unwrap(), None);
    }

    /// Data-carrying requests round-trip arbitrary payloads byte-exact.
    #[test]
    fn write_requests_round_trip_arbitrary_payloads(
        handle in any::<u64>(),
        record in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let reqs = [
            Request::WriteNext { handle, data: Bytes::copy_from_slice(&data) },
            Request::WriteNextBlock { handle, data: Bytes::copy_from_slice(&data) },
            Request::DirWrite { handle, record, data: Bytes::copy_from_slice(&data) },
            Request::DirWriteLocked { handle, lock: !record, record, data: Bytes::copy_from_slice(&data) },
        ];
        for req in reqs {
            let mut w = WireWriter::new();
            req.encode_payload(&mut w);
            let back = Request::decode(req.opcode(), w.bytes()).unwrap();
            prop_assert_eq!(back, req);
        }
    }

    /// A stats snapshot survives the wire field for field and bucket for
    /// bucket, from an empty histogram to one with every bucket filled.
    #[test]
    fn server_stats_round_trip_losslessly(
        c in proptest::collection::vec(any::<u64>(), 6),
        buckets in prop_oneof![Just(0usize), Just(LATENCY_BUCKETS), 0..LATENCY_BUCKETS]
            .prop_flat_map(|n| proptest::collection::vec((1..=1u64 << 40, 1..=u64::MAX), n)),
    ) {
        // Each bucket's bound is the last one's plus a gap: ascending,
        // as a snapshot's are.
        let mut le_nanos = 0;
        let latency = buckets
            .into_iter()
            .map(|(gap, count)| {
                le_nanos += gap;
                LatencyBucket { le_nanos, count }
            })
            .collect();
        let s = ServerStats {
            sessions: c[0],
            in_flight: c[1] as usize,
            queue_depth_high_water: c[2] as usize,
            wait_high_water: c[3] as usize,
            rejected: c[4],
            total_admitted: c[5],
            latency,
        };
        let mut w = WireWriter::new();
        encode_server_stats(&mut w, &s);
        prop_assert_eq!(decode_server_stats(w.bytes()).unwrap(), s);
    }

    /// A truncated payload never decodes and never panics, for every
    /// opcode the protocol defines.
    #[test]
    fn truncated_payloads_fail_closed_for_every_opcode(cut in 0usize..16) {
        for &op in Request::ALL_OPCODES {
            // A payload of `cut` arbitrary bytes: far too short for most
            // requests, trailing garbage for no-payload ones.
            let junk = vec![0xEEu8; cut];
            if let Ok(req) = Request::decode(op, &junk) {
                // If it decodes, re-encoding must reproduce the
                // bytes — decode accepts nothing an encoder would
                // not produce.
                let mut w = WireWriter::new();
                req.encode_payload(&mut w);
                prop_assert_eq!(w.bytes(), &junk[..]);
            }
        }
    }
}

/// The bytes of every request that protocol version 5 retired stay
/// reserved: whatever the payload, they decode as unknown.
#[test]
fn retired_opcodes_decode_as_unknown() {
    let retired = [0x10u8, 0x11, 0x12, 0x13, 0x14, 0x15]
        .into_iter()
        .chain(0x20..=0x23)
        .chain(0x28..=0x2C)
        .chain(0x30..=0x34)
        .chain(0x38..=0x3B);
    for op in retired {
        assert!(!Request::ALL_OPCODES.contains(&op), "{op:#04x} reassigned");
        for payload in [&[][..], &[0; 8], &[0; 24]] {
            match Request::decode(op, payload) {
                Err(e) => assert!(e.to_string().contains("unknown opcode"), "{e}"),
                Ok(req) => panic!("retired {op:#04x} decoded as {req:?}"),
            }
        }
    }
    assert!(Request::ALL_OPCODES.len() <= 17);
}

/// Every `ServerError` variant — including the nested Core/Fs/Disk
/// chains — crosses the wire without losing a field.
#[test]
fn server_error_taxonomy_is_lossless() {
    let samples = vec![
        ServerError::Busy,
        ServerError::Exclusive {
            name: "a file".into(),
            by: 7,
        },
        ServerError::Claimed {
            name: "part".into(),
            index: 3,
            by: 9,
        },
        ServerError::Core(CoreError::OutsideView {
            record: 55,
            start: 56,
            end: 108,
            piece: 52,
            stride: 52,
        }),
        ServerError::RangeNotLocked { lo: 20, hi: 24 },
        ServerError::Degraded {
            device: 2,
            state: HealthState::Rebuilding,
        },
        ServerError::Core(CoreError::Fs(FsError::NotFound("x".into()))),
        ServerError::Core(CoreError::Fs(FsError::DirectoryFull {
            needed: 30_194,
            limit: 24_576,
        })),
        ServerError::Core(CoreError::Fs(FsError::Disk(DiskError::Transient {
            device: "mem-1".into(),
        }))),
        ServerError::Core(CoreError::WrongOrganization {
            expected: "SS",
            actual: Organization::PartitionedSeq { partitions: 8 },
        }),
        ServerError::Core(CoreError::BadProcess { process: 9, of: 4 }),
    ];
    for e in samples {
        let mut w = WireWriter::new();
        encode_server_error(&mut w, &e);
        let back = decode_server_error(&mut pario_net::wire::WireReader::new(w.bytes())).unwrap();
        assert_eq!(back, e, "taxonomy lost a field crossing the wire");
    }
}

/// The shutdown notice is its own wire class: it round-trips as the
/// typed [`NetError::Shutdown`] variant clients can match on, while
/// endpoint-local errors still degrade to protocol-class strings.
#[test]
fn shutdown_error_class_round_trips() {
    let mut w = WireWriter::new();
    encode_reply_error(&mut w, &NetError::Shutdown);
    assert_eq!(decode_reply_error(w.bytes()).unwrap(), NetError::Shutdown);

    let mut w = WireWriter::new();
    encode_reply_error(&mut w, &NetError::Io("no route".into()));
    match decode_reply_error(w.bytes()).unwrap() {
        NetError::Protocol(msg) => assert!(msg.contains("no route")),
        other => panic!("expected protocol-class fallback, got {other:?}"),
    }
}
