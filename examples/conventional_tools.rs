//! Conventional sequential software over a parallel file — the paper's
//! defining requirement for *standard* parallel files: "they must appear
//! conventional to the system … so that they can be used by standard
//! sequential software such as editors, graphics utilities, print
//! spoolers, etc."
//!
//! Four threads write a type-IS file in parallel; then plain
//! `std::io::Read`-based code (a checksummer and a pattern scanner that
//! know nothing about parallel files) consumes it through the byte-stream
//! global view.
//!
//! ```sh
//! cargo run --example conventional_tools
//! ```

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};

use pario::core::{Organization, ParallelFile};
use pario::fs::{ByteReader, ByteWriter, Volume, VolumeConfig};

const RECORD: usize = 64;

/// A stand-in for any off-the-shelf stream consumer.
fn fletcher32(mut r: impl Read) -> u32 {
    let (mut a, mut b) = (0u32, 0u32);
    let mut buf = [0u8; 1024];
    loop {
        let n = r.read(&mut buf).expect("read");
        if n == 0 {
            break;
        }
        for &x in &buf[..n] {
            a = (a + u32::from(x)) % 65535;
            b = (b + a) % 65535;
        }
    }
    (b << 16) | a
}

fn main() {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: 512,
    })
    .expect("volume");
    let pf = ParallelFile::create(
        &volume,
        "report.txt",
        Organization::InterleavedSeq { processes: 4 },
        RECORD,
        8,
    )
    .expect("create");

    // Parallel producers: each worker writes its strided lines.
    std::thread::scope(|s| {
        for p in 0..4u32 {
            let mut h = pf.interleaved_handle(p).expect("handle");
            s.spawn(move || {
                for k in 0..8u64 {
                    for c in 0..8u64 {
                        let line_no = (u64::from(p) + k * 4) * 8 + c;
                        let text = format!("line {line_no:04} from worker {p}");
                        let mut rec = vec![b' '; RECORD];
                        rec[..text.len()].copy_from_slice(text.as_bytes());
                        rec[RECORD - 1] = b'\n';
                        h.write_next(&rec).expect("write");
                    }
                }
            });
        }
    });
    println!(
        "4 workers wrote {} records (IS organization)",
        pf.len_records()
    );

    // Conventional tool #1: checksum the whole "file" via std::io.
    let sum = fletcher32(ByteReader::new(pf.raw().clone()));
    println!("fletcher32 over the byte stream: {sum:#010x}");

    // Conventional tool #2: a line scanner using BufRead, plus a seek.
    let mut reader = BufReader::new(ByteReader::new(pf.raw().clone()));
    let mut first = String::new();
    reader.read_line(&mut first).expect("line");
    println!("first line: {}", first.trim_end());
    let mut br = ByteReader::new(pf.raw().clone());
    br.seek(SeekFrom::End(-(RECORD as i64))).expect("seek");
    let mut last = String::new();
    br.read_to_string(&mut last).expect("tail");
    println!("last line:  {}", last.trim_end());
    assert!(first.contains("line 0000"));
    assert!(last.contains("from worker 3"));

    // Conventional tool #3: append through std::io::Write.
    let mut w = ByteWriter::append(pf.raw().clone());
    let mut tail = "appended by a sequential tool".to_string();
    tail.push_str(&" ".repeat(RECORD - tail.len() - 1));
    tail.push('\n');
    std::io::Write::write_all(&mut w, tail.as_bytes()).expect("append");
    w.finish().expect("finish");
    assert_eq!(pf.len_records(), 257);
    println!("sequential append landed as record 257 — one file, two worlds");
    println!("ok");
}
