//! Implementation of the `pario` command-line volume utility.
//!
//! A volume lives in a directory of device images (`dev0.img`,
//! `dev1.img`, …) plus a small `volume.meta` text file recording the
//! block size. All subcommand logic is here as plain functions over a
//! `Write` sink so the test suite drives it without spawning processes;
//! `src/bin/pario.rs` is a thin argv adapter.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pario_core::{convert as convert_file, Organization, ParallelFile};
use pario_disk::{DeviceRef, FileDisk};
use pario_fs::Volume;
use pario_layout::LayoutSpec;
use pario_reliability::{rebuild_device, scrub, RebuildThrottle};
use pario_workloads::record_payload;

/// Errors from CLI operations, already formatted for the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($t:ty),*) => {$(
        impl From<$t> for CliError {
            fn from(e: $t) -> CliError {
                CliError(e.to_string())
            }
        }
    )*};
}

from_error!(
    pario_fs::FsError,
    pario_core::CoreError,
    pario_disk::DiskError,
    std::io::Error
);

/// CLI result alias.
pub type CliResult = Result<String, CliError>;

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("volume.meta")
}

fn device_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("dev{i}.img"))
}

/// Create a new volume directory with `devices` image files.
pub fn mkvol(dir: &Path, devices: usize, blocks: u64, block_size: usize) -> CliResult {
    if devices == 0 || blocks == 0 || block_size == 0 {
        return Err(CliError("devices, blocks and bs must be positive".into()));
    }
    std::fs::create_dir_all(dir).map_err(|e| CliError(e.to_string()))?;
    if meta_path(dir).exists() {
        return Err(CliError(format!(
            "{} already holds a pario volume",
            dir.display()
        )));
    }
    let devs: Vec<DeviceRef> = (0..devices)
        .map(|i| {
            FileDisk::create(&device_path(dir, i), blocks, block_size)
                .map(|d| Arc::new(d) as DeviceRef)
        })
        .collect::<Result<_, _>>()?;
    Volume::new(devs)?;
    std::fs::write(
        meta_path(dir),
        format!("block_size={block_size}\ndevices={devices}\n"),
    )
    .map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "created volume: {devices} devices x {blocks} blocks x {block_size} B \
         ({:.1} MiB raw) in {}",
        (devices as u64 * blocks * block_size as u64) as f64 / (1024.0 * 1024.0),
        dir.display()
    ))
}

/// Open an existing volume directory.
pub fn open_volume(dir: &Path) -> Result<Volume, CliError> {
    let meta = std::fs::read_to_string(meta_path(dir))
        .map_err(|_| CliError(format!("{} is not a pario volume", dir.display())))?;
    let mut block_size = None;
    let mut devices = None;
    for line in meta.lines() {
        if let Some(v) = line.strip_prefix("block_size=") {
            block_size = v.trim().parse::<usize>().ok();
        }
        if let Some(v) = line.strip_prefix("devices=") {
            devices = v.trim().parse::<usize>().ok();
        }
    }
    let (bs, nd) = match (block_size, devices) {
        (Some(b), Some(d)) => (b, d),
        _ => return Err(CliError("corrupt volume.meta".into())),
    };
    let devs: Vec<DeviceRef> = (0..nd)
        .map(|i| FileDisk::open(&device_path(dir, i), bs).map(|d| Arc::new(d) as DeviceRef))
        .collect::<Result<_, _>>()?;
    Ok(Volume::mount(devs)?)
}

/// Parse an organization tag plus optional layout override, e.g.
/// `"PS:4"`, `"SS"`, `"GDA+parity:3:rotated"`, `"S+shadow"`.
pub fn parse_org_layout(
    spec: &str,
    vol: &Volume,
) -> Result<(Organization, Option<LayoutSpec>), CliError> {
    let (org_part, layout_part) = match spec.split_once('+') {
        Some((o, l)) => (o, Some(l)),
        None => (spec, None),
    };
    let org = Organization::from_tag(org_part)
        .ok_or_else(|| CliError(format!("unknown organization '{org_part}'")))?;
    let layout = match layout_part {
        None => None,
        Some(l) => {
            let parts: Vec<&str> = l.split(':').collect();
            match parts[0] {
                "parity" => {
                    let data = parts
                        .get(1)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or(vol.num_devices().saturating_sub(1));
                    let rotated = parts.get(2) == Some(&"rotated");
                    Some(LayoutSpec::Parity {
                        data_devices: data,
                        rotated,
                    })
                }
                "shadow" => {
                    let primaries = parts
                        .get(1)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or(vol.num_devices() / 2);
                    Some(LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                        devices: primaries,
                        unit: 1,
                    })))
                }
                "striped" => {
                    let unit = parts
                        .get(1)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(1);
                    Some(LayoutSpec::Striped {
                        devices: vol.num_devices(),
                        unit,
                    })
                }
                other => return Err(CliError(format!("unknown layout '{other}'"))),
            }
        }
    };
    Ok((org, layout))
}

/// Create a file: `org_spec` per [`parse_org_layout`].
pub fn create(
    dir: &Path,
    name: &str,
    org_spec: &str,
    record_size: usize,
    records_per_block: usize,
    size_records: Option<u64>,
) -> CliResult {
    let vol = open_volume(dir)?;
    let (org, layout) = parse_org_layout(org_spec, &vol)?;
    let pf = match (layout, size_records, org.is_fixed_size()) {
        (Some(layout), size, _) => ParallelFile::create_with_layout(
            &vol,
            name,
            org,
            record_size,
            records_per_block,
            layout,
            if org.is_fixed_size() { size } else { None },
        )?,
        (None, Some(n), _) => {
            ParallelFile::create_sized(&vol, name, org, record_size, records_per_block, n)?
        }
        (None, None, false) => {
            ParallelFile::create(&vol, name, org, record_size, records_per_block)?
        }
        (None, None, true) => {
            return Err(CliError(format!("{org} files need --size")));
        }
    };
    vol.sync_meta()?;
    Ok(format!(
        "created '{name}': {} records of {} B ({} per block)",
        pf.len_records(),
        record_size,
        records_per_block
    ))
}

/// List the volume's files.
pub fn ls(dir: &Path) -> CliResult {
    let vol = open_volume(dir)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>5} {:>10} {:>8} {:>8}  layout",
        "name", "org", "records", "rec B", "blocks"
    );
    for name in vol.list() {
        let f = vol.open(&name)?;
        let meta = f.meta_snapshot();
        let _ = writeln!(
            out,
            "{:<20} {:>5} {:>10} {:>8} {:>8}  {:?}",
            meta.name, meta.org, meta.len_records, meta.record_size, meta.nblocks, meta.layout
        );
    }
    let free = vol.free_blocks();
    let _ = writeln!(out, "free blocks per device: {free:?}");
    Ok(out)
}

/// Fill a file with `n` deterministic records (for demos and testing).
pub fn fill(dir: &Path, name: &str, n: u64) -> CliResult {
    let vol = open_volume(dir)?;
    let pf = ParallelFile::open(&vol, name)?;
    let rs = pf.record_size();
    let mut w = pario_fs::GlobalWriter::truncate(pf.raw().clone())?;
    for i in 0..n {
        w.write_record(&record_payload(i, rs))?;
    }
    let written = w.finish()?;
    vol.sync_meta()?;
    Ok(format!("wrote {written} records to '{name}'"))
}

/// Print records `[from, from+count)` as hex through the global view.
pub fn cat(dir: &Path, name: &str, from: u64, count: u64) -> CliResult {
    let vol = open_volume(dir)?;
    let pf = ParallelFile::open(&vol, name)?;
    let mut r = pf.global_reader();
    r.seek_record(from);
    let mut rec = vec![0u8; pf.record_size()];
    let mut out = String::new();
    for i in 0..count {
        if !r.read_record(&mut rec)? {
            break;
        }
        let preview: String = rec.iter().take(16).map(|b| format!("{b:02x}")).collect();
        let _ = writeln!(out, "{:>8}  {preview}…", from + i);
    }
    Ok(out)
}

/// Copy a file into a new organization.
pub fn convert(dir: &Path, src: &str, dst: &str, org_spec: &str) -> CliResult {
    let vol = open_volume(dir)?;
    let (org, layout) = parse_org_layout(org_spec, &vol)?;
    if layout.is_some() {
        return Err(CliError(
            "convert does not take layout overrides; create + copy instead".into(),
        ));
    }
    let src_pf = ParallelFile::open(&vol, src)?;
    let dst_pf = convert_file(&vol, &src_pf, dst, org)?;
    vol.sync_meta()?;
    Ok(format!(
        "converted '{src}' -> '{dst}' ({}, {} records)",
        dst_pf.organization(),
        dst_pf.len_records()
    ))
}

/// Remove a file.
pub fn rm(dir: &Path, name: &str) -> CliResult {
    let vol = open_volume(dir)?;
    vol.remove(name)?;
    vol.sync_meta()?;
    Ok(format!("removed '{name}'"))
}

/// Scrub every parity-protected file; report torn stripes.
pub fn scrub_volume(dir: &Path) -> CliResult {
    let vol = open_volume(dir)?;
    let mut out = String::new();
    let mut checked = 0;
    for name in vol.list() {
        let f = vol.open(&name)?;
        if matches!(f.meta_snapshot().layout, LayoutSpec::Parity { .. }) {
            let bad = scrub(&f)?;
            checked += 1;
            if bad.is_empty() {
                let _ = writeln!(out, "{name}: clean");
            } else {
                let _ = writeln!(out, "{name}: {} torn stripes {bad:?}", bad.len());
            }
        }
    }
    if checked == 0 {
        let _ = writeln!(out, "no parity-protected files to scrub");
    }
    Ok(out)
}

/// Rebuild every redundant file after replacing device `device`.
pub fn rebuild(dir: &Path, device: usize) -> CliResult {
    let vol = open_volume(dir)?;
    // Nothing else uses the volume: each file's slot goes in one burst.
    let report = rebuild_device(&vol, device, RebuildThrottle::UNBOUNDED)?;
    let mut out = String::new();
    for (name, n) in &report.parity_rebuilt {
        let _ = writeln!(out, "{name}: {n} blocks rebuilt from parity");
    }
    for (name, n) in &report.shadow_resynced {
        let _ = writeln!(out, "{name}: {n} blocks resynced from shadow");
    }
    for name in &report.unprotected {
        let _ = writeln!(out, "{name}: UNPROTECTED — data on device {device} is lost");
    }
    for name in &report.unaffected {
        let _ = writeln!(out, "{name}: unaffected");
    }
    Ok(out)
}

/// Usage text.
pub fn usage() -> String {
    "pario — parallel file volume utility (Crockett 1989 organizations)

USAGE:
  pario mkvol   <dir> <devices> <blocks> <block_size>
  pario ls      <dir>
  pario create  <dir> <name> <org> <record_size> <records_per_block> [size]
                  org: S | PS:n | IS:n | SS | GDA | PDA:n,
                  optionally +parity[:data[:rotated]] | +shadow[:n] | +striped[:unit]
  pario fill    <dir> <name> <records>
  pario cat     <dir> <name> [from] [count]
  pario convert <dir> <src> <dst> <org>
  pario rm      <dir> <name>
  pario scrub   <dir>
  pario rebuild <dir> <device>
"
    .to_string()
}

/// Dispatch an argv-style invocation; returns the text to print.
pub fn run(args: &[String]) -> CliResult {
    let get = |i: usize| -> Result<&str, CliError> {
        args.get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| CliError(format!("missing argument; usage:\n{}", usage())))
    };
    let parse_u64 = |s: &str| -> Result<u64, CliError> {
        s.parse::<u64>()
            .map_err(|_| CliError(format!("'{s}' is not a number")))
    };
    match args.first().map(|s| s.as_str()) {
        Some("mkvol") => mkvol(
            Path::new(get(1)?),
            parse_u64(get(2)?)? as usize,
            parse_u64(get(3)?)?,
            parse_u64(get(4)?)? as usize,
        ),
        Some("ls") => ls(Path::new(get(1)?)),
        Some("create") => create(
            Path::new(get(1)?),
            get(2)?,
            get(3)?,
            parse_u64(get(4)?)? as usize,
            parse_u64(get(5)?)? as usize,
            match args.get(6) {
                Some(s) => Some(parse_u64(s)?),
                None => None,
            },
        ),
        Some("fill") => fill(Path::new(get(1)?), get(2)?, parse_u64(get(3)?)?),
        Some("cat") => cat(
            Path::new(get(1)?),
            get(2)?,
            args.get(3).map(|s| parse_u64(s)).transpose()?.unwrap_or(0),
            args.get(4).map(|s| parse_u64(s)).transpose()?.unwrap_or(10),
        ),
        Some("convert") => convert(Path::new(get(1)?), get(2)?, get(3)?, get(4)?),
        Some("rm") => rm(Path::new(get(1)?), get(2)?),
        Some("scrub") => scrub_volume(Path::new(get(1)?)),
        Some("rebuild") => rebuild(Path::new(get(1)?), parse_u64(get(2)?)? as usize),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(CliError(format!(
            "unknown command '{other}'; usage:\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::VolumeConfig;

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 6,
            device_blocks: 256,
            block_size: 512,
        })
        .unwrap()
    }

    #[test]
    fn parse_plain_orgs() {
        let v = vol();
        for (tag, procs) in [("S", None), ("SS", None), ("GDA", None), ("PS:4", Some(4))] {
            let (org, layout) = parse_org_layout(tag, &v).unwrap();
            assert_eq!(org.processes().is_some(), procs.is_some());
            assert!(layout.is_none());
        }
        assert!(parse_org_layout("XX", &v).is_err());
        assert!(parse_org_layout("PS:0", &v).is_err());
    }

    #[test]
    fn parse_layout_overrides() {
        let v = vol();
        let (_, l) = parse_org_layout("GDA+parity:3:rotated", &v).unwrap();
        assert_eq!(
            l,
            Some(LayoutSpec::Parity {
                data_devices: 3,
                rotated: true
            })
        );
        let (_, l) = parse_org_layout("GDA+parity", &v).unwrap();
        assert_eq!(
            l,
            Some(LayoutSpec::Parity {
                data_devices: 5,
                rotated: false
            })
        );
        let (_, l) = parse_org_layout("S+shadow:2", &v).unwrap();
        assert!(matches!(l, Some(LayoutSpec::Shadowed(_))));
        let (_, l) = parse_org_layout("S+striped:8", &v).unwrap();
        assert_eq!(
            l,
            Some(LayoutSpec::Striped {
                devices: 6,
                unit: 8
            })
        );
        assert!(parse_org_layout("S+weird", &v).is_err());
    }
}
