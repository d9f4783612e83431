//! Plain-data layout descriptions.
//!
//! File metadata must persist across mounts, so the file system stores a
//! [`LayoutSpec`] — a plain-data description it encodes itself — and
//! rebuilds the concrete [`Layout`] object on open.

use crate::parity::{ParityPlacement, ParityStriped};
use crate::partitioned::Partitioned;
use crate::shadow::Shadowed;
use crate::striped::Striped;
use crate::traits::Layout;

/// A plain-data description of a data placement, stored in file metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutSpec {
    /// Round-robin units over `devices` ([`Striped`]).
    Striped {
        /// Devices to stripe over.
        devices: usize,
        /// Stripe unit in volume blocks.
        unit: u64,
    },
    /// Contiguous per-partition placement ([`Partitioned`]).
    Partitioned {
        /// Partition boundaries in logical blocks (`bounds[0] == 0`).
        bounds: Vec<u64>,
        /// Devices partitions are assigned round-robin onto.
        devices: usize,
    },
    /// Striping with one parity block per stripe ([`ParityStriped`]).
    Parity {
        /// Data devices (total devices is one more).
        data_devices: usize,
        /// RAID-5 style rotation if true, dedicated parity device if false.
        rotated: bool,
    },
    /// A mirrored copy of another layout ([`Shadowed`]).
    Shadowed(Box<LayoutSpec>),
}

impl LayoutSpec {
    /// Construct the concrete layout this spec describes.
    pub fn build(&self) -> Box<dyn Layout> {
        match self {
            LayoutSpec::Striped { devices, unit } => Box::new(Striped::new(*devices, *unit)),
            LayoutSpec::Partitioned { bounds, devices } => {
                Box::new(Partitioned::from_bounds(bounds.clone(), *devices))
            }
            LayoutSpec::Parity {
                data_devices,
                rotated,
            } => Box::new(ParityStriped::new(
                *data_devices,
                if *rotated {
                    ParityPlacement::Rotated
                } else {
                    ParityPlacement::Dedicated
                },
            )),
            LayoutSpec::Shadowed(inner) => Box::new(Shadowed::new(inner.build())),
        }
    }

    /// The devices [`devices_required`](Self::devices_required) counts,
    /// or why [`build`](Self::build) would panic on this spec: a device
    /// count or stripe unit of zero, partition bounds that do not start
    /// at 0, fall, or name no partition, or a device count past `usize`.
    pub fn check(&self) -> Result<usize, String> {
        match self {
            LayoutSpec::Striped { devices, unit } if *devices == 0 || *unit == 0 => {
                Err("a stripe needs a device and a unit of at least one block".into())
            }
            LayoutSpec::Partitioned { devices: 0, .. }
            | LayoutSpec::Parity {
                data_devices: 0, ..
            } => Err("a layout needs at least one (data) device".into()),
            LayoutSpec::Partitioned { bounds, .. }
                if bounds.len() < 2 || bounds[0] != 0 || bounds.windows(2).any(|w| w[0] > w[1]) =>
            {
                Err(format!(
                    "partition bounds {bounds:?} must start at 0, never fall and name a partition"
                ))
            }
            LayoutSpec::Parity { data_devices, .. } => data_devices
                .checked_add(1)
                .ok_or_else(|| "too many devices".to_string()),
            LayoutSpec::Shadowed(inner) => inner
                .check()?
                .checked_mul(2)
                .ok_or_else(|| "too many devices".to_string()),
            _ => Ok(self.devices_required()),
        }
    }

    /// Total devices (including parity and shadow devices) this placement
    /// needs from the volume.
    pub fn devices_required(&self) -> usize {
        match self {
            LayoutSpec::Striped { devices, .. } => *devices,
            LayoutSpec::Partitioned { devices, .. } => *devices,
            LayoutSpec::Parity { data_devices, .. } => data_devices + 1,
            LayoutSpec::Shadowed(inner) => inner.devices_required() * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_direct_construction() {
        let spec = LayoutSpec::Striped {
            devices: 3,
            unit: 2,
        };
        let l = spec.build();
        assert_eq!(l.devices(), 3);
        assert_eq!(l.map(5), Striped::new(3, 2).map(5));
    }

    #[test]
    fn devices_required() {
        assert_eq!(
            LayoutSpec::Striped {
                devices: 4,
                unit: 1
            }
            .devices_required(),
            4
        );
        assert_eq!(
            LayoutSpec::Parity {
                data_devices: 4,
                rotated: true
            }
            .devices_required(),
            5
        );
        let shadowed = LayoutSpec::Shadowed(Box::new(LayoutSpec::Partitioned {
            bounds: vec![0, 5, 10],
            devices: 2,
        }));
        assert_eq!(shadowed.devices_required(), 4);
        assert_eq!(shadowed.build().devices(), 4);
    }

    #[test]
    fn check_refuses_what_build_would_panic_on() {
        let striped = |devices, unit| LayoutSpec::Striped { devices, unit };
        let parted = |bounds: Vec<u64>| LayoutSpec::Partitioned { bounds, devices: 2 };
        assert_eq!(striped(3, 2).check(), Ok(3));
        assert_eq!(parted(vec![0, 4, 4, 9]).check(), Ok(2));
        let mirror = LayoutSpec::Shadowed(Box::new(LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        }));
        assert_eq!(mirror.check(), Ok(8));
        for bad in [
            striped(0, 1),
            striped(2, 0),
            parted(vec![0]),
            parted(vec![1, 4]),
            parted(vec![0, 4, 3]),
            LayoutSpec::Parity {
                data_devices: 0,
                rotated: false,
            },
            LayoutSpec::Parity {
                data_devices: usize::MAX,
                rotated: false,
            },
            LayoutSpec::Shadowed(Box::new(striped(usize::MAX, 1))),
        ] {
            assert!(bad.check().is_err(), "{bad:?}");
        }
    }
}
