//! `pario-benchmark`: five sized workloads, windowed end-to-end metrics
//! and a peeled per-layer trace, all measured from outside the crates
//! by calling their public functions, diffing their public snapshot
//! structs and wrapping the innermost devices in [`probe_disk::ProbeDisk`].
//! See `README.md` next to this crate for the catalogue and the method.

pub mod calib;
pub mod catalogue;
pub mod gda;
pub mod layers;
pub mod measure;
pub mod probe_disk;
pub mod procfs;
pub mod rig;
pub mod run;
pub mod span;
pub mod ss;
pub mod stats;
pub mod trace;
