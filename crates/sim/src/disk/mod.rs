//! The modelled 1989 drive for virtual-time experiments: a
//! [`DiskGeometry`] (seek `a + b·√d`, rotational position, media rate —
//! defaults match the 30,000-hour-MTBF Winchester drives the paper
//! cites) combined with a request [`Scheduler`] (FIFO / SSTF / SCAN /
//! C-SCAN) in [`ModeledDisk`], a [`DeviceModel`](crate::DeviceModel).

mod geometry;
mod modeled;
mod sched;

pub use geometry::DiskGeometry;
pub use modeled::ModeledDisk;
pub use sched::{SchedPolicy, Scheduler};
