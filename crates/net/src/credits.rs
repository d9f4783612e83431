//! The client-side flow-control window: a counting semaphore over the
//! credits granted at handshake, with a kill switch for connection
//! death.
//!
//! Extracted from the client so the protocol is model-checkable on its
//! own: `pario-check` drives [`CreditWindow`] directly (no sockets, no
//! reading thread) and proves with the happens-before detector that a
//! released credit *synchronizes* — work done before [`release`]
//! happens-before the [`acquire`] that consumes the credit. The mutex
//! ranks at `net.credits` (3), the bottom of the client's lock order.
//!
//! [`release`]: CreditWindow::release
//! [`acquire`]: CreditWindow::acquire

use pario_check::{Condvar, LockLevel, Mutex};

use crate::error::{NetError, Result};

struct Credits {
    avail: u32,
    dead: Option<NetError>,
}

/// A bounded window of request credits shared by submitters and the
/// thread that reads a reply off the socket.
pub struct CreditWindow {
    m: Mutex<Credits>,
    cv: Condvar,
}

impl CreditWindow {
    /// A window holding `initial` credits.
    pub fn new(initial: u32) -> CreditWindow {
        CreditWindow {
            m: Mutex::new_named(
                Credits {
                    avail: initial,
                    dead: None,
                },
                LockLevel::NetCredits,
            ),
            cv: Condvar::new(),
        }
    }

    /// Take one credit, blocking while the window is exhausted. Fails
    /// once the window is [`kill`](CreditWindow::kill)ed — including
    /// for waiters already parked.
    pub fn acquire(&self) -> Result<()> {
        let mut credits = self.m.lock();
        loop {
            if let Some(e) = &credits.dead {
                return Err(e.clone());
            }
            if credits.avail > 0 {
                credits.avail -= 1;
                return Ok(());
            }
            self.cv.wait(&mut credits);
        }
    }

    /// Return one credit and wake one parked submitter.
    pub fn release(&self) {
        let mut credits = self.m.lock();
        credits.avail += 1;
        self.cv.notify_one();
    }

    /// The connection died: fail every parked and future acquirer.
    pub fn kill(&self, err: NetError) {
        let mut credits = self.m.lock();
        credits.dead = Some(err);
        self.cv.notify_all();
    }

    /// Credits currently available (diagnostic).
    pub fn available(&self) -> u32 {
        self.m.lock().avail
    }
}
