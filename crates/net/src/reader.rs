//! Who reads the socket: the client's reply table and the turn-taking
//! over the one receive half of a connection.
//!
//! The invariant: **whenever a reply is outstanding one thread — never
//! two — is reading the socket or on its way to (a caller between
//! `register` and `wait`, a thread just signalled), and on a connection
//! with one blocking caller that thread is the caller**: a blocking
//! call costs no cross-thread wake-up. A thread in [`ReplyMux::wait`]
//! takes the receive half if it is free and reads frames, filing other
//! requests' replies into their slots, until its own arrives; then it
//! passes the turn to a parked caller or, if replies are outstanding
//! that nobody may come for (pipelined tickets, a fire-and-forget
//! close, while their submitter is elsewhere or parked on credits), to
//! the fallback thread, which otherwise sleeps on a condvar.
//!
//! Socket-free (the receive half is any [`FrameSource`]) so that
//! `pario-check` drives the shipped code against a scripted source
//! (`model_net_reader.rs`). One ranked lock: the table is `net.replies`
//! (5); credits (3) are released before it is taken, slots are leaves.

use std::collections::HashMap;
use std::sync::Arc;

use pario_check::{Condvar, LockLevel, Mutex, MutexGuard};

use crate::credits::CreditWindow;
use crate::error::{NetError, Result};
use crate::frame::RawFrame;
use crate::proto::{decode_reply_error, STATUS_ERR, STATUS_OK};

/// The receive half of a connection, as the turn-taking sees it.
pub trait FrameSource {
    /// Block for the next reply frame; `Ok(None)` is a clean close.
    fn next_frame(&mut self) -> Result<Option<RawFrame>>;
}

struct Slot {
    /// Registered by a submitter that does not wait at once.
    pipelined: bool,
    reply: Mutex<Option<Result<Vec<u8>>>>,
    /// Signalled when `reply` fills or the receive half is handed over.
    turn: Condvar,
}

/// One registered request; redeem it with [`ReplyMux::wait`]. Dropping
/// it abandons the reply, which is still read and discarded.
pub struct Ticket(Arc<Slot>);

struct Replies<S> {
    /// Requests whose reply has not been read yet.
    slots: HashMap<u64, Arc<Slot>>,
    /// How many of `slots` are pipelined: replies that may have no
    /// caller coming for them, so the fallback thread must.
    unattended: usize,
    /// Callers asleep in `wait` while another thread reads.
    parked: Vec<Arc<Slot>>,
    /// The receive half; `None` while a thread reads from it.
    source: Option<S>,
    dead: Option<NetError>,
    next_id: u64,
}

impl<S> Replies<S> {
    /// A parked caller still without its reply: the next to read.
    fn next_caller(&self) -> Option<&Arc<Slot>> {
        self.parked.iter().find(|p| p.reply.lock().is_none())
    }

    /// Whether the fallback thread has something to read. A blocking
    /// caller between `register` and `wait` does not count: it is about
    /// to read for itself.
    fn wanted(&self) -> bool {
        self.unattended > 0
    }

    fn forget(&mut self, id: u64) -> Option<Arc<Slot>> {
        let slot = self.slots.remove(&id)?;
        self.unattended -= slot.pipelined as usize;
        Some(slot)
    }
}

/// The reply table of one connection plus the rule for who reads.
pub struct ReplyMux<S> {
    credits: CreditWindow,
    replies: Mutex<Replies<S>>,
    /// Where the fallback thread sleeps while a caller reads or nothing
    /// is outstanding.
    idle: Condvar,
}

impl<S: FrameSource> ReplyMux<S> {
    /// A table over `source` with a window of `credits` requests.
    pub fn new(credits: u32, source: S) -> ReplyMux<S> {
        ReplyMux {
            credits: CreditWindow::new(credits),
            replies: Mutex::new_named(
                Replies {
                    slots: HashMap::new(),
                    unattended: 0,
                    parked: Vec::new(),
                    source: Some(source),
                    dead: None,
                    next_id: 1,
                },
                LockLevel::NetReplies,
            ),
            idle: Condvar::new(),
        }
    }

    /// Take a credit and register a request; the id goes in its frame.
    /// A caller that will not `wait` (or `cancel`) as soon as the frame
    /// has left says `pipelined`, and calls [`sent`](ReplyMux::sent)
    /// instead.
    pub fn register(&self, pipelined: bool) -> Result<(u64, Ticket)> {
        self.credits.acquire()?;
        let mut st = self.replies.lock();
        if let Some(e) = st.dead.clone() {
            drop(st);
            self.credits.release();
            return Err(e);
        }
        let id = st.next_id;
        st.next_id += 1;
        let slot = Arc::new(Slot {
            pipelined,
            reply: Mutex::new(None),
            turn: Condvar::new(),
        });
        st.slots.insert(id, Arc::clone(&slot));
        st.unattended += pipelined as usize;
        Ok((id, Ticket(slot)))
    }

    /// A pipelined request has left: see that somebody reads its reply.
    /// Asked only now, not at `register`, so that a submitter who turns
    /// straight to `wait` finds the receive half free and reads itself.
    pub fn sent(&self) {
        let st = self.replies.lock();
        if st.source.is_some() && st.wanted() {
            self.idle.notify_one();
        }
    }

    /// The request never left (its send failed): no reply will come.
    pub fn cancel(&self, id: u64) {
        self.credits.release();
        self.replies.lock().forget(id);
    }

    /// Block until the ticket's reply arrives: the raw OK body, or the
    /// decoded error. Reads the socket itself whenever nobody else is.
    pub fn wait(&self, ticket: Ticket) -> Result<Vec<u8>> {
        let slot = ticket.0;
        let mut led = false;
        let mut st = self.replies.lock();
        loop {
            let reply = slot.reply.lock().take();
            if let Some(r) = reply {
                if led && st.source.is_some() {
                    // Leaving: pass the turn to whoever needs it.
                    match st.next_caller() {
                        Some(next) => next.turn.notify_one(),
                        None if st.wanted() => self.idle.notify_one(),
                        None => {}
                    }
                }
                return r;
            }
            if let Some(source) = st.source.take() {
                led = true;
                drop(st);
                st = self.read_one(source);
            } else {
                st.parked.push(Arc::clone(&slot));
                slot.turn.wait(&mut st);
                st.parked.retain(|p| !Arc::ptr_eq(p, &slot));
            }
        }
    }

    /// Body of the `pario-net-client-recv` thread: read while pipelined
    /// replies are outstanding and no caller can, sleep otherwise;
    /// returns once the connection is dead or [`close`](ReplyMux::close)d.
    pub fn run_fallback(&self) {
        let mut st = self.replies.lock();
        while st.dead.is_none() {
            match st.next_caller() {
                // A caller can read: pass it the turn and step back.
                Some(caller) => caller.turn.notify_one(),
                None if st.wanted() => {
                    if let Some(source) = st.source.take() {
                        drop(st);
                        st = self.read_one(source);
                        continue;
                    }
                }
                None => {}
            }
            self.idle.wait(&mut st);
        }
    }

    /// The client is going away: every request in flight and every
    /// later one fails, and the fallback thread returns.
    pub fn close(&self) {
        drop(self.fail(NetError::ConnectionLost(
            "client closed the connection".to_string(),
        )));
    }

    /// Credits currently available (diagnostic).
    pub fn credits_available(&self) -> u32 {
        self.credits.available()
    }

    /// Read one frame with the table unlocked, then file it: a reply
    /// returns its credit and fills its slot; a dead connection fails
    /// every slot and every submitter parked on credits.
    fn read_one(&self, mut source: S) -> MutexGuard<'_, Replies<S>> {
        let lost = match source.next_frame() {
            Ok(Some(f)) => {
                self.credits.release();
                let mut st = self.replies.lock();
                st.source = Some(source);
                // An absent slot is a request whose send failed.
                if let Some(slot) = st.forget(f.request_id) {
                    fill(&slot, decode_reply(f));
                }
                return st;
            }
            Ok(None) => NetError::ConnectionLost("server closed the connection".to_string()),
            Err(e) => e,
        };
        self.fail(lost)
    }

    /// The connection is lost: fail every slot and every submitter
    /// parked on credits, and let the fallback thread go.
    fn fail(&self, lost: NetError) -> MutexGuard<'_, Replies<S>> {
        self.credits.kill(lost.clone());
        let mut st = self.replies.lock();
        st.unattended = 0;
        for (_, slot) in st.slots.drain() {
            fill(&slot, Err(lost.clone()));
        }
        st.dead.get_or_insert(lost);
        self.idle.notify_one();
        st
    }
}

fn fill(slot: &Slot, reply: Result<Vec<u8>>) {
    *slot.reply.lock() = Some(reply);
    slot.turn.notify_one();
}

fn decode_reply(f: RawFrame) -> Result<Vec<u8>> {
    match f.code {
        STATUS_OK => Ok(f.body),
        STATUS_ERR => Err(match decode_reply_error(&f.body) {
            Ok(e) => e,
            Err(wire) => wire.into(),
        }),
        other => Err(NetError::Protocol(format!("bad reply status {other}"))),
    }
}
