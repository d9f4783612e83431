//! Who reads the socket: the client's slot table and the turn-taking
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
//! close, while their submitter is elsewhere or waiting for a credit),
//! to the fallback thread, which otherwise sleeps on a condvar.
//!
//! **The window is the slot table.** A request's id is the index of its
//! slot, which the server echoes back. A slot holds a credit from
//! `register` until its reply is read, and at most the grant's
//! `credits` slots are out at once: `register` waits on the table while
//! they are. A reply that has been read keeps its slot until its caller
//! takes it, so a slot is reused only after its reply has been read and
//! an id never names two outstanding requests. Slots are made on demand
//! and recycled through a free list: a warm blocking call allocates
//! none, and a large grant allocates nothing by itself.
//!
//! Socket-free (the receive half is any [`FrameSource`]) so that
//! `pario-check` drives the shipped code against a scripted source
//! (`model_net_reader.rs`). One ranked lock, the table (`net.replies`,
//! 5); nothing is acquired under it.

use std::sync::Arc;

use pario_check::{Condvar, LockLevel, Mutex, MutexGuard};

use crate::error::{NetError, Result};
use crate::frame::RawFrame;
use crate::proto::{decode_reply_error, STATUS_ERR, STATUS_OK};

/// The receive half of a connection, as the turn-taking sees it.
pub trait FrameSource {
    /// Block for the next reply frame; `Ok(None)` is a clean close.
    fn next_frame(&mut self) -> Result<Option<RawFrame>>;
}

/// Where one request's reply lands.
#[derive(Default)]
struct Slot {
    /// Registered and its reply not read yet: the slot holds a credit.
    out: bool,
    /// The reply, read and not yet taken by its caller.
    reply: Option<Result<Vec<u8>>>,
    /// Registered by a submitter that does not wait at once.
    pipelined: bool,
    /// Its ticket was dropped while out: whoever reads the reply puts
    /// the slot back.
    abandoned: bool,
    /// Its caller is asleep on `turn` while another thread reads.
    parked: bool,
    /// Signalled when the reply is read or the receive half is handed
    /// over. Made with the slot and recycled with it.
    turn: Arc<Condvar>,
}

/// One registered request; redeem it with [`ReplyMux::wait`]. Dropping
/// it abandons the reply, which is still read and discarded.
pub struct Ticket<S> {
    id: usize,
    /// The table the slot goes back to; `None` once redeemed.
    mux: Option<Arc<ReplyMux<S>>>,
}

impl<S> Drop for Ticket<S> {
    fn drop(&mut self) {
        if let Some(mux) = self.mux.take() {
            mux.replies.lock().abandon(self.id);
        }
    }
}

struct Replies<S> {
    /// Indexed by request id.
    slots: Vec<Slot>,
    /// Ids of the slots nobody holds.
    free: Vec<usize>,
    /// The grant: how many slots may be out at once.
    window: u32,
    /// Slots out: requests whose reply has not been read yet.
    out: u32,
    /// How many slots out are pipelined: replies that may have no
    /// caller coming for them, so the fallback thread must.
    unattended: usize,
    /// The receive half; `None` while a thread reads from it.
    source: Option<S>,
    dead: Option<NetError>,
}

impl<S> Replies<S> {
    /// A parked caller still without its reply: the next to read.
    fn next_caller(&self) -> Option<&Condvar> {
        let waiting = |s: &&Slot| s.parked && s.out;
        self.slots.iter().find(waiting).map(|s| &*s.turn)
    }

    /// Whether the fallback thread has something to read. A blocking
    /// caller between `register` and `wait` does not count: it is about
    /// to read for itself.
    fn wanted(&self) -> bool {
        self.unattended > 0
    }

    /// Reply `reply` to request `id`: the slot's credit comes back, and
    /// the reply goes to its caller or, with the ticket gone, the slot
    /// to the free list. `false` if no request `id` is out.
    fn file(&mut self, id: u64, reply: Result<Vec<u8>>) -> bool {
        let out = |i: &usize| self.slots.get(*i).is_some_and(|s| s.out);
        let Some(i) = usize::try_from(id).ok().filter(out) else {
            return false;
        };
        let slot = &mut self.slots[i];
        slot.out = false;
        self.out -= 1;
        self.unattended -= slot.pipelined as usize;
        if slot.abandoned {
            self.put_back(i);
        } else {
            slot.reply = Some(reply);
            slot.turn.notify_one();
        }
        true
    }

    /// The ticket of slot `i` is gone: the slot goes back now if its
    /// reply is in, else when the reply is read.
    fn abandon(&mut self, i: usize) {
        if self.slots[i].out {
            self.slots[i].abandoned = true;
        } else {
            self.put_back(i);
        }
    }

    /// Slot `i`'s reply, once read; the slot goes back with it.
    fn take(&mut self, i: usize) -> Option<Result<Vec<u8>>> {
        let reply = self.slots[i].reply.take()?;
        self.put_back(i);
        Some(reply)
    }

    fn put_back(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.reply = None;
        slot.abandoned = false;
        self.free.push(i);
    }
}

/// The slot table of one connection plus the rule for who reads.
pub struct ReplyMux<S> {
    replies: Mutex<Replies<S>>,
    /// Where submitters wait while every credit is out.
    room: Condvar,
    /// Where the fallback thread sleeps while a caller reads or nothing
    /// is outstanding.
    idle: Condvar,
}

impl<S: FrameSource> ReplyMux<S> {
    /// A table over `source` with a window of `credits` requests.
    pub fn new(credits: u32, source: S) -> ReplyMux<S> {
        ReplyMux {
            replies: Mutex::new_named(
                Replies {
                    slots: Vec::new(),
                    free: Vec::new(),
                    window: credits,
                    out: 0,
                    unattended: 0,
                    source: Some(source),
                    dead: None,
                },
                LockLevel::NetReplies,
            ),
            room: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Take a slot, waiting while every credit is out; its id goes in
    /// the request's frame. A caller that will not `wait` (or `cancel`)
    /// as soon as the frame has left says `pipelined`, and calls
    /// [`sent`](ReplyMux::sent) instead.
    pub fn register(self: &Arc<Self>, pipelined: bool) -> Result<(u64, Ticket<S>)> {
        let mut st = self.replies.lock();
        while st.dead.is_none() && st.out == st.window {
            self.room.wait(&mut st);
        }
        if let Some(e) = &st.dead {
            return Err(e.clone());
        }
        let id = st.free.pop().unwrap_or_else(|| {
            st.slots.push(Slot::default());
            st.slots.len() - 1
        });
        st.out += 1;
        st.unattended += pipelined as usize;
        let slot = &mut st.slots[id];
        slot.out = true;
        slot.pipelined = pipelined;
        let mux = Some(Arc::clone(self));
        Ok((id as u64, Ticket { id, mux }))
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

    /// The request never left (its send failed): no reply will come, so
    /// its slot goes back at once.
    pub fn cancel(&self, mut ticket: Ticket<S>) {
        ticket.mux = None;
        let mut st = self.replies.lock();
        st.abandon(ticket.id);
        if st.file(ticket.id as u64, Ok(Vec::new())) {
            self.room.notify_one();
        }
    }

    /// Block until the ticket's reply arrives: the raw OK body, or the
    /// decoded error. Reads the socket itself whenever nobody else is.
    pub fn wait(&self, mut ticket: Ticket<S>) -> Result<Vec<u8>> {
        ticket.mux = None;
        let id = ticket.id;
        let mut led = false;
        let mut st = self.replies.lock();
        loop {
            if let Some(r) = st.take(id) {
                if led && st.source.is_some() {
                    // Leaving: pass the turn to whoever needs it.
                    match st.next_caller() {
                        Some(next) => next.notify_one(),
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
                let turn = Arc::clone(&st.slots[id].turn);
                st.slots[id].parked = true;
                turn.wait(&mut st);
                st.slots[id].parked = false;
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
                Some(caller) => caller.notify_one(),
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

    /// Credits currently available: the window minus the slots out
    /// (diagnostic).
    pub fn credits_available(&self) -> u32 {
        let st = self.replies.lock();
        st.window - st.out
    }

    /// Read one frame with the table unlocked, then file it: a reply
    /// returns its slot's credit and fills the slot; a dead connection
    /// fails every slot out and every submitter waiting for a credit.
    fn read_one(&self, mut source: S) -> MutexGuard<'_, Replies<S>> {
        let lost = match source.next_frame() {
            Ok(Some(f)) => {
                let mut st = self.replies.lock();
                st.source = Some(source);
                // An id with no slot out is ignored: nothing waits for it.
                if st.file(f.request_id, decode_reply(f)) {
                    self.room.notify_one();
                }
                return st;
            }
            Ok(None) => NetError::ConnectionLost("server closed the connection".to_string()),
            Err(e) => e,
        };
        self.fail(lost)
    }

    /// The connection is lost: fail every slot out and every submitter
    /// waiting for a credit, and let the fallback thread go.
    fn fail(&self, lost: NetError) -> MutexGuard<'_, Replies<S>> {
        let mut st = self.replies.lock();
        for id in 0..st.slots.len() as u64 {
            st.file(id, Err(lost.clone()));
        }
        st.dead.get_or_insert(lost);
        self.room.notify_all();
        self.idle.notify_one();
        st
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// The far end, on the same thread: every request sent is answered
    /// by the time anybody reads, its id echoed as the body.
    struct Echo(Receiver<u64>);

    impl FrameSource for Echo {
        fn next_frame(&mut self) -> Result<Option<RawFrame>> {
            Ok(self.0.try_recv().ok().map(|id| RawFrame {
                request_id: id,
                code: STATUS_OK,
                body: id.to_le_bytes().to_vec(),
            }))
        }
    }

    fn rig(credits: u32) -> (Sender<u64>, Arc<ReplyMux<Echo>>) {
        let (tx, rx) = channel();
        (tx, Arc::new(ReplyMux::new(credits, Echo(rx))))
    }

    /// Slots made, and slots on the free list.
    fn slots(mux: &ReplyMux<Echo>) -> (usize, usize) {
        let st = mux.replies.lock();
        (st.slots.len(), st.free.len())
    }

    #[test]
    fn a_lone_blocking_caller_uses_one_slot() {
        let (tx, mux) = rig(32);
        for _ in 0..100 {
            let (id, ticket) = mux.register(false).unwrap();
            tx.send(id).unwrap();
            assert_eq!(mux.wait(ticket).unwrap(), id.to_le_bytes());
        }
        assert_eq!(slots(&mux), (1, 1));
        assert_eq!(mux.credits_available(), 32);
    }

    #[test]
    fn a_pipelined_burst_of_k_uses_k_slots_and_reuses_them() {
        const K: usize = 5;
        let (tx, mux) = rig(32);
        for round in 0..3 {
            let tickets: Vec<_> = (0..K)
                .map(|_| {
                    let (id, ticket) = mux.register(true).unwrap();
                    tx.send(id).unwrap();
                    mux.sent();
                    (id, ticket)
                })
                .collect();
            assert_eq!(slots(&mux), (K, 0), "round {round}");
            assert_eq!(mux.credits_available(), 32 - K as u32);
            for (id, ticket) in tickets {
                assert_eq!(mux.wait(ticket).unwrap(), id.to_le_bytes());
            }
            assert_eq!(slots(&mux), (K, K), "round {round}");
        }
        assert_eq!(mux.credits_available(), 32);
    }

    #[test]
    fn a_dropped_tickets_slot_goes_back_once_its_reply_is_read() {
        let (tx, mux) = rig(4);
        let (lost, ticket) = mux.register(true).unwrap();
        tx.send(lost).unwrap();
        drop(ticket);
        assert_eq!(slots(&mux), (1, 0), "its reply is still to come");
        let (id, ticket) = mux.register(false).unwrap();
        assert_ne!(id, lost, "an outstanding id was handed out again");
        tx.send(id).unwrap();
        assert_eq!(mux.wait(ticket).unwrap(), id.to_le_bytes());
        assert_eq!(slots(&mux), (2, 2));
        assert_eq!(mux.credits_available(), 4);
    }
}
