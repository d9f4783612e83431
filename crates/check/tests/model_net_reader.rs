//! Model checks for `pario_net::ReplyMux`, the client's slot table and
//! its turn-taking over the one receive half of a connection, against a
//! scripted frame source: every waiter gets exactly its own reply, the
//! receive half is never read by two threads at once, the window bounds
//! the requests in flight, work done under a credit happens-before the
//! credit's next owner (proved by the race detector on a plain cell), a
//! dropped ticket's slot is not reused before its reply is read, no
//! hand-off is lost (a reply outstanding with no reader parks the run,
//! which the explorer reports as a deadlock), a lone blocking caller
//! always reads for itself, and end-of-stream reaches every waiter and
//! every submitter waiting for a slot; and of two first pipelined
//! submits that race, exactly one starts the fallback thread.
#![cfg(pario_check)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use pario_check::{spawn, CheckCell, Condvar, Config, Explorer, JoinHandle, Mutex, Report};
use pario_net::frame::RawFrame;
use pario_net::proto::STATUS_OK;
use pario_net::{FrameSource, NetError, ReplyMux};

thread_local! {
    /// Set on the model's fallback thread, so the script can tell who reads.
    static IS_FALLBACK: Cell<bool> = const { Cell::new(false) };
}

struct WireState {
    /// Replies the scripted server has sent and nobody has read yet, in
    /// request order: each request's id and the request's own tag.
    frames: VecDeque<(u64, u64)>,
    /// The window: requests sent and not answered never exceed it.
    window: usize,
    /// The server hangs up once it has taken this many requests.
    dies_after: Option<u32>,
    taken: u32,
    next_tag: u64,
    closed: bool,
    reading: u32,
    fallback_reads: u32,
}

/// The far end: answers each request as it is sent, echoing its id and
/// carrying a tag no other request has.
struct Wire {
    m: Mutex<WireState>,
    arrived: Condvar,
}

impl Wire {
    /// Send request `id`; its tag, which its reply carries. A server
    /// that dies takes the request and answers nothing.
    fn send(&self, id: u64) -> u64 {
        let mut w = self.m.lock();
        let tag = w.next_tag;
        w.next_tag += 1;
        w.taken += 1;
        if let Some(n) = w.dies_after {
            w.closed |= w.taken >= n;
        } else {
            w.frames.push_back((id, tag));
            let in_flight = w.frames.len();
            assert!(
                in_flight <= w.window,
                "{in_flight} requests in flight through a window of {}",
                w.window
            );
        }
        self.arrived.notify_one();
        tag
    }

    fn close(&self) {
        self.m.lock().closed = true;
        self.arrived.notify_one();
    }
}

/// The receive half: blocks like `recv` until a frame or the close.
struct Script(Arc<Wire>);

impl FrameSource for Script {
    fn next_frame(&mut self) -> Result<Option<RawFrame>, NetError> {
        let mut w = self.0.m.lock();
        w.reading += 1;
        assert_eq!(w.reading, 1, "two threads read the receive half");
        if IS_FALLBACK.get() {
            w.fallback_reads += 1;
        }
        while w.frames.is_empty() && !w.closed {
            self.0.arrived.wait(&mut w);
        }
        w.reading -= 1;
        Ok(w.frames.pop_front().map(|(id, tag)| RawFrame {
            request_id: id,
            code: STATUS_OK,
            body: tag.to_le_bytes().to_vec(),
        }))
    }
}

type Mux = Arc<ReplyMux<Script>>;

/// A connection with a window of `credits`, whose server dies after
/// `dies_after` requests if that is set, and no fallback thread yet.
fn connection(credits: u32, dies_after: Option<u32>) -> (Arc<Wire>, Mux) {
    let wire = Arc::new(Wire {
        m: Mutex::new(WireState {
            frames: VecDeque::new(),
            window: credits as usize,
            dies_after,
            taken: 0,
            next_tag: 0,
            closed: false,
            reading: 0,
            fallback_reads: 0,
        }),
        arrived: Condvar::new(),
    });
    let mux = Arc::new(ReplyMux::new(credits, Script(Arc::clone(&wire))));
    (wire, mux)
}

/// `mux`'s fallback thread.
fn start_fallback(mux: &Mux) -> JoinHandle {
    let mux = Arc::clone(mux);
    spawn(move || {
        IS_FALLBACK.set(true);
        mux.run_fallback();
    })
}

/// A connection as `connection` makes it, with its fallback thread.
fn rig_dying(credits: u32, dies_after: Option<u32>) -> (Arc<Wire>, Mux, JoinHandle) {
    let (wire, mux) = connection(credits, dies_after);
    let fallback = start_fallback(&mux);
    (wire, mux, fallback)
}

fn rig(credits: u32) -> (Arc<Wire>, Mux, JoinHandle) {
    rig_dying(credits, None)
}

/// A pipelined request has left, on a rig whose fallback thread runs
/// already.
fn sent(mux: &Mux) {
    mux.sent(|| Ok(()))
        .expect("the rig started the fallback thread");
}

/// One blocking call: register, send, wait, and the reply is this
/// request's own.
fn call(wire: &Wire, mux: &Mux) {
    let (id, ticket) = mux.register(false).expect("live connection");
    let tag = wire.send(id);
    let body = mux.wait(ticket).expect("live connection");
    assert_eq!(body, tag.to_le_bytes(), "request {id} got another's reply");
}

/// Every credit comes back, an abandoned ticket's too: somebody reads
/// its reply though nobody is left to wait for it.
fn every_credit_comes_back(mux: &Mux, credits: u32) {
    let all: Vec<_> = (0..credits)
        .map(|_| mux.register(false).expect("live").1)
        .collect();
    all.into_iter().for_each(|ticket| mux.cancel(ticket));
    assert_eq!(mux.credits_available(), credits, "a credit leaked");
}

/// Hang up, and the fallback thread leaves.
fn hang_up(wire: &Wire, mux: &Mux, fallback: JoinHandle) {
    wire.close();
    mux.close();
    fallback.join();
}

fn explored(report: Report, at_least: usize) {
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= at_least,
        "only {} distinct schedules",
        report.distinct
    );
}

/// Two blocking callers of two calls each and a pipelining submitter
/// that abandons the second of its two tickets, through a window of two
/// credits (so somebody waits for a slot in most schedules). Covers the
/// second request that arrives while the first caller is mid-read, and
/// the leader that leaves with replies outstanding; no wake-up is lost,
/// or a run parks for good.
#[test]
fn every_waiter_gets_its_own_reply_and_no_turn_is_lost() {
    let report = Explorer::new(Config::new(6000)).run(|| {
        let (wire, mux, fallback) = rig(2);
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (wire, mux) = (Arc::clone(&wire), Arc::clone(&mux));
            hs.push(spawn(move || {
                call(&wire, &mux);
                call(&wire, &mux);
            }));
        }
        {
            let (wire, mux) = (Arc::clone(&wire), Arc::clone(&mux));
            hs.push(spawn(move || {
                let (id, kept) = mux.register(true).expect("live");
                let tag = wire.send(id);
                sent(&mux);
                let (dropped, abandoned) = mux.register(true).expect("live");
                wire.send(dropped);
                sent(&mux);
                let body = mux.wait(kept).expect("live");
                assert_eq!(body, tag.to_le_bytes(), "ticket {id} got another's reply");
                drop(abandoned);
            }));
        }
        for h in hs {
            h.join();
        }
        every_credit_comes_back(&mux, 2);
        hang_up(&wire, &mux, fallback);
    });
    explored(report, 1000);
}

/// Four callers × two rounds through a window of one credit: the
/// scripted wire never carries two requests at once, every caller is
/// eventually served (a lost wake-up parks the run as a model
/// deadlock), and the cell each mutates under its credit never races —
/// a reply read hands the credit to the next owner through a true
/// synchronizes-with edge. Eight dependent critical sections give a
/// class space in the thousands, so the ≥ 1000-distinct assertion
/// measures genuine coverage.
#[test]
fn the_window_bounds_the_wire_and_a_credit_synchronizes_its_next_owner() {
    let report = Explorer::new(Config::new(4000)).run(|| {
        let (wire, mux, fallback) = rig(1);
        let cell = Arc::new(CheckCell::new_labeled(0u64, "under-credit"));
        let mut hs = Vec::new();
        for t in 1..=4u64 {
            let (wire, mux, cell) = (Arc::clone(&wire), Arc::clone(&mux), Arc::clone(&cell));
            hs.push(spawn(move || {
                for _ in 0..2 {
                    let (id, ticket) = mux.register(false).expect("live connection");
                    cell.with_mut(|v| *v += t);
                    let tag = wire.send(id);
                    let body = mux.wait(ticket).expect("live connection");
                    assert_eq!(body, tag.to_le_bytes(), "request {id} got another's reply");
                }
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(cell.get(), 20, "an increment was lost");
        assert_eq!(mux.credits_available(), 1, "a credit leaked");
        hang_up(&wire, &mux, fallback);
    });
    explored(report, 1000);
}

/// Slot reuse: a pipelined ticket is dropped before its reply is read,
/// and two blocking callers reuse the window meanwhile. Each must read
/// its own reply, never the dropped request's late one, and every credit
/// comes back once that reply is read. Putting the dropped ticket's slot
/// back at the drop hands its id — and so its reply — to the slot's
/// next owner.
#[test]
fn a_dropped_tickets_slot_never_reaches_its_next_owner_early() {
    let report = Explorer::new(Config::new(4000)).run(|| {
        let (wire, mux, fallback) = rig(2);
        let mut hs = Vec::new();
        for _ in 0..2 {
            let (wire, mux) = (Arc::clone(&wire), Arc::clone(&mux));
            hs.push(spawn(move || {
                call(&wire, &mux);
                call(&wire, &mux);
            }));
        }
        let (id, ticket) = mux.register(true).expect("live");
        wire.send(id);
        sent(&mux);
        drop(ticket);
        for h in hs {
            h.join();
        }
        every_credit_comes_back(&mux, 2);
        hang_up(&wire, &mux, fallback);
    });
    explored(report, 1000);
}

/// On a connection with one blocking caller the caller reads every
/// reply itself: the fallback thread never touches the receive half.
#[test]
fn a_lone_blocking_caller_reads_for_itself() {
    let report = Explorer::new(Config::new(400)).run(|| {
        let (wire, mux, fallback) = rig(2);
        for _ in 0..3 {
            call(&wire, &mux);
        }
        assert_eq!(wire.m.lock().fallback_reads, 0);
        hang_up(&wire, &mux, fallback);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// The first two pipelined requests of a connection race through
/// `sent`: exactly one of them starts the fallback thread, and that
/// thread reads the reply whose ticket was dropped, so every credit
/// comes back.
#[test]
fn two_first_pipelined_submits_start_exactly_one_reader() {
    let report = Explorer::new(Config::new(2000)).run(|| {
        let (wire, mux) = connection(2, None);
        let started = Arc::new(Mutex::new(Vec::new()));
        let mut hs = Vec::new();
        for keep in [true, false] {
            let (wire, mux, started) = (Arc::clone(&wire), Arc::clone(&mux), Arc::clone(&started));
            hs.push(spawn(move || {
                let (id, ticket) = mux.register(true).expect("live");
                let tag = wire.send(id);
                mux.sent(|| {
                    started.lock().push(start_fallback(&mux));
                    Ok(())
                })
                .expect("the reader starts");
                if keep {
                    let body = mux.wait(ticket).expect("live");
                    assert_eq!(body, tag.to_le_bytes(), "ticket {id} got another's reply");
                }
            }));
        }
        for h in hs {
            h.join();
        }
        every_credit_comes_back(&mux, 2);
        let mut started = std::mem::take(&mut *started.lock());
        assert_eq!(started.len(), 1, "fallback threads started");
        hang_up(&wire, &mux, started.pop().expect("one"));
    });
    explored(report, 1000);
}

fn lost(r: Result<Vec<u8>, NetError>) {
    match r {
        Err(NetError::ConnectionLost(_)) => {}
        other => panic!("expected ConnectionLost, got {other:?}"),
    }
}

/// The server takes two requests, answers neither, and dies. The
/// receive half blocks until both are sent, so one blocking caller
/// leads, reading, while the other is parked behind it or on its way;
/// with a window of two, the submitter of the third request and of a
/// pipelined fourth wait for a slot until one comes back or the end
/// does. All of them end in `ConnectionLost`, whoever got the two
/// credits, and so does the next call.
#[test]
fn eof_reaches_the_leader_the_parked_caller_and_every_submitter_waiting_for_a_slot() {
    let report = Explorer::new(Config::new(4000)).run(|| {
        let (wire, mux, fallback) = rig_dying(2, Some(2));
        let mut hs = Vec::new();
        for pipelined in [false, false, false, true] {
            let (wire, mux) = (Arc::clone(&wire), Arc::clone(&mux));
            hs.push(spawn(move || match mux.register(pipelined) {
                Ok((id, ticket)) if pipelined => {
                    wire.send(id);
                    sent(&mux);
                    drop(ticket);
                }
                Ok((id, ticket)) => {
                    wire.send(id);
                    lost(mux.wait(ticket));
                }
                Err(e) => lost(Err(e)),
            }));
        }
        for h in hs {
            h.join();
        }
        lost(mux.register(false).map(|_| Vec::new()));
        mux.close();
        fallback.join();
    });
    explored(report, 1000);
}
