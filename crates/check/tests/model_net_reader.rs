//! Model checks for `pario_net::ReplyMux`, the client's turn-taking
//! over the one receive half of a connection, against a scripted frame
//! source: every waiter gets exactly its own reply, the receive half is
//! never read by two threads at once, no hand-off is lost (a reply
//! outstanding with no reader parks the run, which the explorer reports
//! as a deadlock), a lone blocking caller always reads for itself, and
//! end-of-stream reaches every waiter and every submitter parked on
//! credits.
#![cfg(pario_check)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use pario_check::{spawn, Condvar, Config, Explorer, JoinHandle, Mutex};
use pario_net::frame::RawFrame;
use pario_net::proto::STATUS_OK;
use pario_net::{FrameSource, NetError, ReplyMux};

thread_local! {
    /// Set on the model's fallback thread, so the script can tell who reads.
    static IS_FALLBACK: Cell<bool> = const { Cell::new(false) };
}

#[derive(Default)]
struct WireState {
    /// Replies the scripted server has sent, in request order.
    frames: VecDeque<u64>,
    closed: bool,
    reading: u32,
    fallback_reads: u32,
}

/// The far end: answers each request as it is sent, echoing its id.
#[derive(Default)]
struct Wire {
    m: Mutex<WireState>,
    arrived: Condvar,
}

impl Wire {
    fn send(&self, id: u64) {
        self.m.lock().frames.push_back(id);
        self.arrived.notify_one();
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
        Ok(w.frames.pop_front().map(|id| RawFrame {
            request_id: id,
            code: STATUS_OK,
            body: id.to_le_bytes().to_vec(),
        }))
    }
}

type Mux = Arc<ReplyMux<Script>>;

fn rig(credits: u32) -> (Arc<Wire>, Mux, JoinHandle) {
    let wire = Arc::new(Wire::default());
    let mux = Arc::new(ReplyMux::new(credits, Script(Arc::clone(&wire))));
    let fallback = {
        let mux = Arc::clone(&mux);
        spawn(move || {
            IS_FALLBACK.set(true);
            mux.run_fallback();
        })
    };
    (wire, mux, fallback)
}

/// One blocking call: register, send, wait, and the reply is this
/// request's own.
fn call(wire: &Wire, mux: &Mux) {
    let (id, ticket) = mux.register(false).expect("live connection");
    wire.send(id);
    let body = mux.wait(ticket).expect("live connection");
    assert_eq!(body, id.to_le_bytes(), "request {id} got another's reply");
}

/// Hang up, and the fallback thread leaves.
fn hang_up(wire: &Wire, mux: &Mux, fallback: JoinHandle) {
    wire.close();
    mux.close();
    fallback.join();
}

/// Two blocking callers of two calls each and a pipelining submitter
/// that abandons the second of its two tickets, through a window of two
/// credits (so somebody parks on credits in most schedules). Covers the
/// second request that arrives while the first caller is mid-read, and
/// the leader that leaves with replies outstanding.
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
                wire.send(id);
                mux.sent();
                let (dropped, abandoned) = mux.register(true).expect("live");
                wire.send(dropped);
                mux.sent();
                let body = mux.wait(kept).expect("live");
                assert_eq!(body, id.to_le_bytes(), "ticket {id} got another's reply");
                drop(abandoned);
            }));
        }
        for h in hs {
            h.join();
        }
        // Every credit comes back, the abandoned ticket's too: somebody
        // reads its reply though nobody is left to wait for it.
        let all: Vec<u64> = (0..2)
            .map(|_| mux.register(false).expect("live").0)
            .collect();
        all.into_iter().for_each(|id| mux.cancel(id));
        hang_up(&wire, &mux, fallback);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 1000,
        "only {} distinct schedules",
        report.distinct
    );
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

/// The server dies without answering: a leading caller, a caller parked
/// behind it, a submitter parked on credits and an abandoned pipelined
/// ticket all end in `ConnectionLost`, whoever got the two credits.
#[test]
fn eof_reaches_every_waiter_and_every_parked_submitter() {
    let lost = |r: Result<Vec<u8>, NetError>| match r {
        Err(NetError::ConnectionLost(_)) => {}
        other => panic!("expected ConnectionLost, got {other:?}"),
    };
    let report = Explorer::new(Config::new(2000)).run(move || {
        let (wire, mux, fallback) = rig(2);
        let mut hs = Vec::new();
        for pipelined in [false, false, false, true] {
            let mux = Arc::clone(&mux);
            hs.push(spawn(move || match mux.register(pipelined) {
                Ok((_, ticket)) if pipelined => {
                    mux.sent();
                    drop(ticket);
                }
                Ok((_, ticket)) => lost(mux.wait(ticket)),
                Err(e) => lost(Err(e)),
            }));
        }
        {
            let wire = Arc::clone(&wire);
            hs.push(spawn(move || wire.close()));
        }
        for h in hs {
            h.join();
        }
        mux.close();
        fallback.join();
        lost(mux.register(false).map(|_| Vec::new()));
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}
