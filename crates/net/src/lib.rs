//! pario-net: a framed wire protocol and network service layer in
//! front of `pario-server`.
//!
//! The paper's file concepts assume the I/O system is a *service*:
//! compute processes on other nodes reach the file system through
//! messages, not shared memory. This crate supplies that boundary for
//! the in-process [`Server`](pario_server::Server):
//!
//! * [`proto`] over [`wire`] (the tree's one byte codec, shared with
//!   the file system's meta region) — a small length-prefixed,
//!   versioned binary protocol (no serde, no async runtime) carrying
//!   the session surface as operations, not organizations: one `Open`
//!   fixes a handle's view of the file (the paper's organizations are
//!   views), and one set of verbs — next record, record *r*, finish,
//!   rewind, SS claims, GDA byte-range locks — serves every view that
//!   offers them, plus a lossless encoding of the typed `ServerError`
//!   taxonomy so remote callers match on the very same variants. The
//!   server decides, from the handle, what each verb means and whether
//!   a payload fits it.
//! * [`frame`] — framing, bounds-checked lengths, and the handshake
//!   that grants each connection its flow-control credits.
//! * [`NetServer`] — a listener (TCP or Unix-domain) with **one**
//!   thread per connection, which decodes, executes and replies. A TCP
//!   server also listens on a Unix-domain **lane** that its welcome
//!   names, and a [`NetClient::connect_tcp`] from the same host moves
//!   onto it (`NetClient::transport` tells where a connection ended
//!   up). Each connection multiplexes onto one `Session`, so the
//!   existing bounded admission and `ServerStats` remain the
//!   backpressure story. An `Open` is one `Session::open(name, view)`,
//!   and each verb checks its payload size, calls the
//!   [`Handle`](pario_server::Handle) of the same name and encodes its
//!   reply: which views serve a verb is the handle's to say, written
//!   once in `pario-server`. Records are read straight into the
//!   connection's output buffer and a reply frame leaves in one
//!   `write`.
//! * [`NetClient`] — the remote side of `Session::open`:
//!   [`NetClient::open`] takes a name and a view and returns one
//!   [`RemoteHandle`] for every view, whose verbs are `Handle`'s — every
//!   next-record and next-block reply names its first record, and a
//!   block reply's length gives its count — plus pipelined
//!   [`submit_read_next`](RemoteHandle::submit_read_next) under the
//!   credit window. [`RemoteDirect`] ([`NetClient::open_direct`]) adds
//!   a GDA handle's byte-range locks. A blocking call reads its reply
//!   on the calling thread ([`ReplyMux`] decides who reads otherwise).
//!
//! Concurrency follows the workspace rules: locks are
//! `pario_check`-ranked (`net.replies` < `net.send`; the credit window
//! is the reply table's slots), threads are named, and every blocking
//! wait has a shutdown path that unblocks it (socket shutdown wakes
//! whoever is in `read` or `write`).

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod frame;
pub mod proto;
pub mod reader;
pub mod server;
pub mod sock;

/// The byte codec under [`proto`] and [`frame`], shared with the file
/// system's meta region: [`pario_disk::wire`].
pub use pario_disk::wire;

pub use client::{NetClient, Pending, RemoteDirect, RemoteHandle, RemoteLock};
pub use error::{NetError, Result};
pub use reader::{FrameSource, ReplyMux, Ticket};
pub use server::{NetConfig, NetServer};
pub use sock::{Sock, Transport};
