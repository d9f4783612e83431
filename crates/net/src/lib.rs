//! pario-net: a framed wire protocol and network service layer in
//! front of `pario-server`.
//!
//! The paper's file concepts assume the I/O system is a *service*:
//! compute processes on other nodes reach the file system through
//! messages, not shared memory. This crate supplies that boundary for
//! the in-process [`Server`](pario_server::Server):
//!
//! * [`wire`] / [`proto`] — a small length-prefixed, versioned binary
//!   codec (no serde, no async runtime) carrying the full session
//!   surface: every file organization's open, read, write and cursor
//!   operations, SS shared-cursor claims, partition claims, and GDA
//!   byte-range locks, plus a lossless encoding of the typed
//!   `ServerError` taxonomy so remote callers match on the very same
//!   variants.
//! * [`frame`] — framing, bounds-checked lengths, and the handshake
//!   that grants each connection its flow-control credits.
//! * [`NetServer`] — a listener (TCP or Unix-domain) with **one**
//!   thread per connection, which decodes, executes and replies. A TCP
//!   server also listens on a Unix-domain **lane** that its welcome
//!   names, and a [`NetClient::connect_tcp`] from the same host moves
//!   onto it (`NetClient::transport` tells where a connection ended
//!   up). Each connection multiplexes onto one `Session`, so the
//!   existing bounded admission and `ServerStats` remain the
//!   backpressure story; records are read straight into the
//!   connection's output buffer and a reply frame leaves in one
//!   `write`.
//! * [`NetClient`] — the remote mirror of `Session`: typed handles
//!   ([`RemoteSeq`], [`RemoteSs`], [`RemotePartition`],
//!   [`RemoteInterleaved`], [`RemoteDirect`]) with pipelined submission
//!   under the credit window. A blocking call reads its reply on the
//!   calling thread ([`ReplyMux`] decides who reads otherwise).
//!
//! Concurrency follows the workspace rules: locks are
//! `pario_check`-ranked (`net.credits` < `net.replies` < `net.send`),
//! threads are named, and every blocking wait has a shutdown path that
//! unblocks it (socket shutdown wakes whoever is in `read` or `write`).

#![warn(missing_docs)]

pub mod client;
pub mod credits;
pub mod error;
pub mod frame;
pub mod proto;
pub mod reader;
pub mod server;
pub mod sock;
pub mod wire;

pub use client::{
    NetClient, Pending, RemoteDirect, RemoteInterleaved, RemoteLock, RemotePartition, RemoteSeq,
    RemoteSs, SsReadTicket,
};
pub use credits::CreditWindow;
pub use error::{NetError, Result};
pub use frame::Grant;
pub use proto::StatsSummary;
pub use reader::{FrameSource, ReplyMux, Ticket};
pub use server::{NetConfig, NetServer};
pub use sock::{Sock, Transport};
