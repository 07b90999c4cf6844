#![deny(unsafe_code)] // dime-check: allow(forbid-unsafe-drift) — poll::sys scope-allows syscalls
//! A concurrent discovery service: many live groups, each backed by the
//! incremental DIME engine, served over a newline-delimited JSON protocol
//! on plain TCP — `std::net`, one epoll-driven admission thread, and a
//! verify pool of scoped threads, no async runtime.
//!
//! The moving parts:
//!
//! * [`protocol`](crate::protocol) — the framed request/response
//!   vocabulary ([`Request`], [`Response`], [`ErrorCode`]) and the
//!   size-capped [`FrameReader`], shared by server and client;
//! * [`Admission`] — the one serving path: a non-blocking
//!   admission/framing layer (`poll.rs`, a zero-dependency epoll
//!   readiness loop) feeding a fixed worker pool through a bounded
//!   queue, with per-request panic isolation, admission limits,
//!   backpressure (the retryable `overloaded` error), idle timeouts,
//!   in-order pipelined replies, and graceful drain-on-shutdown. It is
//!   parameterised by the wire format ([`Codec`]; [`JsonLines`] here)
//!   and the request handler, so `dime-cluster`'s router and follower
//!   run on it too;
//! * [`Server`] — [`Admission::serve`] with the session handler over a
//!   sharded [`SessionStore`](session::SessionStore); every request,
//!   `add_entities` included, is one op through one handler;
//! * [`Client`] — a small blocking client library;
//! * [`metrics`](crate::metrics) — per-session and global counters
//!   surfaced by the `stats` operation;
//! * [`persist`](crate::persist) — the glue over `dime-store`'s WAL:
//!   each session's durable mirror, checkpoint cadence, and the
//!   crash-recovery path that rebuilds live engines at bind time
//!   (enabled by [`ServeConfig::store`], off by default).
//!
//! Start a server and talk to it:
//!
//! ```
//! use dime_serve::{Client, ServeConfig, Server};
//! use serde_json::json;
//!
//! let server = Server::bind(ServeConfig { workers: 2, ..ServeConfig::default() })?;
//! let addr = server.local_addr();
//! let runner = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let session = client.create_session(
//!     &json!({"schema": [{"name": "Authors", "tokenizer": {"list": ","}}]}),
//!     "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0",
//! )?;
//! client.add_entities(session, &[
//!     json!(["ann, bob"]),
//!     json!(["ann, bob, carl"]),
//!     json!(["dora"]),
//! ])?;
//! let report = client.discovery(session)?;
//! assert_eq!(report["mis_categorized"][0]["id"], 2);
//!
//! client.shutdown()?;              // drains in-flight work, then stops
//! runner.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same group/rules formats drive the `dime serve` / `dime client`
//! CLI subcommands; `examples/streaming_profile.rs` in the root crate
//! walks the underlying incremental engine directly.

#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod persist;
mod poll;
mod pool;
pub mod protocol;
mod server;
pub mod session;

pub use client::{Client, ClientError};
pub use pool::{Admission, Codec, Reject, Split};
pub use protocol::{
    encode_frame, polarity_str, ErrorCode, Frame, FrameReader, JsonLines, ProtocolError, Request,
    Response, RuleAction, DEFAULT_MAX_FRAME_BYTES,
};
pub use server::{ServeConfig, Server, ServerHandle, WalTapHandle};
