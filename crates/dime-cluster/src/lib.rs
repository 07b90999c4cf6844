//! # dime-cluster — sharded discovery with replicated warm failover
//!
//! A thin clustering layer over `dime-serve`/`dime-store`, built from
//! three roles that all speak existing wire formats (no new protocol
//! stack — the framed JSON-lines request protocol and the dime-store WAL
//! frame encoding carry everything):
//!
//! - **Router** ([`Router`]): speaks the dime-serve protocol to clients,
//!   places each session on one of N shards by consistent hashing over
//!   router-assigned session ids ([`Ring`]), proxies session-scoped
//!   operations through capped per-shard connection pools, and fans
//!   `stats`/`trace` out to every shard, merging counters by summation
//!   and histograms bucket-wise.
//! - **Shard**: an ordinary persistent dime-serve server whose committed
//!   WAL frames are additionally streamed — synchronously, ack-by-seq —
//!   to a follower through a [`repl::FollowerLink`] WAL tap.
//! - **Follower** ([`Follower`]): appends the streamed frames to its own
//!   per-session WALs, acking a record only after its own write (fsynced
//!   under `--fsync always`) succeeds, and on `promote` replays
//!   snapshot-then-tail recovery into a full serving replica at the same
//!   data — zero closed-session data loss, bit-identical discovery.
//!   Like the router, it serves its socket on `dime-serve`'s one poll loop
//!   ([`dime_serve::Admission`]), with the [`repl::ReplCodec`] wire format.
//!
//! The promotion invariant that makes failover safe: the follower never
//! acks a sequence number it has not durably applied, and the primary
//! never reports a WAL append as committed until the follower acked it.
//! Whatever a client saw committed therefore exists on whichever side
//! survives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod follower;
pub mod repl;
pub mod ring;
pub mod router;

pub use follower::{Follower, FollowerConfig, FollowerHandle};
pub use repl::{FollowerLink, ReplFrame};
pub use ring::{Ring, DEFAULT_VNODES};
pub use router::{HealthConfig, Router, RouterConfig, RouterHandle, ShardSpec};
