//! The follower role: a warm standby that appends its primary's streamed
//! WAL records into its own per-session logs — byte-for-byte, via
//! `SessionWal::append_raw` — and acks each sequence number only after
//! the append returned, which under `FsyncPolicy::Always` means after the
//! fsync. On `promote` it replays snapshot-then-tail into a full
//! `dime-serve` server (the ordinary recovery path) and answers with the
//! bound address, so a router can redirect traffic with zero
//! closed-session data loss.
//!
//! Replication sockets live on `dime-serve`'s poll loop
//! ([`Admission::serve`] with [`ReplCodec`]), with two fixed settings:
//! **one worker**, which orders `promote` strictly before or after every
//! record (a link has one record in flight anyway, and every append takes
//! the `wals` lock), and **no idle timeout**, since a primary holds its
//! link across quiet periods. A refused frame gets no ack and closes only
//! its own connection (DESIGN.md §9).
//!
//! The follower's data directory is laid out exactly like a primary's
//! (`<data_dir>/sessions/<id>/wal.log` + snapshots), so promotion is
//! nothing special: it is `dime_serve::Server::bind` on a directory that
//! happens to have been written by replication instead of by a local
//! serve loop.

use crate::repl::{ReplCodec, ReplFrame};
use dime_serve::session::lock;
use dime_serve::{Admission, ServeConfig, Server, ServerHandle};
use dime_store::wal::recover;
use dime_store::{
    decode_record, FsyncPolicy, Recovery, SessionWal, StoreConfig, StoreStats, WalOp,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning knobs of a [`Follower`].
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Replication listen address; port `0` picks a free port.
    pub addr: String,
    /// Root of the mirrored store (sessions land under
    /// `<data_dir>/sessions/<id>/`).
    pub data_dir: PathBuf,
    /// Durability of mirrored appends. `Always` is what makes the ack a
    /// durable promise; weaker policies trade that for throughput.
    pub fsync: FsyncPolicy,
    /// Checkpoint cadence of the promoted server's store.
    pub snapshot_every: usize,
    /// Serve address the promoted server binds; port `0` picks a free
    /// port (the real address travels back in the `promote_ack`).
    pub serve_addr: String,
    /// Worker threads of the promoted server (`0` = auto).
    pub workers: usize,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("dime-follower-data"),
            fsync: FsyncPolicy::Always,
            snapshot_every: 256,
            serve_addr: "127.0.0.1:0".to_string(),
            workers: 0,
        }
    }
}

struct Shared {
    config: FollowerConfig,
    admission: Admission,
    wals: Mutex<HashMap<u64, SessionWal>>,
    stats: Arc<StoreStats>,
    promoted: Mutex<Option<Server>>,
    promoted_handle: Mutex<Option<ServerHandle>>,
}

/// A cloneable handle for observing and stopping a running [`Follower`].
#[derive(Clone)]
pub struct FollowerHandle {
    shared: Arc<Shared>,
}

impl FollowerHandle {
    /// Stops the replication loop; if the follower was promoted, also
    /// initiates the promoted server's graceful shutdown.
    pub fn shutdown(&self) {
        self.shared.admission.initiate_shutdown();
        if let Some(h) = lock(&self.shared.promoted_handle).as_ref() {
            h.shutdown();
        }
    }

    /// The promoted server's handle, once a `promote` has been served.
    pub fn promoted(&self) -> Option<ServerHandle> {
        lock(&self.shared.promoted_handle).clone()
    }
}

/// A bound, not-yet-running follower.
pub struct Follower {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Follower {
    /// Binds the replication listener.
    pub fn bind(config: FollowerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::create_dir_all(config.data_dir.join("sessions"))?;
        let serve =
            ServeConfig { workers: 1, idle_timeout: Duration::MAX, ..ServeConfig::default() };
        let shared = Arc::new(Shared {
            config,
            admission: Admission::new(serve, addr),
            wals: Mutex::new(HashMap::new()),
            stats: Arc::new(StoreStats::default()),
            promoted: Mutex::new(None),
            promoted_handle: Mutex::new(None),
        });
        Ok(Self { listener, shared })
    }

    /// The bound replication address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.admission.addr()
    }

    /// A handle for stopping the follower from another thread.
    pub fn handle(&self) -> FollowerHandle {
        FollowerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves replication streams until shutdown — or until a `promote`
    /// order arrives, after which this call *becomes* the promoted
    /// server's `run`: it returns when the promoted server has drained.
    pub fn run(self) -> io::Result<()> {
        let shared = &*self.shared;
        shared.admission.serve(self.listener, &dime_trace::NOOP, &ReplCodec, |frame| {
            handle_frame(frame, shared)
        })?;
        let server = lock(&shared.promoted).take();
        match server {
            Some(server) => server.run(),
            None => Ok(()),
        }
    }
}

/// The follower's request handler: a record is appended and acked, a
/// `promote` ends the replication phase for the whole follower, and
/// everything else is refused (`None`: no ack, connection closed). The
/// primary sees a refused record as a failed round trip and fails open;
/// closing the connection keeps the stream from desynchronizing.
fn handle_frame(frame: &ReplFrame, shared: &Shared) -> Option<ReplFrame> {
    let promoted = lock(&shared.promoted_handle).as_ref().map(ServerHandle::addr);
    match (frame, promoted) {
        // A promoted follower is a primary now; its log is no longer
        // anyone's mirror.
        (ReplFrame::Record { .. }, Some(_)) => None,
        (ReplFrame::Record { session, payload }, None) => apply_record(shared, *session, payload)
            .map(|seq| ReplFrame::Ack { session: *session, seq })
            .map_err(|e| eprintln!("dime-cluster: follower append failed: {e}"))
            .ok(),
        // A second promote order is a router bug; answer with the
        // already-promoted address.
        (ReplFrame::Promote, Some(addr)) => Some(ReplFrame::PromoteAck { addr: addr.to_string() }),
        (ReplFrame::Promote, None) => promote(shared),
        (other, _) => {
            eprintln!("dime-cluster: unexpected replication frame {other:?}");
            None
        }
    }
}

/// Appends one streamed record to the session's mirrored WAL, creating or
/// reopening the log as needed, and returns the sequence number to ack.
/// The ack ordering contract lives here: this function returns only after
/// `append_raw` did, i.e. after the record is as durable as the fsync
/// policy promises.
fn apply_record(shared: &Shared, session: u64, payload: &[u8]) -> io::Result<u64> {
    let (_seq, op) = decode_record(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad record: {e}")))?;
    let is_open = matches!(op, WalOp::Open { .. });
    let is_close = matches!(op, WalOp::Close);
    let mut wals = lock(&shared.wals);
    if is_open || !wals.contains_key(&session) {
        let dir = shared.config.data_dir.join("sessions").join(session.to_string());
        let wal = if is_open {
            // Mirrors the primary's create: a fresh log, stale dir wiped.
            SessionWal::create(&dir, shared.config.fsync, Arc::clone(&shared.stats))?
        } else if dir.exists() {
            // Mid-stream resume (primary recovered and kept streaming):
            // reopen our mirrored prefix and continue from its tail.
            match recover(&dir, shared.config.fsync, Arc::clone(&shared.stats))? {
                Recovery::Live(rec) => rec.wal,
                Recovery::Closed | Recovery::Unrecoverable => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("session {session}: mirrored log is closed or unusable"),
                    ))
                }
            }
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("session {session}: record stream started without an open record"),
            ));
        };
        wals.insert(session, wal);
    }
    let wal = wals.get_mut(&session).ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("session {session} has no mirror"))
    })?;
    let acked = wal.append_raw(payload)?;
    if is_close {
        // The close record is the durable end; recovery sweeps the
        // directory. Dropping the WAL frees the descriptor now.
        wal.sync()?;
        wals.remove(&session);
    }
    Ok(acked)
}

/// Serves a `promote` order: flush and release every mirrored WAL, bind a
/// full discovery server on the mirrored data directory (its bind runs
/// the ordinary snapshot-then-tail recovery), stop admitting replication,
/// and answer with the bound address; [`Follower::run`] then serves the
/// promoted server. A failed bind is refused and leaves the follower
/// replicating.
fn promote(shared: &Shared) -> Option<ReplFrame> {
    for (_, mut wal) in lock(&shared.wals).drain() {
        if let Err(e) = wal.sync() {
            eprintln!("dime-cluster: pre-promotion sync failed: {e}");
        }
    }
    let config = ServeConfig {
        addr: shared.config.serve_addr.clone(),
        workers: shared.config.workers,
        store: Some(StoreConfig {
            data_dir: shared.config.data_dir.clone(),
            fsync: shared.config.fsync,
            snapshot_every: shared.config.snapshot_every,
        }),
        ..ServeConfig::default()
    };
    match Server::bind(config) {
        Ok(server) => {
            let addr = server.local_addr();
            *lock(&shared.promoted_handle) = Some(server.handle());
            *lock(&shared.promoted) = Some(server);
            shared.admission.initiate_shutdown();
            Some(ReplFrame::PromoteAck { addr: addr.to_string() })
        }
        Err(e) => {
            eprintln!("dime-cluster: promotion failed to bind a server: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::{read_repl_frame, write_repl_frame, FollowerLink};
    use dime_store::{encode_record, WalTap};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread::JoinHandle;
    use std::time::Instant;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dime-cluster-{tag}-{}-{n}", std::process::id()))
    }

    fn doc() -> String {
        "{\"schema\": [{\"name\": \"Authors\", \"tokenizer\": {\"list\": \",\"}}]}".to_string()
    }

    const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";

    /// The whole follower lifecycle in one test: stream a session's log
    /// over a real socket, promote, and the promoted server must serve a
    /// discovery that reflects every acked record.
    #[test]
    fn streamed_log_promotes_into_a_serving_replica() {
        let dir = temp_dir("promote");
        let follower = Follower::bind(FollowerConfig {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            ..FollowerConfig::default()
        })
        .expect("bind follower");
        let repl_addr = follower.local_addr();
        let handle = follower.handle();
        let runner = std::thread::spawn(move || follower.run());

        let link = FollowerLink::new(repl_addr.to_string(), Duration::from_secs(5));
        let ops = [
            WalOp::Open { doc: doc(), rules: RULES.into() },
            WalOp::AddEntity { values: vec!["ann, bob".into()] },
            WalOp::AddEntity { values: vec!["ann, bob, carl".into()] },
            WalOp::AddEntity { values: vec!["dora".into()] },
        ];
        for (i, op) in ops.iter().enumerate() {
            let payload = encode_record(i as u64 + 1, op);
            link.record_committed(1, &payload).expect("acked append");
        }

        // Promote over a fresh connection, as the router would.
        let mut ctl = TcpStream::connect(repl_addr).expect("connect for promote");
        ctl.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        write_repl_frame(&mut ctl, &ReplFrame::Promote).expect("send promote");
        let serve_addr = match read_repl_frame(&mut ctl).expect("promote ack") {
            ReplFrame::PromoteAck { addr } => addr,
            other => panic!("expected promote_ack, got {other:?}"),
        };

        let mut client = dime_serve::Client::connect(&serve_addr).expect("connect promoted");
        let report = client.discovery(1).expect("discovery on the replayed session");
        let flagged = report["mis_categorized"].as_array().expect("flagged array");
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0]["Authors"], "dora");

        handle.shutdown();
        runner.join().expect("runner").expect("clean run");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A close record mirrored before the kill must keep the session dead
    /// after promotion — the no-resurrection invariant crosses the
    /// replication boundary.
    #[test]
    fn mirrored_close_stays_closed_after_promotion() {
        let dir = temp_dir("closed");
        let follower = Follower::bind(FollowerConfig {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            ..FollowerConfig::default()
        })
        .expect("bind follower");
        let repl_addr = follower.local_addr();
        let handle = follower.handle();
        let runner = std::thread::spawn(move || follower.run());

        let link = FollowerLink::new(repl_addr.to_string(), Duration::from_secs(5));
        // Session 1 stays live; session 2 closes durably.
        link.record_committed(
            1,
            &encode_record(1, &WalOp::Open { doc: doc(), rules: RULES.into() }),
        )
        .expect("open 1");
        link.record_committed(
            2,
            &encode_record(1, &WalOp::Open { doc: doc(), rules: RULES.into() }),
        )
        .expect("open 2");
        link.record_committed(2, &encode_record(2, &WalOp::Close)).expect("close 2");

        let mut ctl = TcpStream::connect(repl_addr).expect("connect for promote");
        ctl.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        write_repl_frame(&mut ctl, &ReplFrame::Promote).expect("send promote");
        let serve_addr = match read_repl_frame(&mut ctl).expect("promote ack") {
            ReplFrame::PromoteAck { addr } => addr,
            other => panic!("expected promote_ack, got {other:?}"),
        };

        let mut client = dime_serve::Client::connect(&serve_addr).expect("connect promoted");
        assert!(client.stats(Some(1)).is_ok(), "live session must survive");
        match client.stats(Some(2)) {
            Err(dime_serve::ClientError::Server { code, .. }) => {
                assert_eq!(code, dime_serve::ErrorCode::NoSuchSession)
            }
            other => panic!("closed session must stay closed, got {other:?}"),
        }

        handle.shutdown();
        runner.join().expect("runner").expect("clean run");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A record for a session that never streamed an `open` is a protocol
    /// violation the follower rejects (no ack, connection dropped).
    #[test]
    fn orphan_record_is_rejected() {
        let dir = temp_dir("orphan");
        let follower = Follower::bind(FollowerConfig {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            ..FollowerConfig::default()
        })
        .expect("bind follower");
        let repl_addr = follower.local_addr();
        let handle = follower.handle();
        let runner = std::thread::spawn(move || follower.run());

        let link = FollowerLink::new(repl_addr.to_string(), Duration::from_secs(2));
        let orphan = encode_record(5, &WalOp::AddEntity { values: vec!["x".into()] });
        assert!(link.record_committed(42, &orphan).is_err(), "orphan records must not ack");

        handle.shutdown();
        runner.join().expect("runner").expect("clean run");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Binds and runs a follower under a fresh directory; returns the
    /// directory, the replication address, the handle and the runner.
    fn start(tag: &str) -> (PathBuf, SocketAddr, FollowerHandle, JoinHandle<io::Result<()>>) {
        let dir = temp_dir(tag);
        let follower = Follower::bind(FollowerConfig {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            ..FollowerConfig::default()
        })
        .expect("bind follower");
        let (addr, handle) = (follower.local_addr(), follower.handle());
        (dir, addr, handle, std::thread::spawn(move || follower.run()))
    }

    fn open_record() -> Vec<u8> {
        encode_record(1, &WalOp::Open { doc: doc(), rules: RULES.into() })
    }

    fn add_record(seq: u64, value: &str) -> Vec<u8> {
        encode_record(seq, &WalOp::AddEntity { values: vec![value.into()] })
    }

    /// The replication cap is the store's payload cap, not the JSON
    /// protocol's frame cap: a record over 1 MiB is acked.
    #[test]
    fn record_over_the_json_frame_cap_is_acked() {
        let (dir, addr, handle, runner) = start("large");
        let link = FollowerLink::new(addr.to_string(), Duration::from_secs(10));
        link.record_committed(1, &open_record()).expect("open");
        let big = add_record(2, &"x".repeat(dime_serve::DEFAULT_MAX_FRAME_BYTES + 4096));
        assert!(big.len() > dime_serve::DEFAULT_MAX_FRAME_BYTES);
        link.record_committed(1, &big).expect("a record over 1 MiB must be acked");
        link.record_committed(1, &add_record(3, "ann")).expect("the link keeps streaming");

        handle.shutdown();
        runner.join().expect("runner").expect("clean run");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Promotion ends mirroring: a record pipelined behind the `promote`
    /// on its connection, or sent on a link held from before, is never
    /// acked and never reaches the promoted server's sessions — not even
    /// as a log that a later recovery would bring back.
    #[test]
    fn record_after_promote_is_refused() {
        let (dir, addr, handle, runner) = start("late");
        let link = FollowerLink::new(addr.to_string(), Duration::from_secs(2));
        link.record_committed(1, &open_record()).expect("open");
        link.record_committed(1, &add_record(2, "ann, bob")).expect("add");

        let mut ctl = TcpStream::connect(addr).expect("connect for promote");
        ctl.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        write_repl_frame(&mut ctl, &ReplFrame::Promote).expect("send promote");
        let late = ReplFrame::Record { session: 2, payload: open_record() };
        write_repl_frame(&mut ctl, &late).expect("send a record behind the promote");
        let serve_addr = match read_repl_frame(&mut ctl).expect("promote ack") {
            ReplFrame::PromoteAck { addr } => addr,
            other => panic!("expected promote_ack, got {other:?}"),
        };
        let mut rest = Vec::new();
        assert_eq!(ctl.read_to_end(&mut rest).expect("closed, not timed out"), 0, "no ack");
        assert!(link.record_committed(1, &add_record(3, "dora")).is_err(), "no ack");

        let mut client = dime_serve::Client::connect(&serve_addr).expect("connect promoted");
        let stats = client.stats(Some(1)).expect("stats of the promoted session");
        assert_eq!(stats["entities"], 1, "only records acked before the promote may land");
        assert!(client.stats(Some(2)).is_err(), "a session opened after the promote is unknown");
        assert!(!dir.join("sessions").join("2").exists(), "and has no log to recover");

        handle.shutdown();
        runner.join().expect("runner").expect("clean run");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A refused frame closes its own connection only: one that fails its
    /// CRC, and a well-formed record the handler refuses (no `open`
    /// before it), get no ack and their connections close at once, while
    /// another link keeps streaming.
    #[test]
    fn refused_frames_close_only_their_connection() {
        let (dir, addr, handle, runner) = start("corrupt");
        let link = FollowerLink::new(addr.to_string(), Duration::from_secs(5));
        link.record_committed(2, &open_record()).expect("open on the good link");

        let mut corrupt = Vec::new();
        write_repl_frame(&mut corrupt, &ReplFrame::Record { session: 1, payload: open_record() })
            .expect("encode");
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let mut orphan = Vec::new();
        write_repl_frame(
            &mut orphan,
            &ReplFrame::Record { session: 3, payload: add_record(1, "x") },
        )
        .expect("encode");
        for frame in [corrupt, orphan] {
            let mut bad = TcpStream::connect(addr).expect("connect");
            bad.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            bad.write_all(&frame).expect("send the refused frame");
            let mut rest = Vec::new();
            assert_eq!(bad.read_to_end(&mut rest).expect("closed, not timed out"), 0, "no ack");
        }

        link.record_committed(2, &add_record(2, "ann")).expect("the good link is still acked");

        handle.shutdown();
        runner.join().expect("runner").expect("clean run");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// No idle timeout does not mean no shutdown: an idle link still held
    /// open does not keep `run` from returning.
    #[test]
    fn shutdown_returns_promptly_with_an_idle_link_open() {
        let (dir, addr, handle, runner) = start("idle");
        let link = FollowerLink::new(addr.to_string(), Duration::from_secs(5));
        link.record_committed(1, &open_record()).expect("open");

        let started = Instant::now();
        handle.shutdown();
        while !runner.is_finished() {
            assert!(started.elapsed() < Duration::from_secs(1), "run must return within 1 s");
            std::thread::sleep(Duration::from_millis(5));
        }
        runner.join().expect("runner").expect("clean run");
        drop(link);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
