//! The follower role: a warm standby that appends its primary's streamed
//! WAL records into its own per-session logs — byte-for-byte, via
//! `SessionWal::append_raw` — and acks each sequence number only after
//! the append returned, which under `FsyncPolicy::Always` means after the
//! fsync. On `promote` it replays snapshot-then-tail into a full
//! `dime-serve` server (the ordinary recovery path) and answers with the
//! bound address, so a router can redirect traffic with zero
//! closed-session data loss.
//!
//! The follower's data directory is laid out exactly like a primary's
//! (`<data_dir>/sessions/<id>/wal.log` + snapshots), so promotion is
//! nothing special: it is `dime_serve::Server::bind` on a directory that
//! happens to have been written by replication instead of by a local
//! serve loop.

use crate::repl::{read_repl_frame, write_repl_frame, ReplFrame};
use dime_serve::{ServeConfig, Server, ServerHandle};
use dime_store::wal::recover;
use dime_store::{
    decode_record, FsyncPolicy, Recovery, SessionWal, StoreConfig, StoreStats, WalOp,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// How often an idle replication connection re-checks the shutdown
    /// flag.
    pub poll_interval: Duration,
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
            poll_interval: Duration::from_millis(25),
        }
    }
}

struct Shared {
    config: FollowerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    promoting: AtomicBool,
    wals: Mutex<HashMap<u64, SessionWal>>,
    stats: Arc<StoreStats>,
    promoted: Mutex<Option<Server>>,
    promoted_handle: Mutex<Option<ServerHandle>>,
}

impl Shared {
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A cloneable handle for observing and stopping a running [`Follower`].
#[derive(Clone)]
pub struct FollowerHandle {
    shared: Arc<Shared>,
}

impl FollowerHandle {
    /// The bound replication address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops the replication loop; if the follower was promoted, also
    /// initiates the promoted server's graceful shutdown.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
        let handle = self.shared.promoted_handle.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = handle.as_ref() {
            h.shutdown();
        }
    }

    /// The promoted server's handle, once a `promote` has been served.
    pub fn promoted(&self) -> Option<ServerHandle> {
        self.shared.promoted_handle.lock().unwrap_or_else(|e| e.into_inner()).clone()
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
        let shared = Arc::new(Shared {
            config,
            addr,
            shutdown: AtomicBool::new(false),
            promoting: AtomicBool::new(false),
            wals: Mutex::new(HashMap::new()),
            stats: Arc::new(StoreStats::default()),
            promoted: Mutex::new(None),
            promoted_handle: Mutex::new(None),
        });
        Ok(Self { listener, shared })
    }

    /// The bound replication address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for stopping the follower from another thread.
    pub fn handle(&self) -> FollowerHandle {
        FollowerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves replication streams until shutdown — or until a `promote`
    /// order arrives, after which this call *becomes* the promoted
    /// server's `run`: it returns when the promoted server has drained.
    pub fn run(self) -> io::Result<()> {
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&self.shared);
                scope.spawn(move || serve_repl_conn(stream, &shared));
            }
        });
        drop(self.listener);
        let server = self.shared.promoted.lock().unwrap_or_else(|e| e.into_inner()).take();
        match server {
            Some(server) => server.run(),
            None => Ok(()),
        }
    }
}

/// Serves one replication connection: records are appended and acked;
/// a `promote` ends the replication phase for the whole follower.
fn serve_repl_conn(stream: TcpStream, shared: &Shared) {
    let mut stream = stream;
    if stream.set_nodelay(true).is_err() {
        return;
    }
    loop {
        let frame = match read_frame_polled(&mut stream, shared) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(_) => return,
        };
        match frame {
            ReplFrame::Record { session, payload } => {
                if shared.promoting.load(Ordering::SeqCst) {
                    // A promoted follower is a primary now; its log is no
                    // longer anyone's mirror.
                    return;
                }
                match apply_record(shared, session, &payload) {
                    Ok(seq) => {
                        if write_repl_frame(&mut stream, &ReplFrame::Ack { session, seq }).is_err()
                        {
                            return;
                        }
                    }
                    Err(e) => {
                        // No ack: the primary sees the failed round trip
                        // and fails open. Dropping the connection keeps
                        // the stream from desynchronizing.
                        eprintln!("dime-cluster: follower append failed: {e}");
                        return;
                    }
                }
            }
            ReplFrame::Promote => {
                promote(shared, &mut stream);
                return;
            }
            other => {
                eprintln!("dime-cluster: unexpected replication frame {other:?}");
                return;
            }
        }
    }
}

/// Waits for the next frame, re-checking the shutdown flag between read
/// polls. Only the wait for the *first* byte is polled; once a frame has
/// started arriving the rest is read with a generous timeout, so a poll
/// boundary can never split a frame. The frame itself decodes through
/// [`read_repl_frame`], fed the consumed byte ahead of the stream.
fn read_frame_polled(stream: &mut TcpStream, shared: &Shared) -> io::Result<Option<ReplFrame>> {
    use std::io::Read;
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    read_repl_frame(&mut first.as_slice().chain(&*stream)).map(Some)
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
    let mut wals = shared.wals.lock().unwrap_or_else(|e| e.into_inner());
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
/// the ordinary snapshot-then-tail recovery), answer with the bound
/// address, and hand the server to [`Follower::run`].
fn promote(shared: &Shared, stream: &mut TcpStream) {
    if shared.promoting.swap(true, Ordering::SeqCst) {
        // A second promote order is a router bug; answer with the
        // already-promoted address if we have one.
        let handle = shared.promoted_handle.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = handle.as_ref() {
            let _ = write_repl_frame(stream, &ReplFrame::PromoteAck { addr: h.addr().to_string() });
        }
        return;
    }
    {
        // dime-check: allow(lock-order) — the promoted_handle guard above lives inside an always-returning branch and this wals guard inside this block; the two are never held together
        let mut wals = shared.wals.lock().unwrap_or_else(|e| e.into_inner());
        for wal in wals.values_mut() {
            if let Err(e) = wal.sync() {
                eprintln!("dime-cluster: pre-promotion sync failed: {e}");
            }
        }
        wals.clear();
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
            *shared.promoted_handle.lock().unwrap_or_else(|e| e.into_inner()) =
                Some(server.handle());
            *shared.promoted.lock().unwrap_or_else(|e| e.into_inner()) = Some(server);
            let _ = write_repl_frame(stream, &ReplFrame::PromoteAck { addr: addr.to_string() });
            // Stop accepting replication; `run` switches to serving.
            shared.initiate_shutdown();
        }
        Err(e) => {
            eprintln!("dime-cluster: promotion failed to bind a server: {e}");
            shared.promoting.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::{read_repl_frame, FollowerLink};
    use dime_store::{encode_record, WalTap};
    use std::sync::atomic::AtomicU64;

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
}
