//! Cluster failover end-to-end, over real processes: a router in front of
//! two `dime cluster-shard` processes, one of which streams its WAL to a
//! `--follower` process. The replicated shard is killed with SIGKILL
//! mid-traffic; the router must promote the follower, every session
//! committed before the kill must serve a bit-identical discovery
//! afterwards, sessions created during the outage
//! window must either succeed or fail with the retryable `unavailable`,
//! and a session closed before the kill must stay closed.

use dime::serve::{Client, ClientError, ErrorCode};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dime-cluster-e2e-{tag}-{}", std::process::id()))
}

/// A spawned `dime` process, killed and reaped when dropped: a failed
/// assertion unwinds through it, so no orphan outlives the test holding
/// its inherited stderr open.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        // A process the test already reaped makes both calls no-ops.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for Proc {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Proc {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

/// Spawns one `dime` subcommand and parses the announced address off the
/// end of its first stdout line.
fn spawn_announced(args: &[&str]) -> (Proc, SocketAddr) {
    let mut child = Proc(
        Command::new(env!("CARGO_BIN_EXE_dime"))
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dime"),
    );
    let mut announce = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout"))
        .read_line(&mut announce)
        .expect("read announce line");
    let addr = announce.trim().rsplit(' ').next().expect("address in announce");
    (child, addr.parse().expect("parse address"))
}

fn group_doc(first_author_pair: &str) -> Value {
    json!({
        "schema": [{"name": "Authors", "tokenizer": {"list": ","}}],
        "entities": [[first_author_pair]]
    })
}

#[test]
fn sigkill_one_shard_promotes_its_follower_without_losing_sessions() {
    let dirs = [temp_dir("s0"), temp_dir("s1"), temp_dir("f0")];
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let [dir_s0, dir_s1, dir_f0] = &dirs;

    // ---- Topology: follower first (the shard needs its address).
    let (mut follower, f0) = spawn_announced(&[
        "cluster-shard",
        "--follower",
        "--data-dir",
        dir_f0.to_str().expect("utf-8 dir"),
        "--fsync",
        "always",
        "--workers",
        "3",
    ]);
    let f0_repl = f0.to_string();
    let (mut shard0, s0) = spawn_announced(&[
        "cluster-shard",
        "--data-dir",
        dir_s0.to_str().expect("utf-8 dir"),
        "--fsync",
        "always",
        "--snapshot-every",
        "5",
        "--workers",
        "3",
        "--replicate-to",
        &f0_repl,
    ]);
    let (mut shard1, s1) = spawn_announced(&[
        "cluster-shard",
        "--data-dir",
        dir_s1.to_str().expect("utf-8 dir"),
        "--fsync",
        "always",
        "--snapshot-every",
        "5",
        "--workers",
        "3",
    ]);
    let shard0_spec = format!("{s0},{f0_repl}");
    let (mut router, addr) = spawn_announced(&[
        "cluster-router",
        "--shard",
        &shard0_spec,
        "--shard",
        &s1.to_string(),
        "--pool",
        "2",
        "--probe-interval-ms",
        "50",
        "--fail-threshold",
        "2",
        "--probe-timeout-ms",
        "250",
        "--promote-timeout-ms",
        "10000",
    ]);

    // ---- Traffic: a dozen sessions spread across both shards, each with
    // its own distinct data, plus one session closed before the kill.
    let mut client = Client::connect(addr).expect("connect router");
    let mut sessions = Vec::new();
    for i in 0..12u64 {
        let rid =
            client.create_session(&group_doc(&format!("ann{i}, bob{i}")), RULES).expect("create");
        client
            .add_entities(
                rid,
                &[
                    json!([format!("ann{i}, bob{i}, carl{i}")]),
                    json!([format!("bob{i}, carl{i}")]),
                    json!([format!("dora{i}")]),
                ],
            )
            .expect("add");
        sessions.push(rid);
    }
    let closed = client.create_session(&group_doc("ann, bob"), RULES).expect("create closed");
    client.close_session(closed).expect("close");

    let mut before = Vec::new();
    for &rid in &sessions {
        let report = client.discovery(rid).expect("pre-kill discovery");
        assert_eq!(
            report["mis_categorized"].as_array().expect("flagged").len(),
            1,
            "sanity: each session flags its loner"
        );
        before.push(report);
    }
    let stats = client.stats(None).expect("stats");
    assert_eq!(stats["cluster"]["sessions_routed"], 12);
    assert_eq!(stats["cluster"]["failovers"], 0);

    // ---- Kill the replicated shard without warning.
    shard0.kill().expect("SIGKILL shard0");
    shard0.wait().expect("reap shard0");

    // In-flight opens during the outage window: every attempt either
    // succeeds (routed to the live shard, or to the promoted follower)
    // or fails with the retryable `unavailable` — never anything else.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut created_during_outage = Vec::new();
    let mut saw_unavailable = false;
    while created_during_outage.len() < 4 {
        assert!(Instant::now() < deadline, "outage-window creates never drained");
        match client.create_session(&group_doc("ann, bob"), RULES) {
            Ok(rid) => created_during_outage.push(rid),
            Err(ClientError::Server { code: ErrorCode::Unavailable, .. }) => {
                saw_unavailable = true;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(other) => panic!("outage-window create failed non-retryably: {other}"),
        }
    }

    // ---- Wait for the router to report the promotion.
    let mut failovers = 0;
    while failovers != 1 {
        assert!(Instant::now() < deadline, "router never promoted the follower");
        let stats = client.stats(None).expect("stats during failover");
        failovers = stats["cluster"]["failovers"].as_u64().unwrap_or(0);
        if failovers != 1 {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    // ---- Zero closed-session data loss: every pre-kill session serves a
    // bit-identical discovery after promotion.
    for (rid, before) in sessions.iter().zip(&before) {
        let after = client.discovery(*rid).expect("post-failover discovery");
        assert_eq!(&after, before, "session {rid} must survive failover bit-identically");
    }
    match client.discovery(closed) {
        Err(ClientError::Server { code: ErrorCode::NoSuchSession, .. }) => {}
        other => panic!("closed session must stay closed across failover, got {other:?}"),
    }
    for rid in created_during_outage {
        client.discovery(rid).expect("outage-window session must stay usable");
    }
    // The kill genuinely interrupted traffic on some attempt, or every
    // create happened to route to the live shard — either is legal; log
    // which one this run exercised.
    if !saw_unavailable {
        eprintln!("note: no create hit the outage window on this run");
    }

    // New sessions keep working against the promoted topology.
    let late =
        client.create_session(&group_doc("late, pair"), RULES).expect("post-failover create");
    client.close_session(late).expect("close late");

    // ---- Teardown: stop the promoted replica (its serve address is the
    // shard slot's current address), the surviving shard, and the router.
    let stats = client.stats(None).expect("final stats");
    assert_eq!(stats["cluster"]["shards"][0]["failovers"], 1);
    let promoted_addr =
        stats["cluster"]["shards"][0]["addr"].as_str().expect("promoted addr").to_string();
    assert_ne!(promoted_addr, s0.to_string(), "slot 0 must point at the replica, not the corpse");
    Client::connect(promoted_addr.as_str())
        .expect("connect promoted replica")
        .shutdown()
        .expect("shutdown replica");
    Client::connect(s1).expect("connect shard1").shutdown().expect("shutdown shard1");
    client.shutdown().expect("shutdown router");
    follower.wait().expect("follower exits");
    shard1.wait().expect("shard1 exits");
    router.wait().expect("router exits");
    for d in &dirs {
        std::fs::remove_dir_all(d).expect("cleanup");
    }
}

/// The router serves on `dime-serve`'s admission loop: one poll thread
/// holds every idle client connection, so 64 held connections leave the
/// process at its derived worker count (`2 × shards × pool`) plus the
/// poll thread, the health prober and a small margin — not one thread
/// each.
#[test]
fn router_holds_idle_connections_on_a_fixed_thread_count() {
    const POOL: usize = 2;
    const WORKERS: usize = 2 * POOL;
    const HELD: usize = 64;
    let (mut shard, s0) = spawn_announced(&["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    let (mut router, addr) = spawn_announced(&[
        "cluster-router",
        "--shard",
        &s0.to_string(),
        "--pool",
        &POOL.to_string(),
    ]);
    let status = format!("/proc/{}/status", router.id());
    let threads = || -> Option<u64> {
        let text = std::fs::read_to_string(&status).ok()?;
        text.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|n| n.trim().parse().ok())
    };

    let mut held = Vec::with_capacity(HELD);
    for _ in 0..HELD {
        let mut client = Client::connect(addr).expect("connect router");
        client.ping().expect("ping through router");
        held.push(client);
    }
    match threads() {
        Some(n) => assert!(
            n <= (WORKERS + 4) as u64,
            "router runs {n} threads holding {HELD} idle connections; \
             expected at most {WORKERS} workers + 4"
        ),
        None => eprintln!("note: {status} unreadable; skipping the thread-count check"),
    }
    let stats = held[0].stats(None).expect("stats");
    assert!(stats["cluster"]["connections"].as_u64().expect("router connections") >= HELD as u64);

    drop(held);
    Client::connect(s0).expect("connect shard").shutdown().expect("shutdown shard");
    Client::connect(addr).expect("connect router").shutdown().expect("shutdown router");
    shard.wait().expect("shard exits");
    router.wait().expect("router exits");
}

/// The follower serves replication on the same poll loop: 32 held
/// replication connections, each with an acked record behind it, leave
/// the process at its poll thread, its one worker and a small margin —
/// not one thread per connection.
#[test]
fn follower_holds_replication_connections_on_a_fixed_thread_count() {
    use dime::cluster::FollowerLink;
    use dime::store::{encode_record, WalOp, WalTap};
    const HELD: u64 = 32;
    let dir = temp_dir("follower-threads");
    let dir_arg = dir.to_str().expect("utf-8 temp dir").to_string();
    let (follower, repl) =
        spawn_announced(&["cluster-shard", "--follower", "--data-dir", &dir_arg]);
    let status = format!("/proc/{}/status", follower.id());
    let threads = || -> Option<u64> {
        let text = std::fs::read_to_string(&status).ok()?;
        text.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|n| n.trim().parse().ok())
    };

    let doc = json!({"schema": [{"name": "Authors", "tokenizer": {"list": ","}}]}).to_string();
    let open = encode_record(1, &WalOp::Open { doc, rules: RULES.into() });
    let links: Vec<FollowerLink> = (1..=HELD)
        .map(|session| {
            let link = FollowerLink::new(repl.to_string(), Duration::from_secs(5));
            link.record_committed(session, &open).expect("open acked over a held connection");
            link
        })
        .collect();
    match threads() {
        Some(n) => assert!(
            n <= 6,
            "follower runs {n} threads holding {HELD} replication connections; expected at most 6"
        ),
        None => eprintln!("note: {status} unreadable; skipping the thread-count check"),
    }

    // An unpromoted follower has no stop op: the guard kills it.
    drop(links);
    drop(follower);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
