//! `exp_cluster` — clustering experiments for the sharded discovery
//! service: durable-session throughput as the shard count scales, and
//! failover time-to-first-success when a replicated shard dies.
//!
//! Part 1 runs an in-process cluster (every shard a real `dime-serve`
//! server with `--fsync always` durability, fronted by a consistent-hash
//! router) at 1/2/4/8 shards and drives 2 client threads per shard
//! through full session lifecycles (create, two entity batches, close).
//! The baseline is a single server addressed directly, no router.
//!
//! Every server — baseline included — carries the deployment's actual
//! durability contract: each committed WAL record is synchronously
//! replicated to a follower and acknowledged before the request returns.
//! The follower ack is modeled by a [`dime_store::WalTap`] that sleeps
//! for a configurable round trip (`--ack-us`, default 2000µs ≈ a
//! cross-failure-domain TCP round trip plus the follower's fsync); the
//! tap rides the same `ServeConfig::replication` hook a real
//! [`FollowerLink`] uses. Modeling the ack matters because on a VM with
//! a write-back-cached disk, local fsync is ~0.1ms and the sweep would
//! otherwise measure nothing but single-core JSON parsing. Under the
//! replication contract a session's records serialize behind one ack
//! stream, so a single node is bound by `workers` concurrent streams —
//! and sharding multiplies the streams, which is the effect measured
//! here.
//!
//! Part 2 stands up a primary with a *real* synchronous WAL-streaming
//! follower, kills the primary under a probing router, and measures the
//! wall-clock gap from the kill to the first successful request served
//! after the outage was observed (i.e. by the promoted follower).
//!
//! Flags: `--lifecycles N` sessions per client (default 20),
//! `--max-shards N` cap on the shard sweep (default 8),
//! `--ack-us N` simulated follower ack round trip in µs (default 2000),
//! `--out PATH` JSON summary (default `results/BENCH_cluster.json`).

use dime_bench::{arg_or, secs, Table};
use dime_cluster::{
    Follower, FollowerConfig, FollowerLink, HealthConfig, Router, RouterConfig, RouterHandle,
    ShardSpec,
};
use dime_serve::{Client, ServeConfig, Server, ServerHandle, WalTapHandle};
use dime_store::{FsyncPolicy, StoreConfig};
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";
const WORKERS_PER_SHARD: usize = 4;
const CLIENTS_PER_SHARD: usize = 2;
/// Router connections per shard: enough headroom over the 2 steady
/// clients per shard that a momentary pile-up of sessions hashing to the
/// same shard doesn't serialize the whole fleet.
const POOL_PER_SHARD: usize = 3;
/// Entity batches appended per session; each row is one fsynced,
/// synchronously replicated WAL record, so this sets the durability
/// weight of a lifecycle.
const BATCHES_PER_SESSION: usize = 2;
const ROWS_PER_BATCH: usize = 8;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dime-exp-cluster-{tag}-{}", std::process::id()))
}

/// A synchronous-replication stand-in: acknowledges each committed WAL
/// record after one simulated follower round trip. Rides the same
/// [`dime_serve::ServeConfig::replication`] hook as a real
/// [`FollowerLink`], so the measured code path is the production one —
/// only the wire is simulated.
struct ReplicaAck(Duration);

impl dime_store::WalTap for ReplicaAck {
    fn record_committed(&self, _session: u64, _payload: &[u8]) -> std::io::Result<()> {
        std::thread::sleep(self.0);
        Ok(())
    }
}

fn ack_tap(rtt: Duration) -> Option<WalTapHandle> {
    Some(WalTapHandle::new(Arc::new(ReplicaAck(rtt))))
}

fn group_doc() -> Value {
    json!({"schema": [{"name": "Authors", "tokenizer": {"list": ","}}]})
}

fn batch(rows: usize) -> Vec<Value> {
    (0..rows).map(|i| json!([format!("ann{i}, bob{i}")])).collect()
}

/// A shard server running on its own thread over its own data directory.
struct Shard {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Shard {
    /// Shuts the server down, waits until it has drained, and removes its
    /// data directory.
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Binds a durable (`fsync always`) shard server and runs it on its own
/// thread. Snapshotting is pushed out of the way so the measurement is
/// WAL appends, not checkpoint writes.
fn spawn_shard(dir: PathBuf, replication: Option<WalTapHandle>) -> Shard {
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = StoreConfig::new(dir.clone());
    store.fsync = FsyncPolicy::Always;
    store.snapshot_every = 4096;
    let server = Server::bind(ServeConfig {
        workers: WORKERS_PER_SHARD,
        store: Some(store),
        replication,
        ..ServeConfig::default()
    })
    .expect("bind shard");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Shard { addr, handle, thread, dir }
}

fn spawn_router(config: RouterConfig) -> (SocketAddr, RouterHandle) {
    let router = Router::bind(config).expect("bind router");
    let addr = router.local_addr();
    let handle = router.handle();
    std::thread::spawn(move || router.run());
    (addr, handle)
}

/// One client thread's work: `n` full session lifecycles.
fn run_lifecycles(addr: SocketAddr, n: usize) {
    let mut client = Client::connect(addr).expect("connect").with_retry(5, 10);
    let doc = group_doc();
    let rows = batch(ROWS_PER_BATCH);
    for _ in 0..n {
        let rid = client.create_session(&doc, RULES).expect("create");
        for _ in 0..BATCHES_PER_SESSION {
            client.add_entities(rid, &rows).expect("add");
        }
        client.close_session(rid).expect("close");
    }
}

/// Drives `clients` threads of `lifecycles` sessions each against `addr`
/// and returns (sessions per second, elapsed seconds).
fn drive(addr: SocketAddr, clients: usize, lifecycles: usize) -> (f64, f64) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(move || run_lifecycles(addr, lifecycles));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    ((clients * lifecycles) as f64 / elapsed, elapsed)
}

/// Single durable replicated server, clients connected directly — the
/// baseline.
fn single_node(lifecycles: usize, rtt: Duration) -> (f64, f64) {
    let shard = spawn_shard(temp_dir("single"), ack_tap(rtt));
    let result = drive(shard.addr, CLIENTS_PER_SHARD, lifecycles);
    shard.stop();
    result
}

/// `shards` durable replicated servers behind a router, 2 clients per
/// shard.
fn sharded(shards: usize, lifecycles: usize, rtt: Duration) -> (f64, f64, usize) {
    let servers: Vec<Shard> = (0..shards)
        .map(|s| spawn_shard(temp_dir(&format!("s{shards}-{s}")), ack_tap(rtt)))
        .collect();
    let (addr, router) = spawn_router(RouterConfig {
        shards: servers
            .iter()
            .map(|s| ShardSpec { addr: s.addr.to_string(), follower: None })
            .collect(),
        pool_per_shard: POOL_PER_SHARD,
        health: None,
        ..RouterConfig::default()
    });
    let clients = CLIENTS_PER_SHARD * shards;
    let (rate, elapsed) = drive(addr, clients, lifecycles);
    router.shutdown();
    for server in servers {
        server.stop();
    }
    (rate, elapsed, clients)
}

/// Kills a replicated primary under a probing router and measures the
/// gap from the kill to the first request served again.
fn failover(probe_ms: u64, fail_threshold: u32) -> (f64, bool) {
    let follower_dir = temp_dir("failover-f");
    let _ = std::fs::remove_dir_all(&follower_dir);
    let follower = Follower::bind(FollowerConfig {
        data_dir: follower_dir.clone(),
        fsync: FsyncPolicy::Always,
        ..FollowerConfig::default()
    })
    .expect("bind follower");
    let follower_addr = follower.local_addr();
    let follower_handle = follower.handle();
    let follower_thread = std::thread::spawn(move || follower.run());

    let tap = WalTapHandle::new(Arc::new(FollowerLink::new(
        follower_addr.to_string(),
        Duration::from_secs(5),
    )));
    let primary = spawn_shard(temp_dir("failover-p"), Some(tap));
    let (addr, router) = spawn_router(RouterConfig {
        shards: vec![ShardSpec {
            addr: primary.addr.to_string(),
            follower: Some(follower_addr.to_string()),
        }],
        pool_per_shard: 1,
        health: Some(HealthConfig {
            interval: Duration::from_millis(probe_ms),
            fail_threshold,
            ..HealthConfig::default()
        }),
        ..RouterConfig::default()
    });

    let mut client = Client::connect(addr).expect("connect router");
    let rid = client.create_session(&group_doc(), RULES).expect("create");
    client
        .add_entities(rid, &[json!(["ann, bob"]), json!(["ann, bob, carl"]), json!(["dora"])])
        .expect("add");
    let before = client.discovery(rid).expect("pre-kill discovery");

    let killed = Instant::now();
    primary.handle.shutdown();
    let deadline = killed + Duration::from_secs(30);
    // The dying primary drains its open connections, so the first
    // requests after the kill may still be served by the corpse. Count a
    // success only once the outage was actually observed — a failed
    // request, or the router reporting the promotion — so the gap spans
    // kill → detection → promotion → replay → first real answer.
    let mut saw_outage = false;
    let after = loop {
        assert!(Instant::now() < deadline, "failover never completed");
        match client.discovery(rid) {
            Ok(report) if saw_outage => break report,
            Ok(_) => {
                let stats = client.stats(None).expect("stats");
                if stats["cluster"]["failovers"].as_u64().unwrap_or(0) >= 1 {
                    saw_outage = true;
                }
            }
            Err(_) => {
                saw_outage = true;
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    let gap = killed.elapsed().as_secs_f64();
    let identical = before == after;

    router.shutdown();
    primary.stop();
    if let Some(promoted) = follower_handle.promoted() {
        promoted.shutdown();
    }
    follower_handle.shutdown();
    let _ = follower_thread.join();
    let _ = std::fs::remove_dir_all(&follower_dir);
    (gap, identical)
}

fn main() {
    let lifecycles: usize = arg_or("lifecycles", 20);
    let max_shards: usize = arg_or("max-shards", 8);
    let ack_us: u64 = arg_or("ack-us", 2000);
    let rtt = Duration::from_micros(ack_us);
    let out: String = arg_or("out", "results/BENCH_cluster.json".to_string());

    println!(
        "exp_cluster: {lifecycles} lifecycles/client, {BATCHES_PER_SESSION}x{ROWS_PER_BATCH} \
         rows/session, fsync always, follower ack {ack_us}us\n"
    );

    let mut table = Table::new(&["topology", "clients", "sessions", "time", "sess/s", "speedup"]);
    let (single_rate, single_secs) = single_node(lifecycles, rtt);
    table.row(vec![
        "single-node".into(),
        CLIENTS_PER_SHARD.to_string(),
        (CLIENTS_PER_SHARD * lifecycles).to_string(),
        secs(single_secs),
        format!("{single_rate:.0}"),
        "1.00x".into(),
    ]);

    let mut swept = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        if shards > max_shards {
            continue;
        }
        let (rate, elapsed, clients) = sharded(shards, lifecycles, rtt);
        let speedup = rate / single_rate;
        table.row(vec![
            format!("{shards} shard{}", if shards == 1 { "" } else { "s" }),
            clients.to_string(),
            (clients * lifecycles).to_string(),
            secs(elapsed),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
        ]);
        swept.push(json!({
            "shards": shards,
            "clients": clients,
            "sessions": clients * lifecycles,
            "seconds": elapsed,
            "sessions_per_sec": rate,
            "speedup_vs_single": speedup,
        }));
    }
    table.print();

    let probe_ms = 50u64;
    let fail_threshold = 2u32;
    let (gap, identical) = failover(probe_ms, fail_threshold);
    println!(
        "\nfailover: time to first success {} after SIGKILL-equivalent, replay identical: \
         {identical}",
        secs(gap)
    );

    let summary = json!({
        "experiment": "cluster",
        "config": {
            "lifecycles_per_client": lifecycles,
            "clients_per_shard": CLIENTS_PER_SHARD,
            "workers_per_shard": WORKERS_PER_SHARD,
            "batches_per_session": BATCHES_PER_SESSION,
            "rows_per_batch": ROWS_PER_BATCH,
            "fsync": "always",
            "replica_ack_us": ack_us,
        },
        "single_node": {
            "clients": CLIENTS_PER_SHARD,
            "sessions_per_sec": single_rate,
            "seconds": single_secs,
        },
        "sharded": swept,
        "failover": {
            "probe_interval_ms": probe_ms,
            "fail_threshold": fail_threshold,
            "time_to_first_success_secs": gap,
            "replay_identical": identical,
        },
    });
    let path = std::path::Path::new(&out);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    let mut body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    body.push('\n');
    std::fs::write(path, body).expect("write summary");
    println!("\nwrote {out}");
}
