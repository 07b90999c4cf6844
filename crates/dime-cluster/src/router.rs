//! The cluster router: speaks the same framed JSON-lines protocol as a
//! single `dime-serve` server, but owns no sessions itself — it places
//! each session on one of N backend shards by consistent hashing over its
//! router-assigned id, proxies session-scoped operations to the owning
//! shard over a small per-shard connection pool, and fans
//! `stats`/`trace` out to every shard, merging counters by summation and
//! latency histograms bucket-wise (the monotone merge of
//! `dime_trace::Histogram`, over `dime_serve::metrics`' histogram codec).
//!
//! Admission is `dime-serve`'s own: `route_request` is the request
//! handler [`Admission::serve`] runs over [`JsonLines`], so client
//! sockets live on one epoll thread, a full op queue sheds with the
//! retryable `overloaded`, a panicking handler is answered `internal`,
//! and pipelined replies come back in request order. Ops from one
//! connection that are in flight together may reach their shards in
//! either order, exactly as on a single server.
//!
//! Routed ops run on a shared worker pool, so no shard may hold more of
//! it than its share. Each shard has a lane of `2 × pool_per_shard`
//! places: `pool_per_shard` ops on pooled connections and as many waiting
//! for one. An op for a shard whose lane is full is answered at once with
//! the retryable `overloaded`. The pool has one worker per place, so a
//! shard that stalls, or runs long discoveries, keeps only its own lane
//! busy; every wait on a shard (dial, read, write, the wait for a
//! connection) is bounded by [`SHARD_TIMEOUT`].
//!
//! Failure model: a shard IO failure answers the client with the
//! retryable [`ErrorCode::Unavailable`] — the request was not applied (or
//! its fate is unknown and the client may resend; see
//! `Client::with_retry`'s caveat). A pooled connection the shard closed
//! while it sat idle is detected at checkout, before any byte is sent,
//! and replaced by a fresh dial. When health probing is enabled and a
//! shard misses `fail_threshold` consecutive probes, the router promotes
//! the shard's configured follower (the `promote`/`promote_ack` exchange
//! of [`crate::repl`]), repoints the shard at the promoted address, bumps
//! the shard's generation so pooled connections to the dead primary are
//! discarded, and resumes routing. Session placement never changes on
//! failover — the ring maps ids to shard *slots*, and a slot keeps its
//! sessions across promotion because the follower holds a byte-identical
//! copy of every acked log.

use crate::repl::{connect_with_timeout, read_repl_frame, write_repl_frame, ReplFrame};
use crate::ring::{Ring, DEFAULT_VNODES};
use dime_serve::metrics::{histogram_from_value, histogram_to_value, MICROS};
use dime_serve::session::lock;
use dime_serve::{
    Admission, Client, ClientError, ErrorCode, JsonLines, Request, Response, ServeConfig,
};
use dime_trace::{Histogram, HistogramSnapshot};
use serde_json::{json, Map, Value};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Budget of one shard round trip: the dial, each read or write on a
/// pooled connection, and an op's wait for a pooled connection. A shard
/// silent this long is answered for with `unavailable` and its connection
/// dropped; the value is the serving side's default idle timeout.
const SHARD_TIMEOUT: Duration = Duration::from_secs(30);

/// One backend shard: its serving address and, optionally, the
/// replication address of a warm follower to promote on failure.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The shard primary's serve address.
    pub addr: String,
    /// The follower's replication address, when the shard has one.
    pub follower: Option<String>,
}

/// Health probing and failover knobs.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Pause between probe rounds.
    pub interval: Duration,
    /// Consecutive probe failures before a shard is declared dead.
    pub fail_threshold: u32,
    /// Connect + response budget of one probe.
    pub connect_timeout: Duration,
    /// How long to wait for a follower's `promote_ack` (recovery replay
    /// happens inside this window).
    pub promote_timeout: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            fail_threshold: 3,
            connect_timeout: Duration::from_millis(250),
            promote_timeout: Duration::from_secs(30),
        }
    }
}

/// Tuning knobs of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// The backend shards, in ring-slot order.
    pub shards: Vec<ShardSpec>,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: usize,
    /// Hard cap on pooled + in-flight connections per shard. A shard
    /// holds idle pooled connections on its poll loop and takes a worker
    /// only while a request runs, so the cap bounds the router's
    /// concurrency per shard, not a shard's workers; health probes dial
    /// their own connection and never wait for a pool slot. As many ops
    /// again may wait for a connection; past that, an op for the shard is
    /// answered `overloaded`. The router runs one worker per place,
    /// `2 × shards × pool_per_shard`, so a shard that stalls holds only
    /// its own places and never delays another shard's ops.
    pub pool_per_shard: usize,
    /// Health probing and failover; `None` disables both.
    pub health: Option<HealthConfig>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: DEFAULT_VNODES,
            pool_per_shard: 2,
            health: None,
        }
    }
}

/// The connections of one shard and the lane of ops using them. At most
/// `cap` ops hold a connection and at most `cap` more wait for one; an op
/// beyond that is shed. Connections are tagged with the shard generation
/// they were dialed under so a failover invalidates them.
struct Pool {
    inner: Mutex<PoolInner>,
    available: Condvar,
    cap: usize,
}

struct PoolInner {
    idle: Vec<(u64, Client)>,
    /// Connections currently checked out or being dialed.
    outstanding: usize,
    /// Ops waiting for a connection to come back.
    waiting: usize,
}

impl Pool {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(PoolInner { idle: Vec::new(), outstanding: 0, waiting: 0 }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }
}

/// Live state of one shard slot.
struct ShardState {
    slot: usize,
    addr: Mutex<String>,
    follower: Mutex<Option<String>>,
    healthy: AtomicBool,
    generation: AtomicU64,
    failovers: AtomicU64,
    pool: Pool,
}

impl ShardState {
    fn current_addr(&self) -> String {
        lock(&self.addr).clone()
    }

    /// Checks a connection out of the pool, dialing a fresh one when
    /// under the cap and waiting at most `timeout` for one to come back
    /// when at it. Idle connections that are stale — dialed before a
    /// failover, or closed by the shard (its idle sweep) — are discarded
    /// on the way, before anything is sent on them. A full lane answers
    /// `overloaded` at once; a wait or dial that runs out of time answers
    /// `unavailable`.
    fn checkout(&self, timeout: Duration) -> Result<(u64, Client), Response> {
        let deadline = dime_trace::now_nanos().saturating_add(timeout.as_nanos() as u64);
        let mut inner = lock(&self.pool.inner);
        loop {
            let generation = self.generation.load(Ordering::SeqCst);
            while let Some((tagged, client)) = inner.idle.pop() {
                if tagged == generation && !client.is_stale() {
                    inner.outstanding += 1;
                    return Ok((generation, client));
                }
            }
            if inner.outstanding < self.pool.cap {
                inner.outstanding += 1;
                drop(inner);
                let dialed = dial(&self.current_addr(), timeout);
                return dialed.map(|client| (generation, client)).map_err(|e| {
                    self.give_back(None);
                    Response::err(
                        ErrorCode::Unavailable,
                        format!("shard {} unreachable: {e}", self.slot),
                    )
                });
            }
            if inner.waiting >= self.pool.cap {
                return Err(Response::err(
                    ErrorCode::Overloaded,
                    format!(
                        "shard {} has {} ops in flight and as many waiting",
                        self.slot, self.pool.cap
                    ),
                ));
            }
            let left = deadline.saturating_sub(dime_trace::now_nanos());
            if left == 0 {
                return Err(Response::err(
                    ErrorCode::Unavailable,
                    format!("shard {} returned no pooled connection within {timeout:?}", self.slot),
                ));
            }
            inner.waiting += 1;
            inner = self
                .pool
                .available
                .wait_timeout(inner, Duration::from_nanos(left))
                .map_or_else(|e| e.into_inner().0, |(guard, _)| guard);
            inner.waiting -= 1;
        }
    }

    /// Gives a checked-out connection's place back, pooling the
    /// connection when one is returned and its generation is current.
    /// `None` — a failed request or dial — frees the place only.
    fn give_back(&self, returned: Option<(u64, Client)>) {
        let mut inner = lock(&self.pool.inner);
        inner.outstanding = inner.outstanding.saturating_sub(1);
        if let Some((generation, client)) = returned {
            if generation == self.generation.load(Ordering::SeqCst) {
                inner.idle.push((generation, client));
            }
        }
        drop(inner);
        self.pool.available.notify_one();
    }

    /// Invalidates every pooled connection (failover): bumps the
    /// generation and drops the idle set.
    fn invalidate_pool(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        let mut inner = lock(&self.pool.inner);
        inner.idle.clear();
        drop(inner);
        self.pool.available.notify_all();
    }
}

struct Shared {
    config: RouterConfig,
    /// Limits, shutdown flag and admission counters of the client side.
    admission: Admission,
    ring: Ring,
    shards: Vec<ShardState>,
    /// Budget of one shard round trip: the dial, each read and write on a
    /// pooled connection, and the wait for a pooled connection.
    shard_timeout: Duration,
    /// Router session id → (shard slot, shard-local session id).
    sessions: Mutex<HashMap<u64, (usize, u64)>>,
    next_rid: AtomicU64,
    failovers: AtomicU64,
}

/// A cloneable handle for observing and stopping a running [`Router`].
#[derive(Clone)]
pub struct RouterHandle {
    shared: Arc<Shared>,
}

impl RouterHandle {
    /// The bound address (with the real port when `0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.admission.addr()
    }

    /// Initiates graceful shutdown, equivalent to a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.admission.initiate_shutdown();
    }
}

/// A bound, not-yet-running cluster router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Router {
    /// Binds the configured address. Requires at least one shard. The
    /// admission limits, queue capacity and timeouts are
    /// [`ServeConfig::default`]'s; the worker count is
    /// `2 × shards × pool_per_shard`, one per place in the shards' lanes.
    pub fn bind(config: RouterConfig) -> io::Result<Self> {
        if config.shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one shard",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let ring = Ring::new(config.shards.len(), config.vnodes.max(1));
        let workers = 2 * config.shards.len() * config.pool_per_shard.max(1);
        let admission = Admission::new(ServeConfig { workers, ..ServeConfig::default() }, addr);
        let shards = config
            .shards
            .iter()
            .enumerate()
            .map(|(slot, spec)| ShardState {
                slot,
                addr: Mutex::new(spec.addr.clone()),
                follower: Mutex::new(spec.follower.clone()),
                healthy: AtomicBool::new(true),
                generation: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                pool: Pool::new(config.pool_per_shard),
            })
            .collect();
        let shared = Arc::new(Shared {
            config,
            admission,
            ring,
            shards,
            shard_timeout: SHARD_TIMEOUT,
            sessions: Mutex::new(HashMap::new()),
            next_rid: AtomicU64::new(1),
            failovers: AtomicU64::new(0),
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (with the real port when `0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.admission.addr()
    }

    /// A handle for stopping the router from another thread.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until shutdown completes its drain, on `dime-serve`'s
    /// admission loop and worker pool with `route_request` as the
    /// handler, plus the health prober when probing is configured.
    pub fn run(self) -> io::Result<()> {
        let shared = &*self.shared;
        std::thread::scope(|scope| {
            if shared.config.health.is_some() {
                scope.spawn(|| probe_loop(shared));
            }
            let codec = JsonLines { max_frame_bytes: shared.admission.config().max_frame_bytes };
            shared
                .admission
                .serve(self.listener, &dime_trace::NOOP, &codec, |req| route_request(req, shared))
        })
    }
}

/// Sends one request to a shard through its pool. IO failures come back
/// as the retryable `unavailable`; shard-side error responses pass
/// through verbatim.
fn shard_request(shared: &Shared, slot: usize, req: &Request) -> Response {
    let Some(shard) = shared.shards.get(slot) else {
        return Response::err(ErrorCode::Internal, format!("no shard slot {slot}"));
    };
    let (generation, mut client) = match shard.checkout(shared.shard_timeout) {
        Ok(c) => c,
        Err(resp) => return resp,
    };
    match client.request(req) {
        Ok(resp) => {
            shard.give_back(Some((generation, client)));
            resp
        }
        Err(ClientError::Io(e)) => {
            shard.give_back(None);
            Response::err(ErrorCode::Unavailable, format!("shard {slot} failed mid-request: {e}"))
        }
        Err(e) => {
            shard.give_back(None);
            Response::err(ErrorCode::Internal, format!("shard {slot} protocol error: {e}"))
        }
    }
}

/// The request a session-scoped operation becomes on the owning shard:
/// same operation, shard-local session id.
fn with_session(req: &Request, session: u64) -> Request {
    match req {
        Request::AddEntities { entities, .. } => {
            Request::AddEntities { session, entities: entities.clone() }
        }
        Request::RemoveEntity { entity, .. } => Request::RemoveEntity { session, entity: *entity },
        Request::Discovery { .. } => Request::Discovery { session },
        Request::Scrollbar { step, .. } => Request::Scrollbar { session, step: *step },
        Request::Stats { .. } => Request::Stats { session: Some(session) },
        Request::Rules { action, .. } => Request::Rules { session, action: action.clone() },
        Request::Feedback { labels, apply, .. } => {
            Request::Feedback { session, labels: labels.clone(), apply: *apply }
        }
        Request::CloseSession { .. } => Request::CloseSession { session },
        other => other.clone(),
    }
}

/// Dispatches one request: local (ping/shutdown), placed (create),
/// routed (session-scoped), or fanned out (global stats/trace).
fn route_request(req: &Request, shared: &Shared) -> Response {
    match req {
        Request::Ping => Response::Ok(json!({"pong": true})),
        Request::Shutdown => Response::Ok(json!({"shutting_down": true})),
        Request::CreateSession { .. } => {
            if shared.admission.is_shutting_down() {
                return Response::err(
                    ErrorCode::ShuttingDown,
                    "router is draining; no new sessions",
                );
            }
            let rid = shared.next_rid.fetch_add(1, Ordering::SeqCst);
            let Some(slot) = shared.ring.shard_of(rid) else {
                return Response::err(ErrorCode::Internal, "placement ring is empty");
            };
            match shard_request(shared, slot, req) {
                Response::Ok(mut v) => {
                    let Some(remote) = v.get("session").and_then(Value::as_u64) else {
                        return Response::err(
                            ErrorCode::Internal,
                            format!("shard {slot} created a session without an id"),
                        );
                    };
                    lock(&shared.sessions).insert(rid, (slot, remote));
                    if let Some(obj) = v.as_object_mut() {
                        obj.insert("session".into(), json!(rid));
                    }
                    Response::Ok(v)
                }
                err => err,
            }
        }
        Request::AddEntities { session, .. }
        | Request::RemoveEntity { session, .. }
        | Request::Discovery { session }
        | Request::Scrollbar { session, .. }
        | Request::Stats { session: Some(session) }
        | Request::Rules { session, .. }
        | Request::Feedback { session, .. }
        | Request::CloseSession { session } => {
            let rid = *session;
            let Some((slot, remote)) = lock(&shared.sessions).get(&rid).copied() else {
                return Response::err(
                    ErrorCode::NoSuchSession,
                    format!("session {rid} does not exist"),
                );
            };
            let resp = shard_request(shared, slot, &with_session(req, remote));
            match (req, resp) {
                (Request::CloseSession { .. }, Response::Ok(mut v)) => {
                    lock(&shared.sessions).remove(&rid);
                    if let Some(obj) = v.as_object_mut() {
                        obj.insert("closed".into(), json!(rid));
                    }
                    Response::Ok(v)
                }
                (_, resp) => resp,
            }
        }
        Request::Stats { session: None } => {
            let (merged, reachable) = fan_out(shared, req);
            let mut v = merge_stats(&merged);
            if v.as_object().is_none() {
                // Every shard unreachable: still answer with the cluster view.
                v = Value::Object(Map::new());
            }
            if let Some(obj) = v.as_object_mut() {
                obj.insert("cluster".into(), cluster_value(shared, &reachable));
            }
            Response::Ok(v)
        }
        Request::Trace => {
            let (results, _) = fan_out(shared, req);
            Response::Ok(merge_trace(&results))
        }
    }
}

/// Sends `req` to every shard, returning the successful payloads and a
/// per-shard reachability vector (unreachable shards are simply absent
/// from the merge — a cluster-wide view should not fail because one
/// shard is mid-failover).
fn fan_out(shared: &Shared, req: &Request) -> (Vec<Value>, Vec<bool>) {
    let mut values = Vec::with_capacity(shared.shards.len());
    let mut reachable = Vec::with_capacity(shared.shards.len());
    for slot in 0..shared.shards.len() {
        match shard_request(shared, slot, req) {
            Response::Ok(v) => {
                values.push(v);
                reachable.push(true);
            }
            Response::Err { .. } => reachable.push(false),
        }
    }
    (values, reachable)
}

/// The router's own contribution to the global stats view: per-shard
/// state, failovers, routed sessions, and the router's own admission
/// counters (`connections`, `requests`, `errors`, `oversized_frames`,
/// `overloaded`), so a shed at the router shows apart from the shards'.
fn cluster_value(shared: &Shared, reachable: &[bool]) -> Value {
    let shards: Vec<Value> = shared
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            json!({
                "addr": s.current_addr(),
                "healthy": s.healthy.load(Ordering::SeqCst),
                "reachable": reachable.get(i).copied().unwrap_or(false),
                "generation": s.generation.load(Ordering::SeqCst),
                "failovers": s.failovers.load(Ordering::SeqCst),
            })
        })
        .collect();
    let mut v = json!({
        "shards": shards,
        "failovers": shared.failovers.load(Ordering::SeqCst),
        "sessions_routed": lock(&shared.sessions).len(),
    });
    if let Some(obj) = v.as_object_mut() {
        shared.admission.metrics().write_into(obj);
    }
    v
}

// --- cross-shard merging ------------------------------------------------

/// Merges histogram snapshots through an actual [`Histogram`], so the
/// merged quantiles obey the same monotonicity contract as a single-node
/// merge, and re-encodes them under the inputs' key form (`_micros`
/// when any input carried it).
fn merge_histograms(decoded: &[(HistogramSnapshot, &str)]) -> Value {
    let suffix = if decoded.iter().any(|(_, s)| *s == MICROS) { MICROS } else { "" };
    let merged = Histogram::new();
    for (snapshot, _) in decoded {
        merged.merge_snapshot(snapshot);
    }
    histogram_to_value(&merged.snapshot(), suffix)
}

/// Deep-merges per-shard `stats` payloads: numbers sum (`uptime_micros`
/// takes the max — shard uptimes don't add), histogram objects merge
/// bucket-wise, nested objects recurse, everything else keeps the first
/// shard's value.
fn merge_stats(values: &[Value]) -> Value {
    let refs: Vec<&Value> = values.iter().collect();
    merge_field("", &refs)
}

fn merge_field(key: &str, values: &[&Value]) -> Value {
    let Some(first) = values.first() else { return Value::Null };
    if values.iter().all(|v| v.as_u64().is_some()) {
        let nums = values.iter().filter_map(|v| v.as_u64());
        return if key == "uptime_micros" {
            json!(nums.max().unwrap_or(0))
        } else {
            json!(nums.fold(0u64, u64::saturating_add))
        };
    }
    if first.as_object().is_some() {
        let decoded: Option<Vec<_>> = values.iter().map(|v| histogram_from_value(v)).collect();
        if let Some(decoded) = decoded {
            return merge_histograms(&decoded);
        }
        let mut keys: Vec<&String> = Vec::new();
        for v in values {
            if let Some(obj) = v.as_object() {
                for k in obj.keys() {
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            }
        }
        let mut out = Map::new();
        for k in keys {
            let at_key: Vec<&Value> = values.iter().filter_map(|v| v.get(k.as_str())).collect();
            out.insert(k.clone(), merge_field(k, &at_key));
        }
        return Value::Object(out);
    }
    (*first).clone()
}

/// Merges per-shard `trace` payloads: phases by name, counters by key,
/// rule hits by (kind, rule), histograms by name — sums and bucket-wise
/// histogram merges throughout.
fn merge_trace(values: &[Value]) -> Value {
    let mut phases: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut rule_hits: BTreeMap<(String, u64), u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut spans = 0u64;
    let mut dropped = 0u64;
    for v in values {
        for p in v.get("phases").and_then(Value::as_array).unwrap_or(&Vec::new()) {
            let Some(name) = p.get("name").and_then(Value::as_str) else { continue };
            let entry = phases.entry(name.to_string()).or_insert((0, 0));
            entry.0 += p.get("count").and_then(Value::as_u64).unwrap_or(0);
            entry.1 += p.get("total_ns").and_then(Value::as_u64).unwrap_or(0);
        }
        if let Some(obj) = v.get("counters").and_then(Value::as_object) {
            for (k, n) in obj {
                *counters.entry(k.clone()).or_insert(0) += n.as_u64().unwrap_or(0);
            }
        }
        for r in v.get("rule_hits").and_then(Value::as_array).unwrap_or(&Vec::new()) {
            let kind = r.get("kind").and_then(Value::as_str).unwrap_or("?").to_string();
            let rule = r.get("rule").and_then(Value::as_u64).unwrap_or(0);
            *rule_hits.entry((kind, rule)).or_insert(0) +=
                r.get("hits").and_then(Value::as_u64).unwrap_or(0);
        }
        for h in v.get("histograms").and_then(Value::as_array).unwrap_or(&Vec::new()) {
            let Some(name) = h.get("name").and_then(Value::as_str) else { continue };
            let merged = histograms.entry(name.to_string()).or_default();
            if let Some((snapshot, _)) = histogram_from_value(h) {
                merged.merge_snapshot(&snapshot);
            }
        }
        spans += v.get("spans").and_then(Value::as_u64).unwrap_or(0);
        dropped += v.get("dropped_spans").and_then(Value::as_u64).unwrap_or(0);
    }
    let phases: Vec<Value> = phases
        .into_iter()
        .map(
            |(name, (count, total_ns))| json!({"name": name, "count": count, "total_ns": total_ns}),
        )
        .collect();
    let mut counter_obj = Map::new();
    for (k, n) in counters {
        counter_obj.insert(k, json!(n));
    }
    let rule_hits: Vec<Value> = rule_hits
        .into_iter()
        .map(|((kind, rule), hits)| json!({"kind": kind, "rule": rule, "hits": hits}))
        .collect();
    let histograms: Vec<Value> = histograms
        .into_iter()
        .map(|(name, h)| {
            let mut v = histogram_to_value(&h.snapshot(), "");
            if let Some(obj) = v.as_object_mut() {
                obj.insert("name".into(), json!(name));
            }
            v
        })
        .collect();
    json!({
        "phases": phases,
        "counters": counter_obj,
        "rule_hits": rule_hits,
        "histograms": histograms,
        "spans": spans,
        "dropped_spans": dropped,
    })
}

// --- health probing and failover ----------------------------------------

/// Probes every shard each interval; a shard missing `fail_threshold`
/// consecutive probes is declared dead and its follower (if any) is
/// promoted.
fn probe_loop(shared: &Shared) {
    let Some(health) = shared.config.health.clone() else { return };
    let mut consecutive_failures = vec![0u32; shared.shards.len()];
    while !shared.admission.is_shutting_down() {
        std::thread::sleep(health.interval);
        for (slot, shard) in shared.shards.iter().enumerate() {
            if shared.admission.is_shutting_down() {
                return;
            }
            let Some(fails) = consecutive_failures.get_mut(slot) else { continue };
            // Any well-formed answer to a ping, even `overloaded`, is alive.
            let probe = dial(&shard.current_addr(), health.connect_timeout);
            if probe.is_ok_and(|mut c| c.request(&Request::Ping).is_ok()) {
                *fails = 0;
                shard.healthy.store(true, Ordering::SeqCst);
                continue;
            }
            *fails += 1;
            if *fails < health.fail_threshold {
                continue;
            }
            shard.healthy.store(false, Ordering::SeqCst);
            // Promote at most once: the follower slot is consumed.
            let follower = lock(&shard.follower).take();
            let Some(follower_addr) = follower else { continue };
            match promote_follower(&follower_addr, &health) {
                Ok(new_addr) => {
                    eprintln!(
                        "dime-cluster: shard {slot} dead after {fails} probes; promoted follower at {new_addr}",
                        fails = *fails
                    );
                    // dime-check: allow(lock-order) — both guards here are statement-scoped temporaries (take() above, this assignment) dropped at their `;`; follower and addr are never held together
                    *lock(&shard.addr) = new_addr;
                    shard.invalidate_pool();
                    shard.failovers.fetch_add(1, Ordering::SeqCst);
                    shared.failovers.fetch_add(1, Ordering::SeqCst);
                    shard.healthy.store(true, Ordering::SeqCst);
                    *fails = 0;
                }
                Err(e) => {
                    eprintln!("dime-cluster: promoting shard {slot}'s follower failed: {e}");
                    *lock(&shard.follower) = Some(follower_addr);
                }
            }
        }
    }
}

/// Dials `addr` as a client whose connect, and every later read or write
/// on the connection, fail after `timeout`.
fn dial(addr: &str, timeout: Duration) -> io::Result<Client> {
    let stream = connect_with_timeout(addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Client::from_stream(stream)
}

/// The promotion exchange: `promote` out, `promote_ack` (with the new
/// primary's serve address) back.
fn promote_follower(follower_addr: &str, health: &HealthConfig) -> io::Result<String> {
    let mut stream = connect_with_timeout(follower_addr, health.connect_timeout)?;
    stream.set_read_timeout(Some(health.promote_timeout))?;
    stream.set_write_timeout(Some(health.promote_timeout))?;
    write_repl_frame(&mut stream, &ReplFrame::Promote)?;
    match read_repl_frame(&mut stream)? {
        ReplFrame::PromoteAck { addr } => Ok(addr),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected promote_ack, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::{Follower, FollowerConfig};
    use crate::repl::FollowerLink;
    use dime_serve::DEFAULT_MAX_FRAME_BYTES;
    use dime_serve::{ServeConfig, Server, WalTapHandle};
    use dime_store::{FsyncPolicy, StoreConfig};
    use serde_json::json;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dime-router-{tag}-{}-{n}", std::process::id()))
    }

    fn group_doc() -> Value {
        json!({"schema": [{"name": "Authors", "tokenizer": {"list": ","}}]})
    }

    const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";

    fn spawn_server(workers: usize) -> (SocketAddr, dime_serve::ServerHandle) {
        let server =
            Server::bind(ServeConfig { workers, ..ServeConfig::default() }).expect("bind shard");
        let addr = server.local_addr();
        let handle = server.handle();
        std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn spawn_router(config: RouterConfig) -> (SocketAddr, RouterHandle) {
        let router = Router::bind(config).expect("bind router");
        let addr = router.local_addr();
        let handle = router.handle();
        std::thread::spawn(move || router.run());
        (addr, handle)
    }

    #[test]
    fn routes_sessions_across_shards_and_rewrites_ids() {
        let (s0, h0) = spawn_server(2);
        let (s1, h1) = spawn_server(2);
        let (addr, router) = spawn_router(RouterConfig {
            shards: vec![
                ShardSpec { addr: s0.to_string(), follower: None },
                ShardSpec { addr: s1.to_string(), follower: None },
            ],
            pool_per_shard: 1,
            ..RouterConfig::default()
        });

        let mut client = Client::connect(addr).expect("connect router");
        let mut rids = Vec::new();
        for _ in 0..6 {
            let rid = client.create_session(&group_doc(), RULES).expect("create");
            client
                .add_entities(
                    rid,
                    &[json!(["ann, bob"]), json!(["ann, bob, carl"]), json!(["dora"])],
                )
                .expect("add");
            rids.push(rid);
        }
        // Router ids are globally unique even though each shard numbers
        // its own sessions from 1.
        let mut unique = rids.clone();
        unique.dedup();
        assert_eq!(unique.len(), rids.len());

        for &rid in &rids {
            let report = client.discovery(rid).expect("discovery");
            assert_eq!(report["mis_categorized"].as_array().expect("flagged").len(), 1);
        }

        // Global stats aggregate both shards and carry the cluster view.
        let stats = client.stats(None).expect("stats");
        assert_eq!(stats["sessions"]["live"].as_u64().expect("live"), 6);
        assert_eq!(stats["entities_added"].as_u64().expect("added"), 18);
        assert_eq!(stats["cluster"]["shards"].as_array().expect("shards").len(), 2);
        assert_eq!(stats["cluster"]["sessions_routed"], 6);
        assert!(stats["flag_latency"]["count"].as_u64().expect("latency") >= 6);

        // Trace fans out and merges phase aggregates.
        let trace = client.trace().expect("trace");
        let phases: Vec<&str> = trace["phases"]
            .as_array()
            .expect("phases")
            .iter()
            .map(|p| p["name"].as_str().expect("name"))
            .collect();
        assert!(phases.contains(&"flag"), "merged trace must carry flag phases: {phases:?}");

        // Close rewrites the router id back and forgets the mapping.
        let closed = client.close_session(rids[0]).expect("close");
        assert_eq!(closed["closed"].as_u64().expect("closed"), rids[0]);
        match client.discovery(rids[0]) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NoSuchSession),
            other => panic!("closed session must be gone, got {other:?}"),
        }

        router.shutdown();
        h0.shutdown();
        h1.shutdown();
    }

    #[test]
    fn rules_and_feedback_route_to_the_owning_shard() {
        let (s0, h0) = spawn_server(2);
        let (addr, router) = spawn_router(RouterConfig {
            shards: vec![ShardSpec { addr: s0.to_string(), follower: None }],
            pool_per_shard: 1,
            ..RouterConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect router");
        let rid = client.create_session(&group_doc(), RULES).expect("create");
        client
            .add_entities(rid, &[json!(["ann, bob"]), json!(["ann, bob, carl"]), json!(["dora"])])
            .expect("add");

        // The rules op lands on the owning shard under its local id, so a
        // list after an install reflects the installed spec.
        let spec = "same(X, Y) :- overlap(Authors) >= 3.\ndiff(X, Y) :- overlap(Authors) <= 0.\n";
        let installed = client.rules_install(rid, spec).expect("install through router");
        assert_eq!(installed["installed"]["positive"], 1);
        let listed = client.rules_list(rid).expect("list through router");
        assert!(listed["spec"].as_str().expect("spec").contains(">= 3"));

        // Feedback routes the same way and answers with the label count.
        let fb =
            client.feedback(rid, &[(0, true), (1, true), (2, false)], false).expect("feedback");
        assert_eq!(fb["labels"], 3);

        // A rejection passes through verbatim (not wrapped in unavailable).
        match client.rules_install(rid, "same(X, Y) :- nope(") {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::RuleRejected),
            other => panic!("bad spec must be rule_rejected, got {other:?}"),
        }

        // The strict flag survives the fan-through: a semantically
        // conflicting pair is rejected by the owning shard, and the
        // structured message names both rules.
        let conflicting =
            "same(X, Y) :- overlap(Authors) >= 1.\ndiff(X, Y) :- overlap(Authors) <= 1.\n";
        match client.rules_install_opts(rid, conflicting, true) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::RuleRejected);
                assert!(message.contains("conflict"), "{message}");
                assert!(message.contains("overlap(Authors) >= 1"), "{message}");
                assert!(message.contains("overlap(Authors) <= 1"), "{message}");
            }
            other => panic!("strict conflicting install must be rejected, got {other:?}"),
        }
        // Non-strict, the same spec installs and the warning rides back
        // through the router in the payload.
        let v = client.rules_install_opts(rid, conflicting, false).expect("non-strict install");
        assert_eq!(v["warnings"][0]["kind"], "conflict");

        router.shutdown();
        h0.shutdown();
    }

    #[test]
    fn dead_shard_is_a_retryable_unavailable() {
        // A port with nothing listening: bind, note the addr, drop.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let (addr, router) = spawn_router(RouterConfig {
            shards: vec![ShardSpec { addr: dead.to_string(), follower: None }],
            pool_per_shard: 1,
            ..RouterConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect router");
        match client.request(&Request::CreateSession { group: group_doc(), rules: RULES.into() }) {
            Ok(Response::Err { code, .. }) => {
                assert_eq!(code, ErrorCode::Unavailable);
                assert!(code.retryable());
            }
            other => panic!("expected unavailable, got {other:?}"),
        }
        router.shutdown();
    }

    /// The full failover story in-process: primary replicates to a
    /// follower, the primary dies, the prober promotes, and a retrying
    /// client sees bit-identical discovery output with one failover on
    /// the cluster record.
    #[test]
    fn failover_promotes_the_follower_and_preserves_sessions() {
        let dir_p = temp_dir("primary");
        let dir_f = temp_dir("follower");

        let follower = Follower::bind(FollowerConfig {
            data_dir: dir_f.clone(),
            fsync: FsyncPolicy::Never,
            workers: 2,
            ..FollowerConfig::default()
        })
        .expect("bind follower");
        let repl_addr = follower.local_addr();
        let follower_handle = follower.handle();
        let follower_runner = std::thread::spawn(move || follower.run());

        let link = FollowerLink::new(repl_addr.to_string(), Duration::from_secs(5));
        let primary = Server::bind(ServeConfig {
            workers: 2,
            store: Some(StoreConfig {
                data_dir: dir_p.clone(),
                fsync: FsyncPolicy::Never,
                snapshot_every: 4,
            }),
            replication: Some(WalTapHandle::new(Arc::new(link))),
            ..ServeConfig::default()
        })
        .expect("bind primary");
        let primary_addr = primary.local_addr();
        let primary_handle = primary.handle();
        std::thread::spawn(move || primary.run());

        let (addr, router) = spawn_router(RouterConfig {
            shards: vec![ShardSpec {
                addr: primary_addr.to_string(),
                follower: Some(repl_addr.to_string()),
            }],
            pool_per_shard: 1,
            health: Some(HealthConfig {
                interval: Duration::from_millis(50),
                fail_threshold: 2,
                connect_timeout: Duration::from_millis(250),
                promote_timeout: Duration::from_secs(10),
            }),
            ..RouterConfig::default()
        });

        let mut client = Client::connect(addr).expect("connect router");
        let rid = client.create_session(&group_doc(), RULES).expect("create");
        client
            .add_entities(rid, &[json!(["ann, bob"]), json!(["ann, bob, carl"]), json!(["dora"])])
            .expect("add");
        let before = client.discovery(rid).expect("discovery");

        primary_handle.shutdown();

        // The primary drains gracefully, so requests may keep succeeding
        // against it for a moment; wait until the prober has actually
        // promoted before checking the replica's answers.
        let mut retrying = Client::connect(addr).expect("reconnect").with_retry(60, 25);
        let mut failovers = 0;
        for _ in 0..400 {
            let stats = retrying.stats(None).expect("stats");
            failovers = stats["cluster"]["failovers"].as_u64().unwrap_or(0);
            if failovers == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(failovers, 1, "the prober must promote the follower");

        let after = retrying.discovery(rid).expect("post-failover discovery");
        assert_eq!(after, before, "failover must preserve discovery output bit-identically");

        let stats = retrying.stats(None).expect("stats");
        assert_eq!(stats["cluster"]["shards"][0]["failovers"], 1);

        router.shutdown();
        follower_handle.shutdown();
        follower_runner.join().expect("follower runner").expect("clean follower run");
        std::fs::remove_dir_all(&dir_p).expect("cleanup primary");
        std::fs::remove_dir_all(&dir_f).expect("cleanup follower");
    }

    #[test]
    fn stats_merge_sums_counts_and_merges_histograms() {
        let a = json!({
            "requests": 3,
            "uptime_micros": 100,
            "sessions": {"live": 1, "created": 2, "closed": 1},
            "flag_latency": {"count": 1, "total_micros": 10, "max_micros": 10,
                              "mean_micros": 10, "p50_micros": 15, "p95_micros": 15,
                              "p99_micros": 15, "buckets": [[4, 1]]},
        });
        let b = json!({
            "requests": 5,
            "uptime_micros": 70,
            "sessions": {"live": 2, "created": 2, "closed": 0},
            "flag_latency": {"count": 2, "total_micros": 60, "max_micros": 30,
                              "mean_micros": 30, "p50_micros": 31, "p95_micros": 31,
                              "p99_micros": 31, "buckets": [[5, 2]]},
        });
        let merged = merge_stats(&[a, b]);
        assert_eq!(merged["requests"], 8);
        assert_eq!(merged["uptime_micros"], 100, "uptimes take the max, not the sum");
        assert_eq!(merged["sessions"]["live"], 3);
        assert_eq!(merged["flag_latency"]["count"], 3);
        assert_eq!(merged["flag_latency"]["total_micros"], 70);
        assert_eq!(merged["flag_latency"]["max_micros"], 30);
        assert_eq!(merged["flag_latency"]["buckets"], json!([[4, 1], [5, 2]]));
        // Quantiles recomputed over the merged buckets: 2 of 3 samples in
        // bucket 5 puts the p95 at that bucket's top.
        assert_eq!(merged["flag_latency"]["p95_micros"], 31);
    }

    #[test]
    fn trace_merge_folds_by_name_kind_and_rule() {
        let a = json!({
            "phases": [{"name": "flag", "count": 2, "total_ns": 100}],
            "counters": {"pairs_verified": 7},
            "rule_hits": [{"kind": "positive", "rule": 0, "hits": 3}],
            "histograms": [{"name": "flag_micros", "count": 1, "total": 10, "max": 10,
                             "mean": 10, "p50": 15, "p95": 15, "p99": 15,
                             "buckets": [[4, 1]]}],
            "spans": 4,
            "dropped_spans": 0,
        });
        let b = json!({
            "phases": [{"name": "flag", "count": 1, "total_ns": 50},
                        {"name": "recover", "count": 1, "total_ns": 9}],
            "counters": {"pairs_verified": 5, "entities_added": 2},
            "rule_hits": [{"kind": "positive", "rule": 0, "hits": 2},
                           {"kind": "negative", "rule": 1, "hits": 1}],
            "histograms": [],
            "spans": 1,
            "dropped_spans": 2,
        });
        let merged = merge_trace(&[a, b]);
        let phases = merged["phases"].as_array().expect("phases");
        let flag = phases.iter().find(|p| p["name"] == "flag").expect("flag phase");
        assert_eq!(flag["count"], 3);
        assert_eq!(flag["total_ns"], 150);
        assert_eq!(phases.len(), 2);
        assert_eq!(merged["counters"]["pairs_verified"], 12);
        assert_eq!(merged["counters"]["entities_added"], 2);
        let hits = merged["rule_hits"].as_array().expect("rule hits");
        assert_eq!(hits.len(), 2);
        let pos = hits.iter().find(|r| r["kind"] == "positive").expect("positive");
        assert_eq!(pos["hits"], 5);
        assert_eq!(merged["histograms"][0]["name"], "flag_micros");
        assert_eq!(merged["spans"], 5);
        assert_eq!(merged["dropped_spans"], 2);
    }

    /// A shard's idle sweep closes a pooled connection the router is
    /// holding; the next routed op must dial afresh, not fail
    /// `unavailable` on the dead socket.
    #[test]
    fn pooled_connection_closed_by_the_shard_is_redialed() {
        let shard = Server::bind(ServeConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(100),
            poll_interval: Duration::from_millis(10),
            ..ServeConfig::default()
        })
        .expect("bind shard");
        let shard_addr = shard.local_addr();
        let shard_handle = shard.handle();
        std::thread::spawn(move || shard.run());
        let (addr, router) = spawn_router(RouterConfig {
            shards: vec![ShardSpec { addr: shard_addr.to_string(), follower: None }],
            pool_per_shard: 1,
            ..RouterConfig::default()
        });

        let mut client = Client::connect(addr).expect("connect router");
        let sid = client.create_session(&group_doc(), RULES).expect("create");
        std::thread::sleep(Duration::from_millis(400));
        let stats = client.stats(Some(sid)).expect("stats after the shard closed the pooled conn");
        assert_eq!(stats["entities"], 0);

        router.shutdown();
        shard_handle.shutdown();
    }

    /// A shard that accepts connections and never answers. Dropping the
    /// returned sender closes every accepted connection and the listener.
    fn spawn_mute_shard() -> (SocketAddr, std::sync::mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mute shard");
        let addr = listener.local_addr().expect("mute addr");
        listener.set_nonblocking(true).expect("nonblocking");
        let (release, released) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Err(std::sync::mpsc::TryRecvError::Empty) = released.try_recv() {
                if let Ok((conn, _)) = listener.accept() {
                    held.push(conn);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        (addr, release)
    }

    /// Sends one request on a fresh raw connection without waiting.
    fn send_raw(addr: SocketAddr, req: &Request) -> std::net::TcpStream {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        stream.write_all(dime_serve::encode_frame(&req.to_value()).as_bytes()).expect("send");
        stream
    }

    fn read_reply(stream: std::net::TcpStream) -> Response {
        use std::io::BufRead;
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut line = String::new();
        io::BufReader::new(stream).read_line(&mut line).expect("reply");
        let v: Value = serde_json::from_str(&line).expect("json reply");
        Response::from_value(&v).expect("response")
    }

    /// A shard that accepts and never answers holds only its own lane:
    /// with every place of that lane taken, an op on the healthy shard is
    /// still answered at once, and further ops for the mute shard are
    /// shed `overloaded` instead of taking the healthy shard's workers.
    #[test]
    fn mute_shard_holds_only_its_own_lane() {
        let (healthy, h0) = spawn_server(2);
        let (mute, release) = spawn_mute_shard();
        // Router id 1 must land on the healthy shard; put it in that slot.
        let healthy_slot = Ring::new(2, DEFAULT_VNODES).shard_of(1).expect("slot");
        let mut shards = vec![
            ShardSpec { addr: mute.to_string(), follower: None },
            ShardSpec { addr: mute.to_string(), follower: None },
        ];
        shards[healthy_slot].addr = healthy.to_string();
        let mute_slot = 1 - healthy_slot;
        let (addr, router) =
            spawn_router(RouterConfig { shards, pool_per_shard: 1, ..RouterConfig::default() });
        let mut client = Client::connect(addr).expect("connect router");
        let sid = client.create_session(&group_doc(), RULES).expect("create on the healthy shard");
        assert_eq!(sid, 1);
        lock(&router.shared.sessions).insert(99, (mute_slot, 1));

        // Four ops for the mute shard on four connections: one holds its
        // only connection, one waits for it, two are shed.
        let muted: Vec<_> =
            (0..4).map(|_| send_raw(addr, &Request::Discovery { session: 99 })).collect();
        let lane = &router.shared.shards[mute_slot].pool;
        let mut full = false;
        for _ in 0..500 {
            let inner = lock(&lane.inner);
            if inner.outstanding == 1 && inner.waiting >= 1 {
                full = true;
                break;
            }
            drop(inner);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(full, "the mute shard's connection and a waiter must be taken");

        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
        let mut bounded = Client::from_stream(stream).expect("client");
        let stats =
            bounded.stats(Some(sid)).expect("the healthy shard answers while the mute one hangs");
        assert_eq!(stats["entities"], 0);

        // Closing the mute shard answers the two held ops `unavailable`.
        drop(release);
        let mut codes: Vec<ErrorCode> = muted
            .into_iter()
            .map(|s| match read_reply(s) {
                Response::Err { code, .. } => code,
                other => panic!("a mute shard's op must fail, got {other:?}"),
            })
            .collect();
        codes.sort_by_key(|c| c.as_str());
        assert_eq!(
            codes,
            [
                ErrorCode::Overloaded,
                ErrorCode::Overloaded,
                ErrorCode::Unavailable,
                ErrorCode::Unavailable
            ]
        );

        router.shutdown();
        h0.shutdown();
    }

    /// A shard that stops answering mid-request times out: both the op
    /// on the connection and the op waiting for that connection are
    /// answered `unavailable` within the shard timeout, and the lane is
    /// free again afterwards.
    #[test]
    fn silent_shard_times_out_unavailable() {
        let (mute, _release) = spawn_mute_shard();
        let mut router = Router::bind(RouterConfig {
            shards: vec![ShardSpec { addr: mute.to_string(), follower: None }],
            pool_per_shard: 1,
            ..RouterConfig::default()
        })
        .expect("bind router");
        Arc::get_mut(&mut router.shared).expect("not yet shared").shard_timeout =
            Duration::from_millis(200);
        let addr = router.local_addr();
        let handle = router.handle();
        std::thread::spawn(move || router.run());

        let create = Request::CreateSession { group: group_doc(), rules: RULES.into() };
        for _ in 0..2 {
            let pending: Vec<_> = (0..2).map(|_| send_raw(addr, &create)).collect();
            for stream in pending {
                match read_reply(stream) {
                    Response::Err { code, .. } => assert_eq!(code, ErrorCode::Unavailable),
                    other => panic!("a silent shard must time out, got {other:?}"),
                }
            }
        }
        handle.shutdown();
    }

    /// Requests pipelined on one router connection are answered in
    /// request order although two workers run them, and an oversized
    /// frame is answered `frame_too_large` without dropping the
    /// connection. The router counts its own admission in the `cluster`
    /// object of `stats`, apart from the shards' merged counters.
    #[test]
    fn pipelined_requests_answer_in_order_and_oversized_frames_keep_the_connection() {
        use std::io::{BufRead, BufReader};

        let (s0, h0) = spawn_server(2);
        let (addr, router) = spawn_router(RouterConfig {
            shards: vec![ShardSpec { addr: s0.to_string(), follower: None }],
            pool_per_shard: 2,
            ..RouterConfig::default()
        });
        let mut client = Client::connect(addr).expect("connect router");
        let sid = client.create_session(&group_doc(), RULES).expect("create");

        // What each pipelined request must be answered with, in order.
        enum Want {
            SessionStats,
            Missing(u64),
            Pong,
            TooLarge,
        }
        let mut frames = String::new();
        let mut wants = Vec::new();
        for i in 0..30u64 {
            if i == 15 {
                frames.push_str(&"x".repeat(DEFAULT_MAX_FRAME_BYTES + 10));
                frames.push('\n');
                wants.push(Want::TooLarge);
            }
            let (req, want) = match i % 3 {
                0 => (Request::Stats { session: Some(sid) }, Want::SessionStats),
                1 => (Request::Stats { session: Some(1000 + i) }, Want::Missing(1000 + i)),
                _ => (Request::Ping, Want::Pong),
            };
            frames.push_str(&dime_serve::encode_frame(&req.to_value()));
            wants.push(want);
        }
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        stream.write_all(frames.as_bytes()).expect("pipeline");
        let mut lines = BufReader::new(stream).lines();
        for (i, want) in wants.iter().enumerate() {
            let line = lines.next().expect("a reply per request").expect("read reply");
            let v: Value = serde_json::from_str(&line).expect("json reply");
            let resp = Response::from_value(&v).expect("response");
            match (want, resp) {
                (Want::SessionStats, Response::Ok(v)) => assert_eq!(v["entities"], 0, "reply {i}"),
                (Want::Missing(id), Response::Err { code, message }) => {
                    assert_eq!(code, ErrorCode::NoSuchSession, "reply {i}");
                    assert!(message.contains(&format!("session {id} ")), "reply {i}: {message}");
                }
                (Want::Pong, Response::Ok(v)) => assert_eq!(v["pong"], true, "reply {i}"),
                (Want::TooLarge, Response::Err { code, .. }) => {
                    assert_eq!(code, ErrorCode::FrameTooLarge, "reply {i}")
                }
                (_, other) => panic!("reply {i} out of order: {other:?}"),
            }
        }

        let stats = client.stats(None).expect("stats");
        assert_eq!(stats["cluster"]["oversized_frames"], 1);
        assert_eq!(stats["cluster"]["overloaded"], 0);
        assert!(stats["cluster"]["connections"].as_u64().expect("connections") >= 2);
        assert!(stats["cluster"]["requests"].as_u64().expect("requests") >= 32);
        assert_eq!(stats["oversized_frames"], 0, "the shard saw no oversized frame");

        router.shutdown();
        h0.shutdown();
    }
}
