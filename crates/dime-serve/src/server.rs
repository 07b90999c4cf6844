//! The discovery server: a [`SessionStore`] of live incremental engines
//! behind [`handle_request`]. It serves on the one path every front end
//! of the protocol shares (`pool.rs`, DESIGN.md §10): the epoll admission
//! loop of `poll.rs`, the only code that touches a client socket, in
//! front of a worker pool that pulls decoded ops off a *bounded* queue
//! one at a time — a full queue is backpressure, answered with the
//! retryable `overloaded` error. An `add_entities` op takes the session
//! lock once, feeds its rows to `IncrementalDime::add_entity` in order,
//! and logs them as one WAL batch.
//!
//! Each connection's frames are split by the size-capped
//! [`JsonLines`](crate::JsonLines) codec, dispatched, and answered in
//! order, so pipelined requests get pipelined responses. Whitespace-only
//! lines are ignored (a trailing newline from shell clients is not an
//! error).
//!
//! Shutdown is graceful by construction: the `shutdown` request (or
//! [`ServerHandle::shutdown`]) sets a flag the poll loop checks every
//! poll interval. New connections stop being admitted; every held
//! connection keeps being served until the peer closes or two consecutive
//! poll intervals pass with no new frame — fully received requests are
//! in-flight work and always get their response. `run` returns once every
//! queued op has drained.

use crate::metrics::GlobalMetrics;
use crate::persist::{persist_new_session, rebuild_session, store_stats_to_value, SessionPersist};
use crate::pool::Admission;
use crate::protocol::{
    polarity_str, ErrorCode, JsonLines, Request, Response, RuleAction, DEFAULT_MAX_FRAME_BYTES,
};
use crate::session::{lock, Session, SessionStore};
use dime_core::{parse_rules, IncrementalDime, Polarity, Rule, Schema};
use dime_data::{discovery_to_json, entity_row_values, load_group_value};
use dime_rulegen::{
    generate_negative_rules, generate_positive_rules, rules_cover, FunctionLibrary, GreedyConfig,
};
use dime_store::{Store, StoreConfig};
use dime_trace::{span, Recorder, TraceSink};
use serde_json::{json, Value};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Worker threads; `0` resolves to the available cores, floored at 4
    /// so a small box still serves several persistent connections.
    pub workers: usize,
    /// Bound of the admission→verify op queue. A full queue answers
    /// `overloaded` instead of buffering without limit.
    pub queue_capacity: usize,
    /// Hard cap on one request or response frame, in bytes.
    pub max_frame_bytes: usize,
    /// Admission limit on entities per `create_session`/`add_entities`.
    pub max_entities_per_request: usize,
    /// Cap on concurrently live sessions.
    pub max_sessions: usize,
    /// Poll-loop granularity — how often the admission loop re-checks
    /// the shutdown flag and sweeps idle connections; also the unit of
    /// the drain grace period.
    pub poll_interval: Duration,
    /// Connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Write timeout per response frame.
    pub write_timeout: Duration,
    /// Durable persistence (`dime-store`): `None` — the default — keeps
    /// every session memory-only; `Some` logs each session to a WAL
    /// under the store's data directory and recovers live sessions on
    /// the next bind.
    pub store: Option<StoreConfig>,
    /// Replication hook: when set (and `store` is set), every committed
    /// WAL record of every session — freshly created or recovered — is
    /// offered to the tap post-durability. `dime-cluster` uses this to
    /// stream a shard's log to its follower.
    pub replication: Option<WalTapHandle>,
}

/// A cloneable, `Debug`-able wrapper around a shared [`dime_store::WalTap`]
/// so a replication hook can ride inside the otherwise plain-data
/// [`ServeConfig`].
#[derive(Clone)]
pub struct WalTapHandle(Arc<dyn dime_store::WalTap>);

impl WalTapHandle {
    /// Wraps a tap for [`ServeConfig::replication`].
    pub fn new(tap: Arc<dyn dime_store::WalTap>) -> Self {
        Self(tap)
    }

    /// A shared reference to the underlying tap.
    pub fn tap(&self) -> Arc<dyn dime_store::WalTap> {
        Arc::clone(&self.0)
    }
}

impl std::fmt::Debug for WalTapHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalTapHandle(..)")
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 1024,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_entities_per_request: 4096,
            max_sessions: 4096,
            poll_interval: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            store: None,
            replication: None,
        }
    }
}

/// State shared by the worker pool and [`ServerHandle`]s.
struct Shared {
    /// The server's config, shutdown flag and admission counters.
    admission: Admission,
    store: SessionStore,
    metrics: GlobalMetrics,
    /// Trace sink shared by every session's engine and the admission
    /// loop; the `trace` op snapshots it. Engine counters and phase spans
    /// from all sessions aggregate here.
    recorder: Arc<Recorder>,
    /// The durable store, when the server persists sessions. Named apart
    /// from `store` (the live session map) on purpose.
    persistence: Option<Arc<Store>>,
    started: Instant,
}

impl Shared {
    /// Builds the shared state, opening the durable store when one is
    /// configured. Recovery is a separate step ([`recover_persisted`])
    /// so tests can drive it explicitly.
    fn new(config: ServeConfig, addr: SocketAddr) -> io::Result<Self> {
        let persistence = match &config.store {
            Some(sc) => Some(Arc::new(Store::open(sc.clone())?)),
            None => None,
        };
        Ok(Self {
            store: SessionStore::new(config.max_sessions),
            admission: Admission::new(config, addr),
            metrics: GlobalMetrics::default(),
            recorder: Arc::new(Recorder::new()),
            persistence,
            // dime-check: allow(wall-clock-in-core) — uptime epoch for the stats endpoint; never feeds discovery results
            started: Instant::now(),
        })
    }
}

/// A cloneable handle for observing and stopping a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (with the real port when `0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.admission.addr()
    }

    /// Initiates graceful shutdown, equivalent to a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.admission.initiate_shutdown();
    }
}

/// A bound, not-yet-running discovery server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the configured address. The server does not accept
    /// connections until [`Server::run`] is called.
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config, addr)?);
        recover_persisted(&shared)?;
        Ok(Self { listener, shared })
    }

    /// The bound address (with the real port when `0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.admission.addr()
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until shutdown is initiated, then drains: held connections
    /// finish their buffered requests and every queued op gets its
    /// response before the pool exits. The calling thread runs the
    /// admission poll loop; the worker pool runs `handle_request`.
    pub fn run(self) -> io::Result<()> {
        let shared = &*self.shared;
        let codec = JsonLines { max_frame_bytes: shared.admission.config().max_frame_bytes };
        shared.admission.serve(self.listener, shared.recorder.as_ref(), &codec, |req| {
            handle_request(req, shared)
        })
    }
}

/// Replays every durable session from the store into the live session
/// map, under a `recover` trace span. A session whose stored state no
/// longer rebuilds (e.g. a rules-format change) is skipped with a
/// warning — recovery never turns one bad directory into a failed boot —
/// while IO errors on the store itself do fail the bind: serving with
/// silently dropped durable state would be worse than not starting.
fn recover_persisted(shared: &Shared) -> io::Result<()> {
    let Some(persistence) = &shared.persistence else { return Ok(()) };
    let _s = span(shared.recorder.as_ref(), "recover");
    let snapshot_every = persistence.config().snapshot_every;
    for (id, mut rec) in persistence.recover_sessions()? {
        let sink: Arc<dyn TraceSink + Send + Sync> = shared.recorder.clone();
        let mut session = match rebuild_session(&rec.state, sink.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dime-serve: skipping durable session {id}: {e}");
                continue;
            }
        };
        // A recovered session resumes replicating where it left off.
        if let Some(handle) = &shared.admission.config().replication {
            rec.wal.set_tap(id, handle.tap());
        }
        session.persist = Some(SessionPersist::resume(rec, snapshot_every, sink));
        shared.store.restore(id, session);
    }
    Ok(())
}

/// The `add_entities` handler. The entity limit is checked before the
/// session lookup, and every row is validated before anything mutates, so
/// no row of a rejected request lands. The admitted rows then go through
/// the engine in order and into one WAL batch: one fsync decision for the
/// whole request.
fn handle_add(session: u64, entities: &[Value], shared: &Shared) -> Response {
    if let Err(resp) =
        entity_limit("request", entities.len(), shared.admission.config().max_entities_per_request)
    {
        return resp;
    }
    let Some(sess) = shared.store.get(session) else {
        return no_such_session(session);
    };
    let mut guard = lock(&sess);
    let sess = &mut *guard;
    sess.metrics.requests += 1;
    let names: Vec<&str> = sess.attr_names.iter().map(String::as_str).collect();
    let rows = match entities
        .iter()
        .enumerate()
        .map(|(i, row)| {
            entity_row_values(row, &names).map_err(|e| {
                Response::err(ErrorCode::BadRequest, format!("entity {i}: {}", e.message))
            })
        })
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(rows) => rows,
        Err(resp) => return resp,
    };
    let ids: Vec<usize> = rows
        .iter()
        .map(|values| {
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            sess.engine.add_entity(&refs)
        })
        .collect();
    sess.metrics.entities_added += ids.len() as u64;
    if let Some(p) = sess.persist.as_mut() {
        p.log_add_batch(rows);
    }
    Response::Ok(json!({"ids": ids, "entities": sess.engine.len()}))
}

/// The admission limit on entities per request; `what` names the
/// carrier in the error message.
fn entity_limit(what: &str, count: usize, limit: usize) -> Result<(), Response> {
    if count > limit {
        return Err(Response::err(
            ErrorCode::TooManyEntities,
            format!("{what} carries {count} entities; the limit is {limit}"),
        ));
    }
    Ok(())
}

fn no_such_session(id: u64) -> Response {
    Response::err(ErrorCode::NoSuchSession, format!("session {id} does not exist"))
}

/// Pure request dispatch — everything below the framing layer, shared by
/// the unit tests (which exercise it without sockets) and the workers.
fn handle_request(req: &Request, shared: &Shared) -> Response {
    let cfg = shared.admission.config();
    match req {
        Request::Ping => Response::Ok(json!({"pong": true})),
        Request::Shutdown => Response::Ok(json!({"shutting_down": true})),
        Request::CreateSession { group, rules } => {
            if shared.admission.is_shutting_down() {
                return Response::err(
                    ErrorCode::ShuttingDown,
                    "server is draining; no new sessions",
                );
            }
            let loaded = match load_group_value(group) {
                Ok(g) => g,
                Err(e) => return Response::err(ErrorCode::BadRequest, e.message),
            };
            if let Err(resp) = entity_limit("group", loaded.len(), cfg.max_entities_per_request) {
                return resp;
            }
            let parsed = match parse_rules(rules, loaded.schema()) {
                Ok(r) => r,
                Err(e) => return Response::err(ErrorCode::BadRequest, format!("bad rules: {e}")),
            };
            let (pos, neg): (Vec<Rule>, Vec<Rule>) =
                parsed.into_iter().partition(|r| r.polarity == Polarity::Positive);
            if pos.is_empty() || neg.is_empty() {
                return Response::err(
                    ErrorCode::BadRequest,
                    "rules must include at least one positive and one negative rule",
                );
            }
            // The id is claimed before the engine is built so the
            // session's WAL can be created under its final id.
            let Some(id) = shared.store.allocate_id() else {
                return Response::err(
                    ErrorCode::TooManySessions,
                    format!("live-session limit of {} reached", cfg.max_sessions),
                );
            };
            let entities = loaded.len();
            let sink: Arc<dyn TraceSink + Send + Sync> = shared.recorder.clone();
            let engine = IncrementalDime::new(loaded, pos, neg).with_sink(sink.clone());
            let mut session = Session::new(engine);
            // The initial group's rows count toward the session's
            // entities_added, so closing the session banks them like any
            // other per-session counter.
            session.metrics.entities_added = entities as u64;
            if let Some(persistence) = &shared.persistence {
                let tap = shared.admission.config().replication.as_ref().map(WalTapHandle::tap);
                session.persist = persist_new_session(
                    persistence,
                    id,
                    group,
                    rules,
                    &session.attr_names,
                    sink,
                    tap,
                );
            }
            shared.store.insert_at(id, session);
            GlobalMetrics::bump(&shared.metrics.sessions_created);
            Response::Ok(json!({"session": id, "entities": entities}))
        }
        Request::AddEntities { session, entities } => handle_add(*session, entities, shared),
        Request::RemoveEntity { session, entity } => {
            let Some(sess) = shared.store.get(*session) else {
                return no_such_session(*session);
            };
            let mut sess = lock(&sess);
            sess.metrics.requests += 1;
            if !sess.engine.remove_entity(*entity) {
                return Response::err(
                    ErrorCode::NoSuchEntity,
                    format!("entity {entity} out of range (session holds {})", sess.engine.len()),
                );
            }
            sess.metrics.entities_removed += 1;
            sess.shift_labels_for_removal(*entity);
            if let Some(p) = sess.persist.as_mut() {
                p.log_remove(*entity);
            }
            Response::Ok(json!({"removed": entity, "entities": sess.engine.len()}))
        }
        Request::Discovery { session } => with_discovery(shared, *session, |sess, d| {
            Response::Ok(discovery_to_json(sess.engine.group(), d))
        }),
        Request::Scrollbar { session, step } => {
            let step = *step;
            with_discovery(shared, *session, |_, d| {
                let Some(s) = d.steps.get(step) else {
                    return Response::err(
                        ErrorCode::BadRequest,
                        format!("step {step} out of range ({} steps)", d.steps.len()),
                    );
                };
                Response::Ok(json!({
                    "step": step,
                    "rules_applied": s.rules_applied,
                    "flagged": s.flagged.iter().copied().collect::<Vec<_>>(),
                    "pivot": d.pivot,
                }))
            })
        }
        Request::Stats { session: Some(id) } => {
            let Some(sess) = shared.store.get(*id) else {
                return no_such_session(*id);
            };
            let mut sess = lock(&sess);
            sess.metrics.requests += 1;
            Response::Ok(sess.metrics.to_value(sess.engine.len(), sess.engine.pairs_verified()))
        }
        Request::Stats { session: None } => {
            let mut v =
                shared.metrics.to_value(shared.store.len() as u64, &shared.store.aggregate());
            if let Some(obj) = v.as_object_mut() {
                shared.admission.metrics().write_into(obj);
                obj.insert(
                    "uptime_micros".into(),
                    json!(u64::try_from(shared.started.elapsed().as_micros()).unwrap_or(u64::MAX)),
                );
                if let Some(persistence) = &shared.persistence {
                    obj.insert(
                        "store".into(),
                        store_stats_to_value(&persistence.stats().snapshot()),
                    );
                }
            }
            Response::Ok(v)
        }
        Request::Trace => {
            Response::Ok(crate::metrics::trace_report_to_value(&shared.recorder.snapshot()))
        }
        Request::Rules { session, action } => handle_rules(shared, *session, action),
        Request::Feedback { session, labels, apply } => {
            handle_feedback(shared, *session, labels, *apply)
        }
        Request::CloseSession { session } => {
            let sess = shared.store.get(*session);
            if shared.store.remove(*session) {
                // Bank every per-session counter of the detached session
                // so the global totals survive the close. Exactly one
                // closer wins the `remove` race, so the counters are
                // banked exactly once.
                if let Some(sess) = sess {
                    let mut guard = lock(&sess);
                    shared.metrics.closed.absorb(&guard.metrics, guard.engine.pairs_verified());
                    // A durable `close` record first, then the directory
                    // goes: even if the removal is lost to a crash, the
                    // record keeps the session from resurrecting.
                    if let Some(p) = guard.persist.take() {
                        p.close();
                    }
                }
                if let Some(persistence) = &shared.persistence {
                    if let Err(e) = persistence.remove_session(*session) {
                        persistence.stats().bump_wal_failures();
                        eprintln!("dime-serve: could not remove session {session} data: {e}");
                    }
                }
                GlobalMetrics::bump(&shared.metrics.sessions_closed);
                Response::Ok(json!({"closed": session}))
            } else {
                no_such_session(*session)
            }
        }
    }
}

/// Cap on the entity pairs the install validation exercises per rule —
/// enough for the degeneracy verdict, bounded so installs stay cheap on
/// large sessions.
const MAX_EXERCISE_PAIRS: usize = 256;

/// Renders a rule set in the simple `parse_rules` DSL, one rule per line
/// — the format the session's `open` WAL record carries, so a logged
/// rule-set replacement replays through the same parse path.
fn rules_to_simple_dsl(positive: &[Rule], negative: &[Rule], schema: &Schema) -> String {
    positive.iter().chain(negative).map(|r| r.to_dsl(schema)).collect::<Vec<_>>().join("\n")
}

/// Swaps the engine onto a new rule set and mirrors the change into the
/// session's WAL.
fn apply_rules(sess: &mut Session, positive: Vec<Rule>, negative: Vec<Rule>) {
    let text = rules_to_simple_dsl(&positive, &negative, sess.engine.group().schema());
    sess.engine.set_rules(positive, negative);
    if let Some(p) = sess.persist.as_mut() {
        p.log_set_rules(text);
    }
}

/// Validates and installs a complete replacement rule set: both
/// polarities stay populated (the invariant recovery's `rebuild_engine`
/// replays under), and every rule is exercised against a sample of the
/// session's own pairs before anything changes — a rule that fires on
/// every sampled pair is rejected as non-discriminating.
fn install_rules(
    sess: &mut Session,
    positive: Vec<Rule>,
    negative: Vec<Rule>,
    warnings: &[dime_rulespec::SemFinding],
) -> Response {
    if positive.is_empty() || negative.is_empty() {
        return Response::err(
            ErrorCode::RuleRejected,
            "rule set must keep at least one positive and one negative rule",
        );
    }
    let all: Vec<Rule> = positive.iter().chain(&negative).cloned().collect();
    let report = match dime_rulespec::validate_rules(sess.engine.group(), &all, MAX_EXERCISE_PAIRS)
    {
        Ok(r) => r,
        Err(msg) => return Response::err(ErrorCode::RuleRejected, msg),
    };
    let (np, nn) = (positive.len(), negative.len());
    apply_rules(sess, positive, negative);
    Response::Ok(json!({
        "installed": {"positive": np, "negative": nn},
        "exercised_pairs": report.pairs,
        "fired": report.fired,
        "warnings": warnings
            .iter()
            .map(|w| json!({"kind": w.kind.tag(), "message": w.message}))
            .collect::<Vec<_>>(),
    }))
}

/// Renders semck findings as one `rule_rejected` message. Each finding
/// already names the offending rules in canonical rulespec syntax.
fn semck_rejection(findings: &[dime_rulespec::SemFinding]) -> Response {
    let lines: Vec<String> =
        findings.iter().map(|f| format!("[{}] {}", f.kind.tag(), f.message)).collect();
    Response::err(
        ErrorCode::RuleRejected,
        format!(
            "strict install rejected: {} semantic finding{}: {}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            lines.join("; "),
        ),
    )
}

/// The `rules` op: install a rulespec, ablate one rule, or list the
/// current set as canonical rulespec text.
fn handle_rules(shared: &Shared, session: u64, action: &RuleAction) -> Response {
    let Some(sess) = shared.store.get(session) else {
        return no_such_session(session);
    };
    let mut guard = lock(&sess);
    let sess = &mut *guard;
    sess.metrics.requests += 1;
    match action {
        RuleAction::Install { spec, strict } => {
            let compiled =
                match dime_rulespec::compile_str("<install>", spec, sess.engine.group().schema()) {
                    Ok(c) => c,
                    Err(d) => return Response::err(ErrorCode::RuleRejected, d.to_string()),
                };
            let findings = dime_rulespec::semck_spec(&compiled, sess.engine.group().schema());
            if *strict && !findings.is_empty() {
                return semck_rejection(&findings);
            }
            install_rules(sess, compiled.positive, compiled.negative, &findings)
        }
        RuleAction::Ablate { polarity, index } => {
            let mut positive = sess.engine.positive_rules().to_vec();
            let mut negative = sess.engine.negative_rules().to_vec();
            let list = match polarity {
                Polarity::Positive => &mut positive,
                Polarity::Negative => &mut negative,
            };
            if *index >= list.len() {
                return Response::err(
                    ErrorCode::BadRequest,
                    format!(
                        "rule index {index} out of range ({} {} rules)",
                        list.len(),
                        polarity_str(*polarity)
                    ),
                );
            }
            if list.len() == 1 {
                return Response::err(
                    ErrorCode::RuleRejected,
                    format!(
                        "cannot ablate the last {} rule; the engine needs at least one of \
                         each polarity",
                        polarity_str(*polarity)
                    ),
                );
            }
            let removed = list.remove(*index);
            let removed_text = removed.to_dsl(sess.engine.group().schema());
            // No re-validation: every surviving rule already passed the
            // exercise when it was installed, and removing a rule cannot
            // make another one degenerate.
            apply_rules(sess, positive, negative);
            Response::Ok(json!({
                "ablated": {
                    "polarity": polarity_str(*polarity),
                    "index": index,
                    "rule": removed_text,
                },
                "positive": sess.engine.positive_rules().len(),
                "negative": sess.engine.negative_rules().len(),
            }))
        }
        RuleAction::List => {
            let schema = sess.engine.group().schema();
            match dime_rulespec::render_rules(
                sess.engine.positive_rules(),
                sess.engine.negative_rules(),
                schema,
            ) {
                Ok(spec) => Response::Ok(json!({
                    "spec": spec,
                    "positive": sess.engine.positive_rules().len(),
                    "negative": sess.engine.negative_rules().len(),
                })),
                Err(e) => Response::err(
                    ErrorCode::Internal,
                    format!("rules are not renderable as rulespec: {e}"),
                ),
            }
        }
    }
}

/// The `feedback` op — the incremental refinement loop. Labels
/// accumulate on the session; each call derives example pairs from the
/// effective verdicts (member×member pairs are wanted together,
/// member×outlier pairs wanted apart), finds the pairs the current rules
/// miss, runs greedy rule generation on exactly that residual, and
/// answers with the refined rulespec — installed too when `apply` is set
/// and generation produced something new.
fn handle_feedback(
    shared: &Shared,
    session: u64,
    labels: &[(usize, bool)],
    apply: bool,
) -> Response {
    let Some(sess) = shared.store.get(session) else {
        return no_such_session(session);
    };
    let mut guard = lock(&sess);
    let sess = &mut *guard;
    sess.metrics.requests += 1;
    let len = sess.engine.len();
    for &(entity, _) in labels {
        if entity >= len {
            return Response::err(
                ErrorCode::NoSuchEntity,
                format!("label references entity {entity}, but the session holds {len}"),
            );
        }
    }
    sess.labels.extend_from_slice(labels);
    let effective = sess.effective_labels();
    let members: Vec<usize> = effective.iter().filter(|(_, b)| *b).map(|(e, _)| *e).collect();
    let outliers: Vec<usize> = effective.iter().filter(|(_, b)| !*b).map(|(e, _)| *e).collect();
    let mut wanted: Vec<(usize, usize)> = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        for &b in members.get(i + 1..).unwrap_or(&[]) {
            wanted.push((a, b));
        }
    }
    let mut unwanted: Vec<(usize, usize)> = Vec::new();
    for &a in &members {
        for &b in &outliers {
            unwanted.push((a.min(b), a.max(b)));
        }
    }

    let group = sess.engine.group();
    let positive = sess.engine.positive_rules().to_vec();
    let negative = sess.engine.negative_rules().to_vec();
    let residual_pos: Vec<(usize, usize)> =
        wanted.iter().copied().filter(|&p| !rules_cover(group, &positive, p)).collect();
    let residual_neg: Vec<(usize, usize)> =
        unwanted.iter().copied().filter(|&p| !rules_cover(group, &negative, p)).collect();
    let covered_before =
        (wanted.len() - residual_pos.len()) + (unwanted.len() - residual_neg.len());

    let lib = FunctionLibrary::default_for(group);
    let cfg = GreedyConfig::default();
    let mut new_pos = if residual_pos.is_empty() {
        Vec::new()
    } else {
        generate_positive_rules(group, &residual_pos, &unwanted, &lib, &cfg)
    };
    let mut new_neg = if residual_neg.is_empty() {
        Vec::new()
    } else {
        generate_negative_rules(group, &wanted, &residual_neg, &lib, &cfg)
    };
    new_pos.retain(|r| !positive.contains(r));
    new_neg.retain(|r| !negative.contains(r));

    let refined_pos: Vec<Rule> = positive.iter().cloned().chain(new_pos.iter().cloned()).collect();
    let refined_neg: Vec<Rule> = negative.iter().cloned().chain(new_neg.iter().cloned()).collect();
    let covered_after = wanted.iter().filter(|&&p| rules_cover(group, &refined_pos, p)).count()
        + unwanted.iter().filter(|&&p| rules_cover(group, &refined_neg, p)).count();
    let spec = match dime_rulespec::render_rules(&refined_pos, &refined_neg, group.schema()) {
        Ok(s) => s,
        Err(e) => {
            return Response::err(
                ErrorCode::Internal,
                format!("refined rules are not renderable as rulespec: {e}"),
            )
        }
    };
    let applied = apply && (!new_pos.is_empty() || !new_neg.is_empty());
    if applied {
        apply_rules(sess, refined_pos, refined_neg);
    }
    Response::Ok(json!({
        "labels": effective.len(),
        "pairs": {"positive": wanted.len(), "negative": unwanted.len()},
        "residual": {"positive": residual_pos.len(), "negative": residual_neg.len()},
        "generated": {"positive": new_pos.len(), "negative": new_neg.len()},
        "covered_before": covered_before,
        "covered_after": covered_after,
        "spec": spec,
        "applied": applied,
    }))
}

/// Common body of `discovery` and `scrollbar`: locate the session, guard
/// the empty group, time the discovery run, record latencies, then let
/// `render` shape the payload.
fn with_discovery(
    shared: &Shared,
    session: u64,
    render: impl FnOnce(&Session, &dime_core::Discovery) -> Response,
) -> Response {
    let Some(sess) = shared.store.get(session) else {
        return no_such_session(session);
    };
    let mut guard = lock(&sess);
    let sess = &mut *guard;
    sess.metrics.requests += 1;
    if sess.engine.is_empty() {
        return Response::err(ErrorCode::EmptyGroup, "discovery needs at least one entity");
    }
    // dime-check: allow(wall-clock-in-core) — latency measurement feeding metrics only, not results
    let start = Instant::now();
    let d = sess.engine.discovery();
    let elapsed = start.elapsed();
    sess.metrics.discoveries += 1;
    sess.metrics.record_flag_latency(elapsed);
    render(sess, &d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Shared {
        let config =
            ServeConfig { max_entities_per_request: 8, max_sessions: 4, ..ServeConfig::default() };
        Shared::new(config, "127.0.0.1:1".parse().unwrap()).unwrap()
    }

    /// A `Shared` persisting to `dir`, with recovery already run — the
    /// socketless equivalent of `Server::bind` on a data directory.
    fn shared_on_dir(dir: &std::path::Path) -> Shared {
        let config = ServeConfig {
            max_entities_per_request: 8,
            max_sessions: 4,
            store: Some(StoreConfig {
                data_dir: dir.to_path_buf(),
                fsync: dime_store::FsyncPolicy::Never,
                snapshot_every: 3,
            }),
            ..ServeConfig::default()
        };
        let s = Shared::new(config, "127.0.0.1:1".parse().unwrap()).unwrap();
        recover_persisted(&s).unwrap();
        s
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dime-serve-{tag}-{}-{n}", std::process::id()))
    }

    fn group_doc() -> Value {
        json!({
            "schema": [
                {"name": "Title", "tokenizer": "words"},
                {"name": "Authors", "tokenizer": {"list": ","}}
            ],
            "entities": []
        })
    }

    const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";

    fn create(shared: &Shared) -> u64 {
        let resp = handle_request(
            &Request::CreateSession { group: group_doc(), rules: RULES.into() },
            shared,
        );
        match resp {
            Response::Ok(v) => v["session"].as_u64().unwrap(),
            Response::Err { code, message } => panic!("create failed: {code} {message}"),
        }
    }

    fn expect_err(resp: Response, code: ErrorCode) {
        match resp {
            Response::Err { code: c, .. } => assert_eq!(c, code),
            Response::Ok(v) => panic!("expected {code}, got ok: {v}"),
        }
    }

    #[test]
    fn ping_pongs() {
        let s = shared();
        assert_eq!(handle_request(&Request::Ping, &s), Response::Ok(json!({"pong": true})));
    }

    #[test]
    fn full_session_lifecycle_matches_batch_discovery() {
        let s = shared();
        let id = create(&s);
        let rows = vec![
            json!(["data cleaning", "ann, bob"]),
            json!({"Title": "data quality", "Authors": "ann, bob, carl"}),
            json!(["organic synthesis", "dora"]),
        ];
        let resp = handle_request(&Request::AddEntities { session: id, entities: rows }, &s);
        let Response::Ok(v) = resp else { panic!("add failed: {resp:?}") };
        assert_eq!(v["ids"], json!([0, 1, 2]));

        let Response::Ok(report) = handle_request(&Request::Discovery { session: id }, &s) else {
            panic!("discovery failed")
        };
        assert_eq!(report["partitions"].as_array().unwrap().len(), 2);
        let flagged = report["mis_categorized"].as_array().unwrap();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0]["Authors"], "dora");

        // The scrollbar step mirrors the report's first step.
        let Response::Ok(step) = handle_request(&Request::Scrollbar { session: id, step: 0 }, &s)
        else {
            panic!("scrollbar failed")
        };
        assert_eq!(step["flagged"], report["steps"][0]["flagged"]);

        expect_err(
            handle_request(&Request::Scrollbar { session: id, step: 99 }, &s),
            ErrorCode::BadRequest,
        );

        let Response::Ok(stats) = handle_request(&Request::Stats { session: Some(id) }, &s) else {
            panic!("stats failed")
        };
        assert_eq!(stats["entities"], 3);
        // discovery + both scrollbar calls ran the engine (the
        // out-of-range step fails only after flagging).
        assert_eq!(stats["discoveries"], 3);
        assert!(stats["pairs_verified"].as_u64().unwrap() > 0);

        let Response::Ok(closed) = handle_request(&Request::CloseSession { session: id }, &s)
        else {
            panic!("close failed")
        };
        assert_eq!(closed["closed"], id);
        expect_err(
            handle_request(&Request::Discovery { session: id }, &s),
            ErrorCode::NoSuchSession,
        );

        // The closed session's verified pairs stay in the global total.
        let Response::Ok(global) = handle_request(&Request::Stats { session: None }, &s) else {
            panic!("global stats failed")
        };
        assert!(global["pairs_verified"].as_u64().unwrap() > 0);
        assert_eq!(global["sessions"]["live"], 0);
    }

    #[test]
    fn remove_entity_roundtrip() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![json!(["a", "ann, bob"]), json!(["b", "zed, yan"])],
            },
            &s,
        );
        let Response::Ok(v) = handle_request(&Request::RemoveEntity { session: id, entity: 0 }, &s)
        else {
            panic!("remove failed")
        };
        assert_eq!(v["entities"], 1);
        expect_err(
            handle_request(&Request::RemoveEntity { session: id, entity: 5 }, &s),
            ErrorCode::NoSuchEntity,
        );
    }

    #[test]
    fn empty_group_discovery_is_a_structured_error() {
        let s = shared();
        let id = create(&s);
        expect_err(handle_request(&Request::Discovery { session: id }, &s), ErrorCode::EmptyGroup);
    }

    #[test]
    fn bad_rows_do_not_half_apply() {
        let s = shared();
        let id = create(&s);
        expect_err(
            handle_request(
                &Request::AddEntities {
                    session: id,
                    entities: vec![json!(["good", "ann"]), json!(["arity mismatch"])],
                },
                &s,
            ),
            ErrorCode::BadRequest,
        );
        let Response::Ok(stats) = handle_request(&Request::Stats { session: Some(id) }, &s) else {
            panic!("stats failed")
        };
        assert_eq!(stats["entities"], 0, "no row of a rejected batch may land");
    }

    #[test]
    fn admission_limits_are_enforced() {
        let s = shared();
        let id = create(&s);
        let rows: Vec<Value> = (0..9).map(|i| json!([format!("t{i}"), "ann"])).collect();
        expect_err(
            handle_request(&Request::AddEntities { session: id, entities: rows }, &s),
            ErrorCode::TooManyEntities,
        );
        for _ in 0..3 {
            create(&s);
        }
        expect_err(
            handle_request(&Request::CreateSession { group: group_doc(), rules: RULES.into() }, &s),
            ErrorCode::TooManySessions,
        );
    }

    #[test]
    fn create_session_rejects_bad_input() {
        let s = shared();
        expect_err(
            handle_request(
                &Request::CreateSession { group: json!({"entities": []}), rules: RULES.into() },
                &s,
            ),
            ErrorCode::BadRequest,
        );
        expect_err(
            handle_request(
                &Request::CreateSession { group: group_doc(), rules: "gibberish".into() },
                &s,
            ),
            ErrorCode::BadRequest,
        );
        expect_err(
            handle_request(
                &Request::CreateSession {
                    group: group_doc(),
                    rules: "positive: overlap(Authors) >= 2".into(),
                },
                &s,
            ),
            ErrorCode::BadRequest,
        );
    }

    #[test]
    fn shutdown_refuses_new_sessions_but_serves_existing() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities { session: id, entities: vec![json!(["t", "ann"])] },
            &s,
        );
        s.admission.initiate_shutdown();
        expect_err(
            handle_request(&Request::CreateSession { group: group_doc(), rules: RULES.into() }, &s),
            ErrorCode::ShuttingDown,
        );
        assert!(handle_request(&Request::Discovery { session: id }, &s).is_ok());
    }

    #[test]
    fn global_stats_snapshot() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities { session: id, entities: vec![json!(["t", "ann"])] },
            &s,
        );
        GlobalMetrics::bump(&s.admission.metrics.requests);
        let Response::Ok(v) = handle_request(&Request::Stats { session: None }, &s) else {
            panic!("stats failed")
        };
        assert_eq!(v["sessions"]["live"], 1);
        assert_eq!(v["entities_added"], 1);
        assert!(v["uptime_micros"].as_u64().is_some());
    }

    /// Closing a session must not erase ANY of its counters from the
    /// global stats — every per-session counter is banked through the
    /// same path (the original code banked only `pairs_verified`, so
    /// `entities_added` and friends silently dropped on close).
    #[test]
    fn session_close_banks_all_counters() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![json!(["a", "ann, bob"]), json!(["b", "ann, bob"])],
            },
            &s,
        );
        handle_request(&Request::Discovery { session: id }, &s);
        handle_request(&Request::RemoveEntity { session: id, entity: 1 }, &s);
        handle_request(&Request::CloseSession { session: id }, &s);

        let Response::Ok(v) = handle_request(&Request::Stats { session: None }, &s) else {
            panic!("global stats failed")
        };
        assert_eq!(v["sessions"]["live"], 0);
        assert_eq!(v["entities_added"], 2, "entities_added must survive session close");
        assert_eq!(v["entities_removed"], 1, "entities_removed must survive session close");
        assert_eq!(v["discoveries"], 1, "discoveries must survive session close");
        assert!(v["pairs_verified"].as_u64().unwrap() > 0);
        assert_eq!(v["flag_latency"]["count"], 1, "latency histogram must survive close");
        assert_eq!(v["session_requests"], 3);
    }

    /// Rows carried by the `create_session` group document land in the
    /// session's own counters, so they bank on close like rows added
    /// through `add_entities`.
    #[test]
    fn initial_group_rows_count_and_bank() {
        let s = shared();
        let doc = json!({
            "schema": [
                {"name": "Title", "tokenizer": "words"},
                {"name": "Authors", "tokenizer": {"list": ","}}
            ],
            "entities": [["t1", "ann, bob"], ["t2", "ann, bob"]]
        });
        let Response::Ok(v) =
            handle_request(&Request::CreateSession { group: doc, rules: RULES.into() }, &s)
        else {
            panic!("create failed")
        };
        let id = v["session"].as_u64().unwrap();
        assert_eq!(v["entities"], 2);

        let Response::Ok(live) = handle_request(&Request::Stats { session: None }, &s) else {
            panic!("stats failed")
        };
        assert_eq!(live["entities_added"], 2);

        handle_request(&Request::CloseSession { session: id }, &s);
        let Response::Ok(after) = handle_request(&Request::Stats { session: None }, &s) else {
            panic!("stats failed")
        };
        assert_eq!(after["entities_added"], 2, "initial rows must survive session close");
    }

    /// The `trace` op surfaces the engine's phase spans and counters:
    /// every session's engine feeds the shared recorder.
    #[test]
    fn trace_op_reports_engine_phases() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![json!(["a", "ann, bob"]), json!(["b", "ann, bob"])],
            },
            &s,
        );
        handle_request(&Request::Discovery { session: id }, &s);

        let Response::Ok(v) = handle_request(&Request::Trace, &s) else { panic!("trace failed") };
        let phases: Vec<&str> =
            v["phases"].as_array().unwrap().iter().map(|p| p["name"].as_str().unwrap()).collect();
        assert!(phases.contains(&"flag"), "discovery must record a flag phase: {phases:?}");
        assert!(phases.contains(&"incremental_add"), "adds must record spans: {phases:?}");
        assert!(v["counters"]["pairs_verified"].as_u64().unwrap() > 0);
        assert!(v["counters"]["entities_added"].as_u64().unwrap() >= 2);
    }

    /// The entity limit is checked before the session lookup: an
    /// oversized add to a missing session is `too_many_entities`, a
    /// normal one `no_such_session`.
    #[test]
    fn add_to_missing_session_checks_the_limit_first() {
        let s = shared();
        let oversized: Vec<Value> = (0..9).map(|i| json!([format!("x{i}"), "ann"])).collect();
        expect_err(
            handle_request(&Request::AddEntities { session: 99, entities: oversized }, &s),
            ErrorCode::TooManyEntities,
        );
        expect_err(
            handle_request(
                &Request::AddEntities { session: 99, entities: vec![json!(["t", "ann"])] },
                &s,
            ),
            ErrorCode::NoSuchSession,
        );
    }

    /// Count of `name` spans the shared recorder has seen.
    fn span_count(s: &Shared, name: &str) -> u64 {
        let Response::Ok(v) = handle_request(&Request::Trace, s) else { panic!("trace failed") };
        v["phases"]
            .as_array()
            .unwrap()
            .iter()
            .find(|p| p["name"] == name)
            .map_or(0, |p| p["count"].as_u64().unwrap())
    }

    fn records_appended(s: &Shared) -> u64 {
        let Response::Ok(v) = handle_request(&Request::Stats { session: None }, s) else {
            panic!("stats failed")
        };
        v["store"]["records_appended"].as_u64().unwrap()
    }

    /// A persisted add is one WAL batch: one `wal_append` span (one fsync
    /// decision) for the request, one `add` record per row.
    #[test]
    fn persisted_add_is_one_wal_append() {
        let dir = temp_dir("wal-batch");
        let s = shared_on_dir(&dir);
        let id = create(&s);
        let (spans, records) = (span_count(&s, "wal_append"), records_appended(&s));
        let rows: Vec<Value> = (0..5).map(|i| json!([format!("t{i}"), "ann, bob"])).collect();
        let resp = handle_request(&Request::AddEntities { session: id, entities: rows }, &s);
        assert!(resp.is_ok(), "add failed: {resp:?}");
        assert_eq!(span_count(&s, "wal_append") - spans, 1);
        assert_eq!(records_appended(&s) - records, 5);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn discovery_of(s: &Shared, id: u64) -> Value {
        match handle_request(&Request::Discovery { session: id }, s) {
            Response::Ok(v) => v,
            resp => panic!("discovery failed: {resp:?}"),
        }
    }

    /// The heart of the persistence layer: kill the server mid-session
    /// (drop without close), rebuild on the same data directory, and the
    /// recovered session's `discovery()` must be bit-identical — through
    /// initial-document rows, batched adds, a removal, a checkpoint
    /// (snapshot_every = 3 forces one), and a second crash after further
    /// writes.
    #[test]
    fn restart_recovers_sessions_bit_identical() {
        let dir = temp_dir("restart");
        let (id, before) = {
            let s = shared_on_dir(&dir);
            let doc = json!({
                "schema": [
                    {"name": "Title", "tokenizer": "words"},
                    {"name": "Authors", "tokenizer": {"list": ","}}
                ],
                "entities": [["seed", "ann, bob"]]
            });
            let Response::Ok(v) =
                handle_request(&Request::CreateSession { group: doc, rules: RULES.into() }, &s)
            else {
                panic!("create failed")
            };
            let id = v["session"].as_u64().unwrap();
            handle_request(
                &Request::AddEntities {
                    session: id,
                    entities: vec![
                        json!(["data cleaning", "ann, bob"]),
                        json!(["data quality", "ann, bob, carl"]),
                        json!(["organic synthesis", "dora"]),
                        json!(["doomed", "zed"]),
                    ],
                },
                &s,
            );
            handle_request(&Request::RemoveEntity { session: id, entity: 4 }, &s);
            // Six records against snapshot_every = 3, checked per append
            // call: the four-row add crosses the threshold, so the crash
            // state is a snapshot plus a WAL tail, not a bare log.
            let Response::Ok(stats) = handle_request(&Request::Stats { session: None }, &s) else {
                panic!("stats failed")
            };
            assert!(stats["store"]["snapshots_written"].as_u64().unwrap() >= 1);
            assert!(stats["store"]["compactions"].as_u64().unwrap() >= 1);
            (id, discovery_of(&s, id))
            // `s` drops here without closing the session: the crash.
        };

        let s = shared_on_dir(&dir);
        assert_eq!(discovery_of(&s, id), before, "recovery must be bit-identical");
        let Response::Ok(stats) = handle_request(&Request::Stats { session: None }, &s) else {
            panic!("stats failed")
        };
        assert_eq!(stats["store"]["sessions_recovered"], 1);

        // The recovered session keeps persisting: crash again after more
        // writes and the third incarnation still agrees.
        handle_request(
            &Request::AddEntities { session: id, entities: vec![json!(["late", "ann, bob"])] },
            &s,
        );
        let before = discovery_of(&s, id);
        drop(s);
        let s = shared_on_dir(&dir);
        assert_eq!(discovery_of(&s, id), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn rules_op(shared: &Shared, session: u64, action: RuleAction) -> Response {
        handle_request(&Request::Rules { session, action }, shared)
    }

    /// Installing a rulespec over the wire must change what discovery
    /// finds, exactly as if the session had been created with the new
    /// rules: the install path compiles through `dime-rulespec` into the
    /// same `Rule` values `parse_rules` would have produced.
    #[test]
    fn installed_rulespec_changes_discovery() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![
                    json!(["t1", "ann, bob"]),
                    json!(["t2", "ann, bob, carl"]),
                    json!(["t3", "dora"]),
                ],
            },
            &s,
        );
        // The seed rules flag t3 (no author overlap).
        let before = discovery_of(&s, id);
        assert_eq!(before["mis_categorized"].as_array().unwrap().len(), 1);

        // Install a stricter positive rule: overlap ≥ 3 links nothing,
        // so every entity becomes its own partition and the pivot's
        // complement is flagged.
        let spec = "same(X, Y) :- overlap(Authors) >= 3.\n\
                    diff(X, Y) :- overlap(Authors) <= 0.";
        let resp = rules_op(&s, id, RuleAction::Install { spec: spec.into(), strict: false });
        let Response::Ok(v) = resp else { panic!("install failed: {resp:?}") };
        assert_eq!(v["installed"], json!({"positive": 1, "negative": 1}));
        assert!(v["exercised_pairs"].as_u64().unwrap() > 0);

        let after = discovery_of(&s, id);
        assert_ne!(before, after, "a stricter rule set must change the report");

        // And the installed set equals a session born with those rules.
        let fresh = shared();
        let fresh_id = match handle_request(
            &Request::CreateSession {
                group: group_doc(),
                rules: "positive: overlap(Authors) >= 3\nnegative: overlap(Authors) <= 0".into(),
            },
            &fresh,
        ) {
            Response::Ok(v) => v["session"].as_u64().unwrap(),
            resp => panic!("create failed: {resp:?}"),
        };
        handle_request(
            &Request::AddEntities {
                session: fresh_id,
                entities: vec![
                    json!(["t1", "ann, bob"]),
                    json!(["t2", "ann, bob, carl"]),
                    json!(["t3", "dora"]),
                ],
            },
            &fresh,
        );
        assert_eq!(after, discovery_of(&fresh, fresh_id));
    }

    #[test]
    fn install_rejections_are_structured_and_atomic() {
        let s = shared();
        let id = create(&s);
        for i in 0..4 {
            handle_request(
                &Request::AddEntities {
                    session: id,
                    entities: vec![json!([format!("t{i}"), format!("a{i}, b{i}")])],
                },
                &s,
            );
        }
        let Response::Ok(listed) = rules_op(&s, id, RuleAction::List) else {
            panic!("list failed")
        };
        let spec_before = listed["spec"].as_str().unwrap().to_string();

        // A syntax error carries the file:line:col diagnostic.
        let resp =
            rules_op(&s, id, RuleAction::Install { spec: "same(X, Y) :-".into(), strict: false });
        let Response::Err { code, message } = resp else { panic!("must reject") };
        assert_eq!(code, ErrorCode::RuleRejected);
        assert!(message.contains("<install>:1:"), "diagnostic position: {message}");

        // An unknown attribute names the schema.
        let resp = rules_op(
            &s,
            id,
            RuleAction::Install {
                spec: "same(X, Y) :- overlap(Publisher) >= 1.".into(),
                strict: false,
            },
        );
        let Response::Err { code, message } = resp else { panic!("must reject") };
        assert_eq!(code, ErrorCode::RuleRejected);
        assert!(message.contains("Authors"), "must list known attributes: {message}");

        // A polarity-less set is rejected.
        let resp = rules_op(
            &s,
            id,
            RuleAction::Install {
                spec: "same(X, Y) :- overlap(Authors) >= 2.".into(),
                strict: false,
            },
        );
        expect_err(resp, ErrorCode::RuleRejected);

        // A degenerate always-firing rule fails Solon validation.
        let resp = rules_op(
            &s,
            id,
            RuleAction::Install {
                spec: "same(X, Y) :- overlap(Authors) >= 0.\n\
                       diff(X, Y) :- overlap(Authors) <= 0."
                    .into(),
                strict: false,
            },
        );
        let Response::Err { code, message } = resp else { panic!("must reject") };
        assert_eq!(code, ErrorCode::RuleRejected);
        assert!(message.contains("fired on all"), "{message}");

        // None of the rejections changed the live set.
        let Response::Ok(listed) = rules_op(&s, id, RuleAction::List) else {
            panic!("list failed")
        };
        assert_eq!(
            listed["spec"].as_str().unwrap(),
            spec_before,
            "rejected installs must be no-ops"
        );
    }

    /// The semck acceptance pair: a `same`/`diff` rule whose `overlap`
    /// ranges overlap (overlap ∈ [1, 2] fires both). Discriminating on
    /// the sampled pairs, so only the semantic pass can catch it.
    const CONFLICTING_SPEC: &str = "same(X, Y) :- overlap(Authors) >= 1.\n\
                                    diff(X, Y) :- overlap(Authors) <= 2.";

    #[test]
    fn strict_install_rejects_conflicting_rules_naming_both() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![
                    json!(["t0", "ann, bob, carl"]),
                    json!(["t1", "ann, bob, carl, dora"]),
                    json!(["t2", "emma"]),
                    json!(["t3", "frank"]),
                ],
            },
            &s,
        );
        let Response::Ok(listed) = rules_op(&s, id, RuleAction::List) else {
            panic!("list failed")
        };
        let spec_before = listed["spec"].as_str().unwrap().to_string();

        let resp =
            rules_op(&s, id, RuleAction::Install { spec: CONFLICTING_SPEC.into(), strict: true });
        let Response::Err { code, message } = resp else { panic!("strict must reject") };
        assert_eq!(code, ErrorCode::RuleRejected);
        assert!(message.contains("conflict"), "{message}");
        assert!(message.contains("overlap(Authors) >= 1"), "must name the same rule: {message}");
        assert!(message.contains("overlap(Authors) <= 2"), "must name the diff rule: {message}");

        // The rejection is atomic: the live set is untouched.
        let Response::Ok(listed) = rules_op(&s, id, RuleAction::List) else {
            panic!("list failed")
        };
        assert_eq!(listed["spec"].as_str().unwrap(), spec_before);
    }

    #[test]
    fn non_strict_install_carries_semck_warnings() {
        let s = shared();
        let id = create(&s);
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![
                    json!(["t0", "ann, bob, carl"]),
                    json!(["t1", "ann, bob, carl, dora"]),
                    json!(["t2", "emma"]),
                    json!(["t3", "frank"]),
                ],
            },
            &s,
        );
        let resp =
            rules_op(&s, id, RuleAction::Install { spec: CONFLICTING_SPEC.into(), strict: false });
        let Response::Ok(v) = resp else { panic!("non-strict must install: {resp:?}") };
        assert_eq!(v["installed"], json!({"positive": 1, "negative": 1}));
        let warnings = v["warnings"].as_array().unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert_eq!(warnings[0]["kind"], "conflict");
        assert!(warnings[0]["message"].as_str().unwrap().contains("overlap(Authors)"));

        // A clean spec installs with an empty warnings array.
        let clean = "same(X, Y) :- overlap(Authors) >= 2.\n\
                     diff(X, Y) :- overlap(Authors) <= 0.";
        let Response::Ok(v) =
            rules_op(&s, id, RuleAction::Install { spec: clean.into(), strict: false })
        else {
            panic!("clean install failed")
        };
        assert_eq!(v["warnings"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn ablate_respects_the_polarity_floor() {
        let s = shared();
        let id = create(&s);
        let resp = rules_op(&s, id, RuleAction::Ablate { polarity: Polarity::Positive, index: 0 });
        let Response::Err { code, message } = resp else {
            panic!("ablating the last positive rule must fail")
        };
        assert_eq!(code, ErrorCode::RuleRejected);
        assert!(message.contains("last positive"), "{message}");
        expect_err(
            rules_op(&s, id, RuleAction::Ablate { polarity: Polarity::Negative, index: 7 }),
            ErrorCode::BadRequest,
        );

        // Install a two-positive set, then ablation works and shrinks it.
        // The pair (t0, t1) shares authors so neither rule fires on every
        // sampled pair.
        let spec = "same(X, Y) :- overlap(Authors) >= 2.\n\
                    same(X, Y) :- jaccard(Title) >= 0.9.\n\
                    diff(X, Y) :- overlap(Authors) <= 0.";
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![
                    json!(["t0", "ann, bob"]),
                    json!(["t1", "ann, bob"]),
                    json!(["t2", "carl"]),
                    json!(["t3", "dora"]),
                ],
            },
            &s,
        );
        let Response::Ok(_) =
            rules_op(&s, id, RuleAction::Install { spec: spec.into(), strict: false })
        else {
            panic!("install failed")
        };
        let Response::Ok(v) =
            rules_op(&s, id, RuleAction::Ablate { polarity: Polarity::Positive, index: 1 })
        else {
            panic!("ablate failed")
        };
        assert_eq!(v["positive"], 1);
        assert_eq!(v["negative"], 1);
        assert!(v["ablated"]["rule"].as_str().unwrap().contains("jaccard"));
    }

    /// The refinement loop: label the members and the outlier of a group
    /// whose seed rules miss everything, and the refined spec must cover
    /// the residual pairs — improving coverage — and change discovery
    /// when applied.
    #[test]
    fn feedback_refines_and_applies() {
        let s = shared();
        // Seed rules that link nothing and separate nothing useful: the
        // real structure is in Authors overlap, which these ignore.
        let Response::Ok(v) = handle_request(
            &Request::CreateSession {
                group: group_doc(),
                rules: "positive: jaccard(Title) >= 0.99\nnegative: edit_sim(Title) <= 0.01".into(),
            },
            &s,
        ) else {
            panic!("create failed")
        };
        let id = v["session"].as_u64().unwrap();
        handle_request(
            &Request::AddEntities {
                session: id,
                entities: vec![
                    json!(["data cleaning", "ann, bob"]),
                    json!(["data quality", "ann, bob, carl"]),
                    json!(["data lakes", "ann, carl"]),
                    json!(["organic synthesis", "dora"]),
                ],
            },
            &s,
        );
        let resp = handle_request(
            &Request::Feedback {
                session: id,
                labels: vec![(0, true), (1, true), (2, true), (3, false)],
                apply: false,
            },
            &s,
        );
        let Response::Ok(v) = resp else { panic!("feedback failed: {resp:?}") };
        assert_eq!(v["labels"], 4);
        assert_eq!(v["pairs"], json!({"positive": 3, "negative": 3}));
        assert!(v["residual"]["positive"].as_u64().unwrap() > 0, "seed rules cover nothing");
        let before = v["covered_before"].as_u64().unwrap();
        let after = v["covered_after"].as_u64().unwrap();
        assert!(after > before, "refinement must improve coverage: {before} -> {after}");
        assert_eq!(v["applied"], false, "apply was not requested");
        let spec = v["spec"].as_str().unwrap();
        assert!(spec.contains(":-"), "refined spec must be rulespec text: {spec}");

        // Labels accumulate: the second call sees the same effective set
        // and now applies the refinement.
        let resp =
            handle_request(&Request::Feedback { session: id, labels: vec![], apply: true }, &s);
        let Response::Ok(v) = resp else { panic!("feedback failed: {resp:?}") };
        assert_eq!(v["labels"], 4, "labels must persist across feedback calls");
        assert_eq!(v["applied"], true);

        // The applied rules now flag exactly the labeled outlier.
        let report = discovery_of(&s, id);
        let flagged = report["mis_categorized"].as_array().unwrap();
        assert_eq!(flagged.len(), 1, "refined rules must isolate the outlier: {report}");
        assert_eq!(flagged[0]["Authors"], "dora");

        // And the listed spec reflects the applied refinement.
        let Response::Ok(listed) = rules_op(&s, id, RuleAction::List) else {
            panic!("list failed")
        };
        assert!(listed["positive"].as_u64().unwrap() >= 2, "applied set keeps seed + generated");
    }

    #[test]
    fn feedback_rejects_unknown_entities() {
        let s = shared();
        let id = create(&s);
        expect_err(
            handle_request(
                &Request::Feedback { session: id, labels: vec![(9, true)], apply: false },
                &s,
            ),
            ErrorCode::NoSuchEntity,
        );
    }

    /// An installed rule set must survive a crash: the WAL's `set_rules`
    /// record replays through the same parse path as the `open` record,
    /// and the recovered engine answers discovery bit-identically.
    #[test]
    fn installed_rules_survive_restart() {
        let dir = temp_dir("rules");
        let (id, before) = {
            let s = shared_on_dir(&dir);
            let id = create(&s);
            handle_request(
                &Request::AddEntities {
                    session: id,
                    entities: vec![
                        json!(["t1", "ann, bob"]),
                        json!(["t2", "ann, bob, carl"]),
                        json!(["t3", "dora"]),
                        json!(["t4", "emma"]),
                    ],
                },
                &s,
            );
            let spec = "same(X, Y) :- overlap(Authors) >= 1.\n\
                        diff(X, Y) :- overlap(Authors) <= 0.";
            let Response::Ok(_) =
                rules_op(&s, id, RuleAction::Install { spec: spec.into(), strict: false })
            else {
                panic!("install failed")
            };
            (id, discovery_of(&s, id))
        };
        let s = shared_on_dir(&dir);
        assert_eq!(
            discovery_of(&s, id),
            before,
            "recovered session must replay the installed rules"
        );
        // The recovered session keeps the installed set, not the seed.
        let Response::Ok(listed) = rules_op(&s, id, RuleAction::List) else {
            panic!("list failed")
        };
        assert!(
            listed["spec"].as_str().unwrap().contains(">= 1"),
            "recovered rules must be the installed ones: {}",
            listed["spec"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A closed session writes a durable close record and loses its data
    /// directory; neither a restart nor an id collision may bring it
    /// back.
    #[test]
    fn closed_sessions_stay_closed_across_restart() {
        let dir = temp_dir("closed");
        let (a, b) = {
            let s = shared_on_dir(&dir);
            let a = create(&s);
            let b = create(&s);
            handle_request(
                &Request::AddEntities { session: b, entities: vec![json!(["t", "ann"])] },
                &s,
            );
            let Response::Ok(_) = handle_request(&Request::CloseSession { session: a }, &s) else {
                panic!("close failed")
            };
            (a, b)
        };

        let s = shared_on_dir(&dir);
        expect_err(
            handle_request(&Request::Discovery { session: a }, &s),
            ErrorCode::NoSuchSession,
        );
        assert!(handle_request(&Request::Discovery { session: b }, &s).is_ok());
        let fresh = create(&s);
        assert!(fresh > b, "recovered ids must stay reserved: {fresh} vs {b}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
