//! Session persistence glue: the durable mirror a session drags along
//! (its WAL, the row state snapshots are cut from, the checkpoint
//! cadence) and the recovery path that turns stored state back into a
//! live engine.
//!
//! Failure policy is **fail-open**: a persistence IO error marks the
//! session's mirror broken, bumps the store's `wal_failures` counter, and
//! warns once on stderr — the session keeps serving from memory. The
//! service degrades to exactly its non-persistent behavior instead of
//! refusing traffic, and the operator sees the failure in the global
//! `stats` response.

use crate::session::Session;
use dime_core::{parse_rules, IncrementalDime, Polarity, Rule};
use dime_data::{entity_row_values, load_group_value};
use dime_store::{
    RecoveredSession, SessionState, SessionWal, Store, StoreStatsSnapshot, WalOp, WalTap,
};
use dime_trace::{span, TraceSink};
use serde_json::{json, Value};
use std::io;
use std::sync::Arc;

/// The durable side of one live session. Every mutation the engine
/// accepts is appended to the WAL and applied to the string-row mirror
/// before the response leaves the handler; once `snapshot_every` records
/// have accumulated (checked after each append call, so a batch is never
/// split), the mirror is checkpointed and the log compacted.
pub struct SessionPersist {
    wal: SessionWal,
    state: SessionState,
    ops_since_checkpoint: usize,
    snapshot_every: usize,
    broken: bool,
    sink: Arc<dyn TraceSink + Send + Sync>,
}

impl SessionPersist {
    /// Wraps a freshly created session WAL (its `open` record already
    /// written by [`Store::create_session`]).
    pub fn new(
        wal: SessionWal,
        state: SessionState,
        snapshot_every: usize,
        sink: Arc<dyn TraceSink + Send + Sync>,
    ) -> Self {
        Self { wal, state, ops_since_checkpoint: 0, snapshot_every, broken: false, sink }
    }

    /// Resumes the mirror of a recovered session where the old process
    /// left off.
    pub fn resume(
        rec: RecoveredSession,
        snapshot_every: usize,
        sink: Arc<dyn TraceSink + Send + Sync>,
    ) -> Self {
        Self::new(rec.wal, rec.state, snapshot_every, sink)
    }

    /// Logs a run of added rows (string values in schema order) as one
    /// WAL batch: one `AddEntity` record per row, in order, but one fsync
    /// decision and one checkpoint check for the whole run.
    pub fn log_add_batch(&mut self, rows: Vec<Vec<String>>) {
        if self.broken || rows.is_empty() {
            return;
        }
        let ops: Vec<WalOp> = rows.into_iter().map(|values| WalOp::AddEntity { values }).collect();
        let sink = Arc::clone(&self.sink);
        let appended = {
            let _s = span(sink.as_ref(), "wal_append");
            self.wal.append_batch(&ops)
        };
        if let Err(e) = appended {
            self.fail("append", &e);
            return;
        }
        for op in &ops {
            self.state.apply(op);
        }
        self.ops_since_checkpoint += ops.len();
        self.maybe_checkpoint();
    }

    /// Logs one removed entity id.
    pub fn log_remove(&mut self, entity: usize) {
        self.append(WalOp::RemoveEntity { entity: entity as u64 });
    }

    /// Logs a full rule-set replacement. `rules` is the simple
    /// `dime_core::parse_rules` DSL (one rule per line), the same format
    /// the `open` record carries, so replay rebuilds the engine through
    /// the one existing parse path.
    pub fn log_set_rules(&mut self, rules: String) {
        self.append(WalOp::SetRules { rules });
    }

    /// Ends the session durably: after the `close` record is on disk the
    /// session can never resurrect, even if the directory removal that
    /// follows is lost to a crash.
    pub fn close(mut self) {
        if self.broken {
            return;
        }
        let sink = Arc::clone(&self.sink);
        let _s = span(sink.as_ref(), "wal_append");
        if let Err(e) = self.wal.close() {
            self.fail("close", &e);
        }
    }

    fn append(&mut self, op: WalOp) {
        if self.broken {
            return;
        }
        let sink = Arc::clone(&self.sink);
        let appended = {
            let _s = span(sink.as_ref(), "wal_append");
            self.wal.append(&op)
        };
        if let Err(e) = appended {
            self.fail("append", &e);
            return;
        }
        self.state.apply(&op);
        self.ops_since_checkpoint += 1;
        self.maybe_checkpoint();
    }

    fn maybe_checkpoint(&mut self) {
        if self.snapshot_every == 0 || self.ops_since_checkpoint < self.snapshot_every {
            return;
        }
        let sink = Arc::clone(&self.sink);
        let _s = span(sink.as_ref(), "snapshot");
        match self.wal.checkpoint(&self.state) {
            Ok(()) => self.ops_since_checkpoint = 0,
            Err(e) => self.fail("checkpoint", &e),
        }
    }

    fn fail(&mut self, what: &str, e: &io::Error) {
        self.broken = true;
        self.wal.stats().bump_wal_failures();
        eprintln!(
            "dime-serve: persistence {what} failed ({e}); the session keeps serving from memory"
        );
    }
}

/// Opens the WAL for a freshly created session: stores the group
/// document *without* its `entities` (the rows are logged as `add`
/// records, so replay is uniform whether a row arrived in the document
/// or through `add_entities`). Returns `None` — session stays
/// memory-only — if the WAL cannot be created.
pub fn persist_new_session(
    store: &Store,
    id: u64,
    doc: &Value,
    rules: &str,
    attr_names: &[String],
    sink: Arc<dyn TraceSink + Send + Sync>,
    tap: Option<Arc<dyn WalTap>>,
) -> Option<SessionPersist> {
    let mut stored = doc.clone();
    if let Some(obj) = stored.as_object_mut() {
        obj.remove("entities");
    }
    let stored = stored.to_string();
    let wal = match store.create_session_with_tap(id, &stored, rules, tap) {
        Ok(w) => w,
        Err(e) => {
            store.stats().bump_wal_failures();
            eprintln!("dime-serve: session {id} starts without persistence ({e})");
            return None;
        }
    };
    let mut p = SessionPersist::new(
        wal,
        SessionState::new(stored, rules),
        store.config().snapshot_every,
        sink,
    );
    let names: Vec<&str> = attr_names.iter().map(String::as_str).collect();
    if let Some(rows) = doc.get("entities").and_then(Value::as_array) {
        // `load_group_value` already accepted every row, so this
        // conversion cannot fail; skipping defensively beats lying.
        p.log_add_batch(
            rows.iter().filter_map(|row| entity_row_values(row, &names).ok()).collect(),
        );
    }
    Some(p)
}

/// Rebuilds a live engine from recovered state, replaying the stored
/// group document, rules, and surviving rows. The rebuilt engine's
/// `discovery()` is bit-identical to the pre-crash engine's: the
/// incremental engine's interleaving invariant guarantees the result
/// depends only on the surviving rows, not on the add/remove history.
pub fn rebuild_engine(state: &SessionState) -> Result<IncrementalDime, String> {
    let doc: Value = serde_json::from_str(&state.doc)
        .map_err(|e| format!("stored group document is not JSON: {e}"))?;
    let group = load_group_value(&doc)
        .map_err(|e| format!("stored group document rejected: {}", e.message))?;
    let parsed = parse_rules(&state.rules, group.schema())
        .map_err(|e| format!("stored rules rejected: {e}"))?;
    let (pos, neg): (Vec<Rule>, Vec<Rule>) =
        parsed.into_iter().partition(|r| r.polarity == Polarity::Positive);
    if pos.is_empty() || neg.is_empty() {
        return Err("stored rules lost a polarity".into());
    }
    let rows: Vec<_> = state.rows.iter().map(|r| (r.values.clone(), r.nodes.clone())).collect();
    Ok(IncrementalDime::reopen(group, pos, neg, &rows))
}

/// Rebuilds a full [`Session`] (engine + counters) from recovered state.
pub fn rebuild_session(
    state: &SessionState,
    sink: Arc<dyn TraceSink + Send + Sync>,
) -> Result<Session, String> {
    let engine = rebuild_engine(state)?.with_sink(sink);
    let mut session = Session::new(engine);
    session.metrics.entities_added = state.rows.len() as u64;
    Ok(session)
}

/// Shapes the store counters for the global `stats` response.
pub fn store_stats_to_value(s: &StoreStatsSnapshot) -> Value {
    json!({
        "records_appended": s.records_appended,
        "bytes_appended": s.bytes_appended,
        "snapshots_written": s.snapshots_written,
        "compactions": s.compactions,
        "sessions_recovered": s.sessions_recovered,
        "tails_truncated": s.tails_truncated,
        "wal_failures": s.wal_failures,
    })
}
