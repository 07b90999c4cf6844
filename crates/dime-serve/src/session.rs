//! The session store: many live groups, each an [`IncrementalDime`]
//! engine behind its own lock, sharded so that lookups under concurrent
//! traffic contend only within a shard.
//!
//! Locking discipline: a worker takes one shard lock just long enough to
//! clone the session's `Arc`, then operates under the session's own lock.
//! Shard locks never nest with session locks held, and no worker ever
//! holds two session locks, so the store is deadlock-free by construction.

use crate::metrics::{SessionMetrics, SessionTotals};
use crate::persist::SessionPersist;
use dime_core::IncrementalDime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning: a worker that panicked
/// mid-request must not brick the session (or shard) for everyone else.
/// The panicking handler is answered with an `internal` error; the data it
/// may have half-updated is counters, which tolerate slack.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One live group: the incremental engine, its schema's attribute names
/// (cached for entity-row conversion), and its counters.
pub struct Session {
    /// The incremental discovery engine.
    pub engine: IncrementalDime,
    /// Attribute names in schema order.
    pub attr_names: Vec<String>,
    /// Per-session counters.
    pub metrics: SessionMetrics,
    /// The session's durable mirror, when the server runs with a store
    /// (`None` keeps the session memory-only).
    pub persist: Option<SessionPersist>,
    /// Accumulated `(entity id, belongs)` verdicts from `feedback`
    /// requests — the labeled examples the refinement loop mines. Kept in
    /// arrival order; a later verdict for the same entity wins, and ids
    /// are shifted/dropped in step with `remove_entity`.
    pub labels: Vec<(usize, bool)>,
}

impl Session {
    /// Wraps an engine, caching its schema's attribute names.
    pub fn new(engine: IncrementalDime) -> Self {
        let attr_names = engine.group().schema().attrs().iter().map(|a| a.name.clone()).collect();
        Self {
            engine,
            attr_names,
            metrics: SessionMetrics::default(),
            persist: None,
            labels: Vec::new(),
        }
    }

    /// Folds the accumulated labels into one verdict per entity (latest
    /// wins), in entity-id order.
    pub fn effective_labels(&self) -> Vec<(usize, bool)> {
        let mut map: std::collections::BTreeMap<usize, bool> = std::collections::BTreeMap::new();
        for &(entity, belongs) in &self.labels {
            map.insert(entity, belongs);
        }
        map.into_iter().collect()
    }

    /// Keeps the label set consistent with an entity removal: verdicts
    /// for the removed id are dropped, later ids shift down by one —
    /// mirroring the engine's id compaction.
    pub fn shift_labels_for_removal(&mut self, removed: usize) {
        self.labels.retain(|&(entity, _)| entity != removed);
        for label in &mut self.labels {
            if label.0 > removed {
                label.0 -= 1;
            }
        }
    }
}

/// Shard count of the session store.
const SHARDS: usize = 8;

/// A sharded map from session id to live session.
pub struct SessionStore {
    shards: Vec<Mutex<HashMap<u64, Arc<Mutex<Session>>>>>,
    next_id: AtomicU64,
    live: AtomicU64,
    max_sessions: usize,
}

impl SessionStore {
    /// Builds an empty store with a cap on concurrently live sessions.
    pub fn new(max_sessions: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            live: AtomicU64::new(0),
            max_sessions,
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<Mutex<Session>>>> {
        // dime-check: allow(panic-in-service) — the modulo keeps the index below shards.len(), which is ≥ 1 by construction
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Claims a live-session slot and a fresh id, or `None` when the
    /// store is at its cap. Splitting allocation from
    /// [`SessionStore::insert_at`] lets the persistence layer create the
    /// session's WAL under its final id before the session goes live.
    pub fn allocate_id(&self) -> Option<u64> {
        // Optimistically claim a slot; back out on overflow. The cap may
        // briefly be observed as exceeded by concurrent inserters, never
        // by more than the number of racing requests.
        if self.live.fetch_add(1, Ordering::SeqCst) as usize >= self.max_sessions {
            self.live.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(self.next_id.fetch_add(1, Ordering::SeqCst))
    }

    /// Publishes a session under an id from [`SessionStore::allocate_id`].
    pub fn insert_at(&self, id: u64, session: Session) {
        lock(self.shard(id)).insert(id, Arc::new(Mutex::new(session)));
    }

    /// Registers a session and returns its fresh id, or `None` when the
    /// store is at its live-session cap.
    pub fn insert(&self, session: Session) -> Option<u64> {
        let id = self.allocate_id()?;
        self.insert_at(id, session);
        Some(id)
    }

    /// Re-registers a recovered session under its durable id, keeping
    /// the never-reuse-ids invariant by raising the id floor past it.
    /// Recovery runs before the server accepts connections, so the
    /// live-session cap is not enforced here: durable sessions always
    /// come back.
    pub fn restore(&self, id: u64, session: Session) {
        self.live.fetch_add(1, Ordering::SeqCst);
        self.next_id.fetch_max(id + 1, Ordering::SeqCst);
        lock(self.shard(id)).insert(id, Arc::new(Mutex::new(session)));
    }

    /// Looks up a session by id.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        lock(self.shard(id)).get(&id).cloned()
    }

    /// Drops a session. Returns whether it existed. In-flight requests
    /// holding the session's `Arc` finish against the detached state.
    pub fn remove(&self, id: u64) -> bool {
        let existed = lock(self.shard(id)).remove(&id).is_some();
        if existed {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
        existed
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::SeqCst) as usize
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sums every session-scoped counter across the live sessions — the
    /// live half of the global stats snapshot (the closed half is banked
    /// in `GlobalMetrics::closed` through the same
    /// [`SessionTotals::absorb`] path).
    pub fn aggregate(&self) -> SessionTotals {
        let totals = SessionTotals::default();
        for shard in &self.shards {
            let sessions: Vec<Arc<Mutex<Session>>> = lock(shard).values().cloned().collect();
            // Session locks are taken after the shard lock is released.
            for s in sessions {
                let guard = lock(&s);
                totals.absorb(&guard.metrics, guard.engine.pairs_verified());
            }
        }
        totals
    }

    /// The live sessions' verified-pair sum — a convenience view of
    /// [`SessionStore::aggregate`].
    pub fn total_pairs_verified(&self) -> u64 {
        self.aggregate().pairs_verified.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dime_core::{GroupBuilder, Predicate, Rule, Schema, SimilarityFn};
    use dime_text::TokenizerKind;

    fn engine() -> IncrementalDime {
        let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
        IncrementalDime::new(
            GroupBuilder::new(schema).build(),
            vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 1.0)])],
            vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])],
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let store = SessionStore::new(8);
        let id = store.insert(Session::new(engine())).unwrap();
        assert!(store.get(id).is_some());
        assert_eq!(store.len(), 1);
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert!(store.get(id).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn ids_are_never_reused() {
        let store = SessionStore::new(8);
        let a = store.insert(Session::new(engine())).unwrap();
        assert!(store.remove(a));
        let b = store.insert(Session::new(engine())).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn restore_raises_the_id_floor() {
        let store = SessionStore::new(8);
        store.restore(7, Session::new(engine()));
        assert!(store.get(7).is_some());
        assert_eq!(store.len(), 1);
        let next = store.insert(Session::new(engine())).unwrap();
        assert!(next > 7, "fresh ids must never collide with recovered ones");
    }

    #[test]
    fn cap_rejects_and_frees_on_remove() {
        let store = SessionStore::new(2);
        let a = store.insert(Session::new(engine())).unwrap();
        let _b = store.insert(Session::new(engine())).unwrap();
        assert!(store.insert(Session::new(engine())).is_none());
        assert!(store.remove(a));
        assert!(store.insert(Session::new(engine())).is_some());
    }

    #[test]
    fn pairs_verified_sums_across_sessions() {
        let store = SessionStore::new(8);
        for _ in 0..2 {
            let mut s = Session::new(engine());
            s.engine.add_entity(&["ann"]);
            s.engine.add_entity(&["ann"]);
            store.insert(s).unwrap();
        }
        assert_eq!(store.total_pairs_verified(), 2);
    }

    #[test]
    fn session_caches_attr_names() {
        let s = Session::new(engine());
        assert_eq!(s.attr_names, vec!["Authors".to_string()]);
    }

    #[test]
    fn effective_labels_take_the_latest_verdict() {
        let mut s = Session::new(engine());
        s.labels = vec![(2, true), (0, false), (2, false), (1, true)];
        assert_eq!(s.effective_labels(), vec![(0, false), (1, true), (2, false)]);
    }

    #[test]
    fn labels_shift_with_entity_removal() {
        let mut s = Session::new(engine());
        s.labels = vec![(0, true), (1, false), (3, true)];
        s.shift_labels_for_removal(1);
        assert_eq!(s.labels, vec![(0, true), (2, true)]);
    }
}
