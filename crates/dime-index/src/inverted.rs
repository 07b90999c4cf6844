//! Signature-based inverted index (paper Section IV-A/IV-C).
//!
//! DIME⁺'s filter step builds, per rule, a map *signature → entities that
//! emit it*. Entities sharing an inverted list become candidate pairs; all
//! other pairs are pruned, because the signature schemes guarantee that
//! rule-satisfying pairs share at least one signature.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An inverted index from opaque signature values to entity ids.
///
/// Signatures are pre-hashed to `u64` by the caller (composite tuple
/// signatures hash their components together); a hash collision merely
/// creates an extra candidate pair, which verification discards — it can
/// never lose a true pair.
///
/// # Examples
///
/// ```
/// use dime_index::InvertedIndex;
///
/// let mut idx = InvertedIndex::new();
/// idx.insert(10, 0);
/// idx.insert(10, 1);
/// idx.insert(99, 2);
/// let pairs = idx.candidate_pairs();
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
#[derive(Debug, Default)]
pub struct InvertedIndex {
    lists: HashMap<u64, Vec<u32>>,
    /// Point-lookup count ([`InvertedIndex::list`] calls), kept atomic so
    /// the parallel engine can probe through a shared reference.
    probes: AtomicU64,
}

impl Clone for InvertedIndex {
    /// Cloning requires `&mut`-free access, so the probe counter is read
    /// atomically. The snapshot is best-effort by design: `probes` is a
    /// statistics counter with no ordering relationship to `lists` (which
    /// only changes under `&mut self`), so a clone taken while other
    /// threads probe may miss their in-flight increments — the count is
    /// diagnostic, never load-bearing.
    fn clone(&self) -> Self {
        Self {
            lists: self.lists.clone(),
            // dime-check: allow(atomic-ordering) — best-effort snapshot of a diagnostic counter; lists is quiescent under &mut elsewhere
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `entity` to the inverted list of `signature`.
    ///
    /// Duplicate consecutive insertions of the same entity on the same list
    /// are suppressed, so an entity emitting the same signature repeatedly
    /// is stored once.
    pub fn insert(&mut self, signature: u64, entity: u32) {
        match self.lists.entry(signature) {
            Entry::Occupied(mut e) => {
                let list = e.get_mut();
                if list.last() != Some(&entity) {
                    list.push(entity);
                }
            }
            Entry::Vacant(e) => {
                e.insert(vec![entity]);
            }
        }
    }

    /// Removes `entity` from every list and shifts every larger id down by
    /// one, dropping the lists it leaves empty: what a group whose ids
    /// compact on removal needs. Lists keep their order.
    pub fn remove_entity(&mut self, entity: u32) {
        self.lists.retain(|_, list| {
            list.retain(|&e| e != entity);
            for e in list.iter_mut().filter(|e| **e > entity) {
                *e -= 1;
            }
            !list.is_empty()
        });
    }

    /// The inverted list for `signature`, if any. Counted as one probe.
    pub fn list(&self, signature: u64) -> Option<&[u32]> {
        // dime-check: allow(atomic-ordering) — monotone probe counter; no reader orders against it
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.lists.get(&signature).map(Vec::as_slice)
    }

    /// Number of point lookups served so far — the observability layer's
    /// "index probe" counter. Monotone for the life of the index.
    pub fn probe_count(&self) -> u64 {
        // dime-check: allow(atomic-ordering) — monotone counter read for observability; staleness is acceptable
        self.probes.load(Ordering::Relaxed)
    }

    /// Number of distinct signatures.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the index holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Enumerates deduplicated candidate pairs `(a, b)` with `a < b`:
    /// every unordered pair of entities that co-occurs on some list.
    ///
    /// Pairs are returned sorted, which makes downstream processing
    /// deterministic.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for list in self.lists.values() {
            // Lists are small in practice; a unique-entity pass guards
            // against an entity appearing twice non-consecutively.
            let mut uniq = list.clone();
            uniq.sort_unstable();
            uniq.dedup();
            for i in 0..uniq.len() {
                for j in i + 1..uniq.len() {
                    pairs.push((uniq[i], uniq[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Total number of postings across all lists.
    pub fn posting_count(&self) -> usize {
        self.lists.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_index_has_no_pairs() {
        let idx = InvertedIndex::new();
        assert!(idx.candidate_pairs().is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn pairs_require_shared_signature() {
        let mut idx = InvertedIndex::new();
        idx.insert(1, 0);
        idx.insert(2, 1);
        assert!(idx.candidate_pairs().is_empty());
        idx.insert(1, 1);
        assert_eq!(idx.candidate_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn pairs_are_deduped_across_lists() {
        let mut idx = InvertedIndex::new();
        for sig in [1, 2, 3] {
            idx.insert(sig, 0);
            idx.insert(sig, 1);
        }
        assert_eq!(idx.candidate_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn consecutive_duplicate_insert_suppressed() {
        let mut idx = InvertedIndex::new();
        idx.insert(1, 5);
        idx.insert(1, 5);
        assert_eq!(idx.list(1), Some(&[5u32][..]));
        assert_eq!(idx.posting_count(), 1);
    }

    #[test]
    fn probes_count_point_lookups_and_survive_clone() {
        let mut idx = InvertedIndex::new();
        idx.insert(1, 0);
        assert_eq!(idx.probe_count(), 0);
        idx.list(1);
        idx.list(2); // misses count too: the probe happened
        assert_eq!(idx.probe_count(), 2);
        let copy = idx.clone();
        assert_eq!(copy.probe_count(), 2);
    }

    #[test]
    fn remove_entity_compacts_ids() {
        let mut idx = InvertedIndex::new();
        for (sig, e) in [(1, 0), (1, 2), (1, 3), (2, 2), (3, 1)] {
            idx.insert(sig, e);
        }
        idx.remove_entity(2);
        assert_eq!(idx.list(1), Some(&[0u32, 2][..]));
        assert_eq!(idx.list(2), None);
        assert_eq!(idx.list(3), Some(&[1u32][..]));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn self_pairs_never_emitted() {
        let mut idx = InvertedIndex::new();
        idx.insert(1, 3);
        idx.insert(2, 3);
        assert!(idx.candidate_pairs().is_empty());
    }

    proptest! {
        /// A pair is a candidate iff the two entities share some signature.
        #[test]
        fn prop_candidates_iff_shared(postings in proptest::collection::vec((0u64..6, 0u32..8), 0..40)) {
            let mut idx = InvertedIndex::new();
            let mut sigs_of: std::collections::HashMap<u32, std::collections::HashSet<u64>> = Default::default();
            for &(s, e) in &postings {
                idx.insert(s, e);
                sigs_of.entry(e).or_default().insert(s);
            }
            let pairs: std::collections::HashSet<(u32, u32)> = idx.candidate_pairs().into_iter().collect();
            for (&a, sa) in &sigs_of {
                for (&b, sb) in &sigs_of {
                    if a < b {
                        let share = sa.intersection(sb).next().is_some();
                        prop_assert_eq!(pairs.contains(&(a, b)), share);
                    }
                }
            }
        }
    }
}
