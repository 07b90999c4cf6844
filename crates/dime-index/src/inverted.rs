//! Signature-based inverted index (paper Section IV-A/IV-C).
//!
//! A map *signature → entities that emit it*: entities sharing an inverted
//! list become candidate pairs, and all other pairs are pruned. The CR
//! baseline (`dime-baselines::cr`) blocks with it; DIME⁺ keeps its own
//! postings next to its gather (`dime-core`'s `dime_plus` module).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

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
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    lists: HashMap<u64, Vec<u32>>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_index_has_no_pairs() {
        let idx = InvertedIndex::new();
        assert!(idx.candidate_pairs().is_empty());
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
        assert!(idx.candidate_pairs().is_empty(), "no self pair");
        idx.insert(1, 6);
        assert_eq!(idx.candidate_pairs(), vec![(5, 6)]);
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
