//! Lock-free concurrent disjoint-set forest for the parallel DIME⁺ engine.
//!
//! The sequential [`crate::UnionFind`] needs `&mut self` for every
//! operation, which serializes the verification phase. This variant keeps
//! the parent array in `AtomicU32` cells so any number of worker threads
//! can `find`/`same`/`union` through a shared reference; roots are merged
//! with a single compare-and-swap and paths are shortened by pointer
//! halving (Anderson & Woll style), so no locks are involved.
//!
//! Concurrency semantics, which are exactly what the transitivity
//! short-circuit needs:
//!
//! * connectivity only ever *grows* — once two elements are connected they
//!   stay connected, so a `true` from [`ConcurrentUnionFind::same`] is
//!   always trustworthy, even mid-race;
//! * a `false` from `same` may be stale (a racing `union` landed after the
//!   reads). Callers treat `false` as "verify the pair", so a stale answer
//!   costs one redundant verification and never correctness;
//! * the final partition is the connected closure of the union edges,
//!   independent of thread interleaving, so once the workers have joined,
//!   [`ConcurrentUnionFind::components`] is deterministic.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A wait-free-read, lock-free-update disjoint-set over `0..len`,
/// shareable across threads by reference.
///
/// Roots merge child-under-smaller-id (no rank array — path halving keeps
/// chains short in practice), so the representative of every set is its
/// smallest *root at merge time*; [`ConcurrentUnionFind::components`]
/// canonicalizes regardless.
///
/// # Examples
///
/// ```
/// use dime_index::ConcurrentUnionFind;
///
/// let uf = ConcurrentUnionFind::new(4);
/// std::thread::scope(|s| {
///     s.spawn(|| uf.union(0, 1));
///     s.spawn(|| uf.union(1, 2));
/// });
/// assert!(uf.same(0, 2)); // transitivity
/// assert_eq!(uf.components(), vec![vec![0, 1, 2], vec![3]]);
/// ```
#[derive(Debug)]
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
    merges: AtomicU64,
}

impl ConcurrentUnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "element ids must fit in u32");
        Self { parent: (0..len as u32).map(AtomicU32::new).collect(), merges: AtomicU64::new(0) }
    }

    /// Appends a singleton set and returns its element id — how a growing
    /// group's forest takes a new entity. Exclusive access, so no worker
    /// can be reading the forest meanwhile.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        assert!(id < u32::MAX as usize, "element ids must fit in u32");
        self.parent.push(AtomicU32::new(id as u32));
        id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The current representative of `x`'s set, with path halving: every
    /// traversed node is pointed at its grandparent, so later finds get
    /// shorter chains. Exact once all concurrent unions have finished.
    pub fn find(&self, x: usize) -> usize {
        let mut x = x;
        loop {
            let p = self.parent[x].load(Ordering::Acquire) as usize;
            if p == x {
                return x;
            }
            let gp = self.parent[p].load(Ordering::Acquire) as usize;
            if gp != p {
                // Halve the path. A lost race just means someone else
                // already shortened it; either way progress continues.
                let _ = self.parent[x].compare_exchange(
                    p as u32,
                    gp as u32,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            x = p;
        }
    }

    /// Whether `a` and `b` are currently known to be connected.
    ///
    /// `true` is definitive (connectivity never shrinks); `false` may miss
    /// a union that raced with the reads — safe wherever `false` means
    /// "do the full check", as in the verification short-circuit.
    pub fn same(&self, a: usize, b: usize) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // `ra` might have stopped being a root between the two finds;
            // retry until it is stable so a quiescent answer is exact.
            if self.parent[ra].load(Ordering::Acquire) as usize == ra {
                return false;
            }
        }
    }

    /// Merges the sets of `a` and `b`; returns `true` if this call did the
    /// merge (they were previously disjoint).
    pub fn union(&self, a: usize, b: usize) -> bool {
        let (mut a, mut b) = (a, b);
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return false;
            }
            // Attach the larger root under the smaller: a deterministic
            // direction that needs no rank array. The CAS only succeeds
            // while `child` is still a root, so no union is ever lost.
            let (child, parent) = if ra > rb { (ra, rb) } else { (rb, ra) };
            if self.parent[child]
                .compare_exchange(child as u32, parent as u32, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // dime-check: allow(atomic-ordering) — monotone merge counter; correctness rides on the AcqRel CAS above
                self.merges.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // Lost the race: restart from the (now stale) roots, which are
            // closer to the new roots than the original arguments.
            a = ra;
            b = rb;
        }
    }

    /// Number of unions that actually merged two sets. Since connectivity
    /// only grows and every merge is one winning CAS, after workers join
    /// this equals `len() - component_count()` exactly, whatever the
    /// interleaving — the observability layer's "union-find merges".
    pub fn merge_count(&self) -> u64 {
        // dime-check: allow(atomic-ordering) — counter read after workers join; the join is the synchronization point
        self.merges.load(Ordering::Relaxed)
    }

    /// Current number of disjoint sets (exact when no unions are racing).
    pub fn component_count(&self) -> usize {
        (0..self.len()).filter(|&x| self.parent[x].load(Ordering::Acquire) as usize == x).count()
    }

    /// Materializes all components in the same canonical form as
    /// [`crate::UnionFind::components`]: members sorted ascending,
    /// components ordered by smallest member. Call after workers join.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for x in 0..self.len() {
            by_root.entry(self.find(x)).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|c| c[0]); // members are pushed in ascending order
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnionFind;
    use proptest::prelude::*;

    #[test]
    fn singletons_at_start() {
        let uf = ConcurrentUnionFind::new(3);
        assert_eq!(uf.component_count(), 3);
        assert!(uf.same(1, 1));
        assert!(!uf.same(0, 2));
    }

    #[test]
    fn union_merges_and_reports() {
        let uf = ConcurrentUnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.component_count(), 3);
    }

    #[test]
    fn push_appends_a_singleton() {
        let mut uf = ConcurrentUnionFind::new(2);
        uf.union(0, 1);
        assert_eq!(uf.push(), 2);
        assert!(!uf.same(1, 2));
        uf.union(2, 0);
        assert_eq!(uf.components(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_structure() {
        let uf = ConcurrentUnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.components().is_empty());
    }

    #[test]
    fn concurrent_unions_agree_with_sequential() {
        // A chain built from many threads in arbitrary interleavings must
        // produce the same components as the sequential structure.
        let n = 512;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let mut seq = UnionFind::new(n);
        for &(a, b) in &edges {
            seq.union(a, b);
        }
        for threads in [2usize, 4, 8] {
            let uf = ConcurrentUnionFind::new(n);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let edges = &edges;
                    let uf = &uf;
                    s.spawn(move || {
                        for e in edges.iter().skip(t).step_by(threads) {
                            uf.union(e.0, e.1);
                        }
                    });
                }
            });
            assert_eq!(uf.components(), seq.components(), "threads = {threads}");
            // Exactly n-1 CASes can win while building one chain, no
            // matter how the racing workers interleave.
            assert_eq!(uf.merge_count(), (n - 1) as u64);
        }
    }

    #[test]
    fn concurrent_stripes_stay_disjoint() {
        // Each thread unions its own residue class; classes never mix.
        let n = 300;
        let threads = 6;
        let uf = ConcurrentUnionFind::new(n);
        std::thread::scope(|s| {
            for t in 0..threads {
                let uf = &uf;
                s.spawn(move || {
                    let members: Vec<usize> = (t..n).step_by(threads).collect();
                    for w in members.windows(2) {
                        uf.union(w[0], w[1]);
                    }
                });
            }
        });
        let comps = uf.components();
        assert_eq!(comps.len(), threads);
        for (t, c) in comps.iter().enumerate() {
            assert_eq!(c, &(t..n).step_by(threads).collect::<Vec<_>>());
        }
    }

    proptest! {
        /// Random edge lists: concurrent (single-threaded use) matches the
        /// sequential union-find exactly.
        #[test]
        fn prop_matches_sequential(edges in proptest::collection::vec((0usize..24, 0usize..24), 0..60)) {
            let n = 24;
            let conc = ConcurrentUnionFind::new(n);
            let mut seq = UnionFind::new(n);
            for &(a, b) in &edges {
                prop_assert_eq!(conc.union(a, b), seq.union(a, b));
            }
            prop_assert_eq!(conc.components(), seq.components());
            prop_assert_eq!(conc.component_count(), seq.component_count());
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(conc.same(i, j), seq.same(i, j));
                }
            }
        }
    }
}
