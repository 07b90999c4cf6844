//! Incremental discovery — an extension beyond the paper for groups that
//! grow over time (a Scholar profile gaining publications, a category
//! gaining products).
//!
//! [`IncrementalDime`] keeps DIME⁺'s positive-phase state across entity
//! insertions and removals: the packed `VerifyArena`, a union-find over
//! partitions, and per positive rule the batch pass's state from the last
//! build on (compiled rule, keys and ranks, postings, wildcards, settled
//! records). It has no positive phase of its own; every operation walks
//! the batch engine's gather-and-verify pass over the entities it names:
//!
//! * **Build.** [`IncrementalDime::new`], [`IncrementalDime::reopen`] and
//!   [`IncrementalDime::set_rules`] key every row as
//!   [`crate::discover_fast`] does — the dictionary's frequency order, the
//!   exact ontology `τ_min` of the rows, the predicate subset their
//!   statistics choose — except that edit predicates keep symmetric q-gram
//!   prefixes, and walk the pass over every entity at one worker.
//! * **Add.** The newcomer is keyed by the same row function under the
//!   token order, `τ_min` and subsets of the last build: keys made under
//!   one fixed context stay comparable, whatever the rows. It ranks above
//!   every entity, so appending it keeps each list in rank order, and one
//!   gather finds all its partners.
//! * **Re-key.** Keys stay exact under growth by rebuilding them, not by
//!   coarsening them. A newcomer whose ontology node would lower a rule's
//!   `τ_min` (at most once per ontology level), or a session that has
//!   doubled since its last build, re-keys every rule over the current
//!   rows without verifying any pair; doubling keeps that amortized O(1)
//!   per add.
//!
//! Entity **removal** ([`IncrementalDime::remove_entity`]) compacts ids
//! and ranks (every later id shifts down by one) in the group, the arena
//! and the pass state. Partitions not containing the removed entity keep
//! their merges: positive links are pairwise properties. Its former
//! component goes back to singletons, and its members walk the pass in
//! descending rank; a partner outside it is passed over like one the edit
//! bound refutes, so a remove verifies no pair outside it.
//!
//! The negative phase (pivot selection + partition flagging) is recomputed
//! on every [`IncrementalDime::discovery`], over the maintained arena. In
//! perfbench's traced session replays (300-row groups growing by 4-row
//! adds, on a 2-vCPU shared host, seed 1101, medians of 6 runs) creating
//! a session, its document parsed included, costs 1.25 ms on dbgen and
//! 2.08 ms on scholar, one 4-row add 0.022 and 0.042 ms, and one
//! discovery 0.098 and 0.21 ms.
//!
//! For an end-to-end walkthrough of streaming discovery see
//! `examples/streaming_profile.rs`; for serving many live groups over this
//! engine concurrently, see the `dime-serve` crate.

use crate::arena::VerifyArena;
use crate::dime_plus::{negative_phase, verify_positive_rule};
use crate::dime_plus::{Candidates, DimePlusConfig, LiveLists, Pass, Scratch};
use crate::discover::{pick_pivot, Discovery};
use crate::entity::Group;
use crate::rule::Rule;
use crate::signature::SigContext;
use dime_index::ConcurrentUnionFind;
use dime_ontology::NodeId;
use dime_trace::{span, NoopSink, TraceSink, NOOP};
use std::sync::Arc;

/// One entity as [`IncrementalDime::reopen`] replays it: its attribute
/// values, and its resolved ontology nodes when it was added with them.
type Row = (Vec<String>, Option<Vec<Option<NodeId>>>);

/// Incrementally maintained DIME state over a growing group.
///
/// # Examples
///
/// ```
/// use dime_core::{discover_naive, GroupBuilder, IncrementalDime, Predicate, Rule, Schema, SimilarityFn};
/// use dime_text::TokenizerKind;
///
/// let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
/// let group = GroupBuilder::new(schema).build();
/// let pos = vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 2.0)])];
/// let neg = vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])];
///
/// let mut inc = IncrementalDime::new(group, pos.clone(), neg.clone());
/// inc.add_entity(&["ann, bob"]);
/// inc.add_entity(&["ann, bob, carol"]);
/// inc.add_entity(&["zed"]);
/// let d = inc.discovery();
/// assert_eq!(d.mis_categorized().into_iter().collect::<Vec<_>>(), vec![2]);
/// // Identical to a from-scratch batch run on the final group.
/// assert_eq!(d, discover_naive(inc.group(), &pos, &neg));
/// ```
pub struct IncrementalDime {
    group: Group,
    positive: Vec<Rule>,
    negative: Vec<Rule>,
    /// The packed view of `group` every pair is verified through, kept in
    /// step with it.
    arena: VerifyArena,
    uf: ConcurrentUnionFind,
    /// Per positive rule, the pass state of the last build (compiled rule,
    /// keys, postings), kept in step with the group since.
    rules: Vec<Candidates<LiveLists>>,
    /// The token order and `τ_min` values of the last build: every key in
    /// `rules` was made under them.
    keys: SigContext,
    /// How many entities the last build keyed.
    built: usize,
    /// The gather buffers every add and remove reuses.
    scratch: Scratch,
    /// Candidate pairs actually verified (positive-rule evaluations) over
    /// the engine's lifetime — the observability counter surfaced by
    /// `dime-serve` session stats.
    pairs_verified: u64,
    /// Trace sink receiving per-operation spans and counters; a no-op
    /// sink by default, replaceable via [`IncrementalDime::with_sink`].
    sink: Arc<dyn TraceSink + Send + Sync>,
}

/// One untraced walk of `rule`'s pass over `probers` into `uf`, passing
/// over the partners outside `within` when given. Returns the pairs
/// verified.
fn walk(
    rule: &Candidates<LiveLists>,
    arena: &VerifyArena,
    uf: &ConcurrentUnionFind,
    scratch: &mut Scratch,
    probers: impl IntoIterator<Item = u32>,
    within: Option<&[bool]>,
) -> u64 {
    let open = |a: u32, b: u32| {
        within.is_none_or(|w| w[b as usize])
            && arena.bound_open(&rule.compiled, a as usize, b as usize)
    };
    let pass = Pass { arena, uf, skip: true, open };
    rule.walk(probers, &pass, scratch, &NOOP, &NOOP).verified
}

impl IncrementalDime {
    /// Wraps an existing group (commonly empty) and fixes the rule set.
    /// The group's entities are keyed and linked by one batch pass.
    ///
    /// # Panics
    ///
    /// Panics when rules are supplied with the wrong polarity.
    pub fn new(group: Group, positive: Vec<Rule>, negative: Vec<Rule>) -> Self {
        crate::discover::check_polarities(&positive, &negative);
        let mut this = Self {
            arena: VerifyArena::new(&group),
            uf: ConcurrentUnionFind::new(0),
            rules: Vec::new(),
            keys: SigContext::new(&group),
            built: 0,
            scratch: Scratch::default(),
            group,
            positive,
            negative,
            pairs_verified: 0,
            sink: Arc::new(NoopSink),
        };
        this.build(true);
        this
    }

    /// Replaces the trace sink, so subsequent insertions, removals and
    /// discovery runs report spans and counters into it. The default sink
    /// is a no-op.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink + Send + Sync>) -> Self {
        self.sink = sink;
        self
    }

    /// Rebuilds an engine from persisted state: the base group (commonly
    /// empty — schema, ontologies, rules, no entities) and the surviving
    /// rows in id order, each carrying its attribute values and, when the
    /// entity was added with explicit ontology nodes, those nodes.
    ///
    /// Every row is pushed first, then one build keys and links them all,
    /// exactly as [`IncrementalDime::new`] over the same rows. The rebuilt
    /// engine's [`IncrementalDime::discovery`] equals the pre-crash
    /// engine's: any add/remove interleaving equals a batch run on the
    /// final rows (the invariant proptested below), so two engines holding
    /// the same final rows agree. This is what `dime-store`'s crash
    /// recovery replays into.
    pub fn reopen(
        mut group: Group,
        positive: Vec<Rule>,
        negative: Vec<Rule>,
        rows: &[Row],
    ) -> Self {
        for (values, nodes) in rows {
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            match nodes {
                Some(nodes) => group.push_entity_with_nodes(&refs, nodes),
                None => group.push_entity(&refs),
            };
        }
        Self::new(group, positive, negative)
    }

    /// The current group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Number of entities so far.
    pub fn len(&self) -> usize {
        self.group.len()
    }

    /// Whether no entities have been added yet.
    pub fn is_empty(&self) -> bool {
        self.group.is_empty()
    }

    /// How many candidate pairs the engine has verified (positive-rule
    /// evaluations) since construction, across insertions and removals.
    pub fn pairs_verified(&self) -> u64 {
        self.pairs_verified
    }

    /// The current positive rules, in application order.
    pub fn positive_rules(&self) -> &[Rule] {
        &self.positive
    }

    /// The current negative rules, in scrollbar (generation) order.
    pub fn negative_rules(&self) -> &[Rule] {
        &self.negative
    }

    /// Replaces the rule set **in place**, keeping the group and its
    /// entities. This is the live-install path behind the `rules` protocol
    /// op: the rows are keyed and linked afresh by the build
    /// [`IncrementalDime::new`] runs, so the post-install state is the one
    /// an engine constructed with the new rules over the same group would
    /// have. The arena depends on the group alone, so it is kept as is.
    /// `pairs_verified` accumulates across the install (installs do real
    /// verify work, and the counter is a lifetime odometer); the batch pass
    /// reports that work to the sink itself.
    ///
    /// # Panics
    ///
    /// Panics when rules are supplied with the wrong polarity, like
    /// [`IncrementalDime::new`].
    pub fn set_rules(&mut self, positive: Vec<Rule>, negative: Vec<Rule>) {
        crate::discover::check_polarities(&positive, &negative);
        let sink = Arc::clone(&self.sink);
        let _op = span(sink.as_ref(), "incremental_set_rules");
        self.positive = positive;
        self.negative = negative;
        self.keys = SigContext::new(&self.group);
        self.build(true);
        if sink.enabled() {
            sink.add("rules_installed", 1);
        }
    }

    /// Keys and compiles every positive rule under `self.keys`, which the
    /// caller has just made from the current rows. With `link`, the batch
    /// pass rebuilds the partition from singletons; without (a re-key), the
    /// partition is kept and the last row, the newcomer, is left for its
    /// add to file above every entity.
    fn build(&mut self, link: bool) {
        let n = self.group.len();
        if link {
            self.uf = ConcurrentUnionFind::new(n);
        }
        let sink = self.sink.as_ref();
        let mut rules = Vec::with_capacity(self.positive.len());
        for (ri, rule) in self.positive.iter().enumerate() {
            let sigs = self.keys.positive_rule_signatures_threaded(&self.group, rule, 1, true);
            let mut candidates = {
                let _s = span(sink, "index_probe");
                Candidates::new(self.arena.compile(rule), sigs)
            };
            if link {
                let (arena, uf, config) = (&self.arena, &self.uf, DimePlusConfig::default());
                self.pairs_verified +=
                    verify_positive_rule(arena, &candidates, uf, config, 1, sink, ri);
            } else {
                candidates.remove(n as u32 - 1);
            }
            rules.push(candidates);
        }
        self.rules = rules;
        self.built = n;
    }

    /// Adds an entity (ontology nodes auto-mapped) and links it into the
    /// partition structure. Returns its id.
    pub fn add_entity(&mut self, raw_values: &[&str]) -> usize {
        self.add_with(|group| group.push_entity(raw_values))
    }

    /// Adds an entity with explicit ontology nodes. Returns its id.
    pub fn add_entity_with_nodes(
        &mut self,
        raw_values: &[&str],
        nodes: &[Option<NodeId>],
    ) -> usize {
        self.add_with(|group| group.push_entity_with_nodes(raw_values, nodes))
    }

    /// The one add body: `push` appends the row to the group, the new
    /// entity joins the union-find, the arena and the compiled rules, the
    /// rules are re-keyed when it calls for that, and per rule it is keyed,
    /// filed above every entity, and walked by the batch pass: one gather
    /// finds all its partners.
    fn add_with(&mut self, push: impl FnOnce(&mut Group) -> usize) -> usize {
        let sink = Arc::clone(&self.sink);
        let _op = span(sink.as_ref(), "incremental_add");
        let id = push(&mut self.group);
        let uid = self.uf.push();
        debug_assert_eq!(id, uid);
        self.arena.push(&self.group, id);
        for live in &mut self.rules {
            live.compiled.push(&self.arena, id);
        }
        if id >= 2 * self.built || self.keys.lowers_tau(&self.group, id, &self.positive) {
            self.keys = SigContext::new(&self.group);
            self.build(false);
        }
        let mut verified = 0;
        for (rule, live) in self.positive.iter().zip(&mut self.rules) {
            live.push(self.keys.entity_keys(&self.group, id, rule, &live.sigs.plan));
            verified += walk(live, &self.arena, &self.uf, &mut self.scratch, [id as u32], None);
        }
        self.pairs_verified += verified;
        if sink.enabled() {
            sink.add("entities_added", 1);
            sink.add("pairs_verified", verified);
        }
        id
    }

    /// Removes the entity with id `id`, returning `false` (and changing
    /// nothing) for an out-of-range id. Ids compact: every entity with a
    /// larger id shifts down by one, exactly like
    /// [`Group::remove_entity`], in the group, the arena, the compiled
    /// rules and the postings alike.
    ///
    /// Partitions not containing `id` keep their merges: positive links
    /// are pairwise properties, so removing a non-member cannot invalidate
    /// them, and links never cross partition boundaries. The removed
    /// entity's former partition goes back to singletons and is re-linked
    /// among its remaining members (it may split when the removed entity
    /// was the bridge) by one walk of the batch pass per rule, members in
    /// descending rank, each gathering its partners ranked below it. A
    /// partner outside the partition is passed over, as the edit bound
    /// passes over a pair: it fails every positive rule, or the two would
    /// share a partition. Any path between two members ran entirely inside
    /// the partition, so that is exhaustive, and no pair outside it is
    /// verified. The settled records are cleared first, since the
    /// partition they speak for may split.
    pub fn remove_entity(&mut self, id: usize) -> bool {
        if id >= self.group.len() {
            return false;
        }
        let sink = Arc::clone(&self.sink);
        let _op = span(sink.as_ref(), "incremental_remove");
        let components = self.uf.components();
        let affected = components
            .iter()
            .position(|c| c.binary_search(&id).is_ok())
            .expect("every entity sits in exactly one component");
        self.group.remove_entity(id);
        self.arena.remove(id);
        for live in &mut self.rules {
            live.compiled.remove(id);
            live.remove(id as u32);
        }
        let shift = |e: usize| if e > id { e - 1 } else { e };

        // Surviving components keep their merges verbatim.
        self.uf = ConcurrentUnionFind::new(self.group.len());
        for (ci, comp) in components.iter().enumerate() {
            if ci == affected {
                continue;
            }
            for &m in &comp[1..] {
                self.uf.union(shift(comp[0]), shift(m));
            }
        }
        let mut within = vec![false; self.group.len()];
        for &m in components[affected].iter().filter(|&&m| m != id) {
            within[shift(m)] = true;
        }
        let mut verified = 0;
        for live in &self.rules {
            let probers = live.order.iter().rev().copied().filter(|&m| within[m as usize]);
            verified +=
                walk(live, &self.arena, &self.uf, &mut self.scratch, probers, Some(&within));
        }
        self.pairs_verified += verified;
        if sink.enabled() {
            sink.add("entities_removed", 1);
            sink.add("pairs_verified", verified);
        }
        true
    }

    /// Computes the current [`Discovery`]: partitions from the maintained
    /// union-find, then the negative phase over the maintained arena.
    ///
    /// # Panics
    ///
    /// Panics on an empty group (no pivot exists).
    pub fn discovery(&self) -> Discovery {
        assert!(!self.group.is_empty(), "cannot discover in an empty group");
        let sink = Arc::clone(&self.sink);
        let union_span = span(sink.as_ref(), "union");
        let partitions = self.uf.components();
        let pivot = pick_pivot(&partitions);
        drop(union_span);
        let (steps, witnesses) =
            negative_phase(&self.arena, &self.negative, &partitions, pivot, 1, sink.as_ref());
        Discovery { partitions, pivot, steps, witnesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dime_plus::tests::ontology_group;
    use crate::discover::discover_naive;
    use crate::entity::{GroupBuilder, Schema};
    use crate::rule::{Predicate, SimilarityFn};
    use dime_text::TokenizerKind;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new([("Title", TokenizerKind::Words), ("Authors", TokenizerKind::List(','))])
    }

    fn rules() -> (Vec<Rule>, Vec<Rule>) {
        (
            vec![
                Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)]),
                Rule::positive(vec![
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                    Predicate::new(0, SimilarityFn::Jaccard, 0.5),
                ]),
            ],
            vec![Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)])],
        )
    }

    /// The recovery contract: an engine rebuilt from the surviving rows
    /// (what `dime-store` replays after a crash) reports the same
    /// discovery as the engine that lived through the operations —
    /// despite the two keying under different token orders.
    #[test]
    fn reopen_from_rows_matches_the_original_engine() {
        let (pos, neg) = rules();
        let mut live =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        let mut rows: Vec<Row> = Vec::new();
        let script = [
            ("entity matching", "ann, bob"),
            ("entity matching redux", "ann, bob, carol"),
            ("organic synthesis", "dora"),
            ("entity matching again", "bob, carol"),
        ];
        for (t, a) in script {
            live.add_entity(&[t, a]);
            rows.push((vec![t.to_string(), a.to_string()], None));
        }
        live.remove_entity(1);
        rows.remove(1);

        let reopened =
            IncrementalDime::reopen(GroupBuilder::new(schema()).build(), pos, neg, &rows);
        assert_eq!(live.discovery(), reopened.discovery());
    }

    #[test]
    fn matches_batch_on_simple_sequence() {
        let (pos, neg) = rules();
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        let rows = [
            ("entity matching rules", "ann, bob"),
            ("entity matching systems", "ann, bob, carol"),
            ("organic synthesis", "zed"),
            ("entity matching deep dive", "bob, carol"),
        ];
        for (t, a) in rows {
            inc.add_entity(&[t, a]);
        }
        let d = inc.discovery();
        assert_eq!(d, discover_naive(inc.group(), &pos, &neg));
        assert_eq!(d.mis_categorized().into_iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn starts_from_a_non_empty_group() {
        let (pos, neg) = rules();
        let mut b = GroupBuilder::new(schema());
        b.add_entity(&["a title", "ann, bob"]);
        b.add_entity(&["b title", "ann, bob"]);
        let mut inc = IncrementalDime::new(b.build(), pos.clone(), neg.clone());
        inc.add_entity(&["c title", "nobody here"]);
        let d = inc.discovery();
        assert_eq!(d, discover_naive(inc.group(), &pos, &neg));
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_discovery_panics() {
        let (pos, neg) = rules();
        let inc = IncrementalDime::new(GroupBuilder::new(schema()).build(), pos, neg);
        let _ = inc.discovery();
    }

    /// Rebuilds the equivalent batch group from surviving rows, in id
    /// order — the reference against which removal is checked.
    fn batch_group(rows: &[(String, String)]) -> Group {
        let mut b = GroupBuilder::new(schema());
        for (t, a) in rows {
            b.add_entity(&[t.as_str(), a.as_str()]);
        }
        b.build()
    }

    #[test]
    fn remove_splits_a_bridged_partition() {
        let (pos, neg) = rules();
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        // 0 and 2 only connect through bridge entity 1.
        inc.add_entity(&["t", "ann, bob"]);
        inc.add_entity(&["t", "ann, bob, carol, dan"]);
        inc.add_entity(&["t", "carol, dan"]);
        inc.add_entity(&["t", "zed, yan"]);
        assert_eq!(inc.discovery().partitions.len(), 2);
        assert!(inc.remove_entity(1));
        // Bridge gone: {old 0} and {old 2 → new 1} split apart.
        let d = inc.discovery();
        assert_eq!(d.partitions.len(), 3);
        let rows = vec![
            ("t".to_string(), "ann, bob".to_string()),
            ("t".to_string(), "carol, dan".to_string()),
            ("t".to_string(), "zed, yan".to_string()),
        ];
        assert_eq!(d, discover_naive(&batch_group(&rows), &pos, &neg));
    }

    #[test]
    fn remove_out_of_range_is_a_noop() {
        let (pos, neg) = rules();
        let mut inc = IncrementalDime::new(GroupBuilder::new(schema()).build(), pos, neg);
        inc.add_entity(&["t", "ann"]);
        assert!(!inc.remove_entity(1));
        assert!(!inc.remove_entity(99));
        assert_eq!(inc.len(), 1);
        assert!(inc.remove_entity(0));
        assert!(inc.is_empty());
    }

    #[test]
    fn add_after_remove_reuses_compacted_ids() {
        let (pos, neg) = rules();
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        inc.add_entity(&["a", "ann, bob"]);
        inc.add_entity(&["b", "ann, bob"]);
        inc.add_entity(&["c", "zed"]);
        assert!(inc.remove_entity(0));
        let id = inc.add_entity(&["d", "ann, bob"]);
        assert_eq!(id, 2, "ids stay dense after a removal");
        let rows = vec![
            ("b".to_string(), "ann, bob".to_string()),
            ("c".to_string(), "zed".to_string()),
            ("d".to_string(), "ann, bob".to_string()),
        ];
        assert_eq!(inc.discovery(), discover_naive(&batch_group(&rows), &pos, &neg));
    }

    #[test]
    fn pairs_verified_counts_work() {
        let (pos, neg) = rules();
        let mut inc = IncrementalDime::new(GroupBuilder::new(schema()).build(), pos, neg);
        inc.add_entity(&["a", "ann, bob"]);
        assert_eq!(inc.pairs_verified(), 0, "first entity has nothing to verify against");
        inc.add_entity(&["b", "ann, bob"]);
        assert!(inc.pairs_verified() > 0);
        // A partner met on two lists is verified once: under `overlap ≥ 3`
        // both rows key on `ann` and `bob`, and they share no third author.
        let pos = vec![Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 3.0)])];
        let mut b = GroupBuilder::new(schema());
        b.add_entity(&["a", "ann, bob, carol, dan"]);
        let mut inc = IncrementalDime::new(b.build(), pos, rules().1);
        inc.add_entity(&["b", "ann, bob, xu, yan"]);
        assert_eq!(inc.pairs_verified(), 1);
    }

    #[test]
    fn trace_sink_sees_incremental_operations() {
        use dime_trace::Recorder;
        let (pos, neg) = rules();
        let rec = Arc::new(Recorder::new());
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone())
                .with_sink(rec.clone());
        inc.add_entity(&["a", "ann, bob"]);
        inc.add_entity(&["b", "ann, bob"]);
        inc.add_entity(&["c", "zed"]);
        assert!(inc.remove_entity(2));
        // The install's batch pass reports its own verified pairs.
        inc.set_rules(pos, neg);
        let _ = inc.discovery();
        let report = rec.snapshot();
        assert_eq!(report.counter("entities_added"), 3);
        assert_eq!(report.counter("entities_removed"), 1);
        assert_eq!(report.counter("pairs_verified"), inc.pairs_verified());
        for phase in ["incremental_add", "incremental_remove", "union", "flag"] {
            assert!(
                report.phases.iter().any(|p| p.name == phase && p.count > 0),
                "missing phase {phase}"
            );
        }
        assert!(report.rule_hits.iter().any(|r| r.kind == dime_trace::RuleKind::Negative));
    }

    #[test]
    fn set_rules_matches_an_engine_born_with_them() {
        let (pos, neg) = rules();
        // Start with deliberately weak rules, then install the real ones.
        let weak_pos = vec![Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 5.0)])];
        let weak_neg = vec![Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)])];
        let mut inc = IncrementalDime::new(GroupBuilder::new(schema()).build(), weak_pos, weak_neg);
        let script = [
            ("entity matching", "ann, bob"),
            ("entity matching redux", "ann, bob, carol"),
            ("organic synthesis", "dora"),
            ("entity matching again", "bob, carol"),
        ];
        for (t, a) in script {
            inc.add_entity(&[t, a]);
        }
        inc.remove_entity(2);
        inc.set_rules(pos.clone(), neg.clone());
        assert_eq!(inc.arena, VerifyArena::new(inc.group()));
        assert_eq!(inc.positive_rules(), &pos[..]);
        assert_eq!(inc.negative_rules(), &neg[..]);
        let d = inc.discovery();
        assert_eq!(d, discover_naive(inc.group(), &pos, &neg));
    }

    #[test]
    fn set_rules_keeps_later_insertions_comparable() {
        let (pos, neg) = rules();
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        inc.add_entity(&["entity matching", "ann, bob"]);
        // Swap to the same rules (a re-keying install), then keep
        // streaming: the install's token order must still accept new
        // tokens deterministically.
        inc.set_rules(pos.clone(), neg.clone());
        inc.add_entity(&["entity matching redux", "ann, bob, carol"]);
        inc.add_entity(&["organic synthesis", "unseen tokens here"]);
        let d = inc.discovery();
        assert_eq!(d, discover_naive(inc.group(), &pos, &neg));
        assert_eq!(d.mis_categorized().into_iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn set_rules_accumulates_pairs_verified() {
        let (pos, neg) = rules();
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        inc.add_entity(&["a", "ann, bob"]);
        inc.add_entity(&["b", "ann, bob"]);
        let before = inc.pairs_verified();
        assert!(before > 0);
        inc.set_rules(pos, neg);
        assert!(inc.pairs_verified() >= before, "the odometer never rewinds");
    }

    #[test]
    #[should_panic(expected = "negative rule")]
    fn set_rules_rejects_mispolarized_rules() {
        let (pos, neg) = rules();
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone());
        inc.set_rules(neg, pos);
    }

    /// The rows the live proptests stream: a title, an author list and a
    /// venue choice, as [`live_group`] turns them into values and nodes.
    type LiveRow = (String, Vec<u32>, usize);

    /// An empty group with [`ontology_group`]'s schema (`Title`, `Authors`,
    /// `Venue`) and venue ontology, and the nodes a row's venue choice maps
    /// to: the twelve venues (depth 4), three areas (depth 3) and field
    /// `f0` (depth 2), past those unmapped.
    fn live_base() -> (Group, Vec<NodeId>) {
        let g = ontology_group(&[], &[], &[]);
        let ont = g.ontology(2).expect("the venue ontology");
        let mut names: Vec<String> = Vec::new();
        for f in 0..3 {
            for a in 0..2 {
                names.extend((0..2).map(|v| format!("f{f}a{a}v{v}")));
            }
        }
        names.extend(["f0a0", "f0a1", "f1a0", "f0"].map(String::from));
        let nodes = names.iter().map(|n| ont.lookup(n).expect("a venue-ontology node")).collect();
        (g, nodes)
    }

    /// Pushes `row` through `add` as values and explicit nodes.
    fn add_row(inc: &mut IncrementalDime, nodes: &[NodeId], (title, authors, venue): &LiveRow) {
        let joined: Vec<String> = authors.iter().map(|x| format!("a{x}")).collect();
        let venue_text = format!("venue {venue}");
        let values = [title.as_str(), &joined.join(", "), &venue_text];
        inc.add_entity_with_nodes(&values, &[None, None, nodes.get(*venue).copied()]);
    }

    /// [`live_base`] holding `rows`, built in one go: the oracle's group.
    fn live_group(rows: &[LiveRow]) -> Group {
        let (base, nodes) = live_base();
        let mut inc = IncrementalDime::reopen(base, Vec::new(), Vec::new(), &[]);
        for row in rows {
            add_row(&mut inc, &nodes, row);
        }
        inc.group
    }

    /// Rules over [`live_base`]'s attributes: an ontology conjunction whose
    /// `τ_min` falls from 3 to 2 once an area or field arrives (field `f0`
    /// and its areas score 0.8, keyed apart at depth 3), an `edit_sim` rule
    /// that short or repetitive titles make wildcards, and set rules.
    fn live_rules() -> (Vec<Rule>, Vec<Rule>) {
        (
            vec![
                Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)]),
                Rule::positive(vec![
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                    Predicate::new(2, SimilarityFn::Ontology, 0.75),
                ]),
                Rule::positive(vec![Predicate::new(0, SimilarityFn::EditSimilarity, 0.8)]),
                Rule::positive(vec![
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                    Predicate::new(0, SimilarityFn::Jaccard, 0.5),
                ]),
            ],
            vec![
                Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)]),
                Rule::negative(vec![
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                    Predicate::new(2, SimilarityFn::Ontology, 0.25),
                ]),
            ],
        )
    }

    /// The rules a live proptest stream starts under before installing
    /// [`live_rules`] mid-stream.
    fn weak_rules() -> (Vec<Rule>, Vec<Rule>) {
        let (pos, neg) = live_rules();
        (vec![pos[2].clone(), pos[0].clone()], neg[1..].to_vec())
    }

    /// The venue a proptest row gets: rows in the first half of a stream
    /// take only venues (or none), so areas and the field come after them.
    fn venue_at(i: usize, len: usize, venue: usize) -> usize {
        if i < len / 2 && (12..16).contains(&venue) {
            venue - 12
        } else {
            venue
        }
    }

    /// The engine's discovery equals the naive engine's on the rows it
    /// holds, under the rules it holds, and its arena is the one the rows
    /// build.
    fn check_against_naive(inc: &IncrementalDime, rows: &[LiveRow]) {
        assert_eq!(inc.len(), rows.len());
        assert_eq!(inc.arena, VerifyArena::new(inc.group()));
        if !rows.is_empty() {
            let (pos, neg) = (inc.positive_rules().to_vec(), inc.negative_rules().to_vec());
            assert_eq!(inc.discovery(), discover_naive(&live_group(rows), &pos, &neg));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The central incremental invariant: after any insertion sequence,
        /// with [`live_rules`] installed mid-stream, the result equals a
        /// from-scratch batch run on the final group.
        #[test]
        fn prop_incremental_equals_batch(
            lists in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..5), 1..16),
            titles in proptest::collection::vec("[a-c ]{0,10}", 16),
            venues in proptest::collection::vec(0usize..18, 16),
            install in 0usize..18,
        ) {
            let (base, nodes) = live_base();
            let (pos, neg) = weak_rules();
            let mut inc = IncrementalDime::new(base, pos, neg);
            let mut rows = Vec::new();
            for (i, list) in lists.iter().enumerate() {
                if i == install {
                    let (pos, neg) = live_rules();
                    inc.set_rules(pos, neg);
                }
                let row = (titles[i].clone(), list.clone(), venue_at(i, lists.len(), venues[i]));
                add_row(&mut inc, &nodes, &row);
                rows.push(row);
            }
            check_against_naive(&inc, &rows);
        }

        /// The removal invariant: after any interleaving of insertions and
        /// removals, with [`live_rules`] installed mid-stream, the result
        /// equals a from-scratch batch run on the final group.
        #[test]
        fn prop_add_remove_interleaving_equals_batch(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, proptest::collection::vec(0u32..10, 0..5), 0usize..16, 0usize..18),
                1..20,
            ),
            titles in proptest::collection::vec("[a-cö ]{0,8}", 20),
            install in 0usize..22,
        ) {
            let (base, nodes) = live_base();
            let (pos, neg) = weak_rules();
            let mut inc = IncrementalDime::new(base, pos, neg);
            let mut rows: Vec<LiveRow> = Vec::new();
            for (i, (is_remove, list, pick, venue)) in ops.iter().enumerate() {
                if i == install {
                    let (pos, neg) = live_rules();
                    inc.set_rules(pos, neg);
                }
                if *is_remove && !rows.is_empty() {
                    let id = pick % rows.len();
                    prop_assert!(inc.remove_entity(id));
                    rows.remove(id);
                } else {
                    let row = (titles[i].clone(), list.clone(), venue_at(i, ops.len(), *venue));
                    add_row(&mut inc, &nodes, &row);
                    rows.push(row);
                }
            }
            check_against_naive(&inc, &rows);
        }
    }

    /// A shallow node after deep ones lowers the ontology rule's `τ_min`
    /// from 3 to 2: the add re-keys every rule before it is linked. Area
    /// `f0a1` and field `f0` score 2·2/5 ≥ 0.75, and only keys at depth 2
    /// put them on one list.
    #[test]
    fn a_shallower_node_rekeys() {
        let (base, nodes) = live_base();
        let (pos, neg) = live_rules();
        let mut inc = IncrementalDime::new(base, pos.clone(), neg.clone());
        // Titles `aaaaaa`, `bbbbbb`, …: no title rule links two rows.
        let title = |i: u8| char::from(b'a' + i).to_string().repeat(6);
        let mut rows: Vec<LiveRow> =
            (0..12).map(|i| (title(i as u8), vec![0, 100 + i as u32], i)).collect();
        rows.push((title(12), vec![200], 13));
        rows.push((title(13), vec![200], 15));
        for (i, row) in rows.iter().enumerate() {
            add_row(&mut inc, &nodes, row);
            if i == 11 {
                assert_eq!(inc.built, 7, "re-keyed at 1, 3 and 7 rows");
            }
        }
        assert_eq!(inc.built, 13, "the area re-keyed");
        let d = inc.discovery();
        assert_eq!(d, discover_naive(&live_group(&rows), &pos, &neg));
        assert!(d.partitions.contains(&vec![12, 13]));
    }

    /// A newcomer with keys gathers the earlier wildcards: `ababababab`
    /// has two distinct bigrams, too few for a prefix at `edit_sim ≥ 0.8`,
    /// and `ababacdbab`, two substitutions away, has five.
    #[test]
    fn keyed_add_meets_an_earlier_wildcard() {
        let (base, nodes) = live_base();
        let (pos, neg) = live_rules();
        let mut inc = IncrementalDime::new(base, pos.clone(), neg.clone());
        let rows: Vec<LiveRow> = ["ababababab", "xyz", "zyx", "ababacdbab"]
            .map(|t| (t.to_string(), Vec::new(), 16))
            .to_vec();
        for row in &rows {
            add_row(&mut inc, &nodes, row);
        }
        assert_eq!(inc.rules[2].sigs.index[0], None, "a wildcard");
        assert_eq!(inc.built, 3, "the fourth add is keyed, not re-keyed");
        let d = inc.discovery();
        assert_eq!(d, discover_naive(&live_group(&rows), &pos, &neg));
        assert!(d.partitions.contains(&vec![0, 3]));
    }

    /// `reopen` pushes every row and then builds once, as `new` does over
    /// a group already holding them: the two verify the same pairs.
    #[test]
    fn reopen_verifies_what_new_verifies() {
        let (base, nodes) = live_base();
        let (pos, neg) = live_rules();
        let mut rng = crate::dime_plus::tests::SplitMix64(0x2E0_9E4);
        let rows: Vec<LiveRow> = (0..300)
            .map(|_| {
                let title = (0..rng.below(9)).map(|_| ['a', 'b', 'c', ' '][rng.below(4)]).collect();
                let authors = (0..rng.below(4)).map(|_| rng.below(40) as u32).collect();
                (title, authors, rng.below(18))
            })
            .collect();
        let persisted: Vec<Row> = rows
            .iter()
            .map(|(title, authors, venue)| {
                let joined: Vec<String> = authors.iter().map(|x| format!("a{x}")).collect();
                let values = vec![title.clone(), joined.join(", "), format!("venue {venue}")];
                (values, Some(vec![None, None, nodes.get(*venue).copied()]))
            })
            .collect();
        let reopened = IncrementalDime::reopen(base, pos.clone(), neg.clone(), &persisted);
        let born = IncrementalDime::new(live_group(&rows), pos.clone(), neg.clone());
        assert!(born.pairs_verified() > 0);
        assert_eq!(reopened.pairs_verified(), born.pairs_verified());
        assert_eq!(reopened.discovery(), born.discovery());
        assert_eq!(born.discovery(), discover_naive(born.group(), &pos, &neg));
    }

    /// A remove re-links the removed entity's former component only: every
    /// pair it verifies has both sides in that component.
    #[test]
    fn remove_verifies_only_inside_its_component() {
        let (base, nodes) = live_base();
        let (pos, neg) = live_rules();
        let mut inc = IncrementalDime::new(base, pos.clone(), neg.clone());
        let mut rng = crate::dime_plus::tests::SplitMix64(0x2E_3071);
        let mut rows = Vec::new();
        for _ in 0..120 {
            let title = (0..rng.below(9)).map(|_| ['a', 'b', 'c', ' '][rng.below(4)]).collect();
            let row = (title, (0..rng.below(4)).map(|_| rng.below(60) as u32).collect(), 16);
            add_row(&mut inc, &nodes, &row);
            rows.push(row);
        }
        let d = inc.discovery();
        let mut victims: Vec<usize> =
            d.partitions.iter().filter(|p| p.len() > 2).map(|p| p[1]).collect();
        assert!(victims.len() >= 3, "too few multi-member components: {}", victims.len());
        // Highest id first, so the ids still to remove do not shift.
        victims.sort_unstable();
        for victim in victims.into_iter().rev() {
            let component = inc.discovery().partitions.into_iter().find(|p| p.contains(&victim));
            let size = component.expect("a component").len() as u64 - 1;
            let before = inc.pairs_verified();
            assert!(inc.remove_entity(victim));
            rows.remove(victim);
            let verified = inc.pairs_verified() - before;
            assert!(
                verified <= size * (size - 1) / 2,
                "{verified} pairs in a {size}-member component"
            );
            assert_eq!(inc.discovery(), discover_naive(&live_group(&rows), &pos, &neg));
        }
    }

    /// Every gather stamps with a fresh tag. An add that reuses a compacted
    /// id, and a remove whose member gathers a list it gathered when it
    /// was added, each find every partner: the session keeps one stamp
    /// array, and a stamp keyed by the prober's id would outlive the
    /// operation, read "met already" and hide one.
    #[test]
    fn reused_ids_find_every_partner() {
        let pos = vec![Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 1.0)])];
        let neg = rules().1;
        let engine = |authors: &[&str]| {
            let group = GroupBuilder::new(schema()).build();
            let mut inc = IncrementalDime::new(group, pos.clone(), neg.clone());
            authors.iter().for_each(|&a| _ = inc.add_entity(&["t", a]));
            inc
        };
        // Id 2 met id 1 on `bob`; after the remove, the newcomer takes id 2
        // and must meet the new id 1 on `cat`.
        let mut inc = engine(&["ann", "bob", "bob, cat"]);
        assert!(inc.remove_entity(0));
        assert_eq!(inc.add_entity(&["t", "cat"]), 2);
        assert_eq!(inc.discovery().partitions, vec![vec![0, 1, 2]]);
        assert_eq!(inc.discovery(), discover_naive(inc.group(), &pos, &neg));
        // Id 3 met id 0 on `ann` when it was added (after the re-key at
        // three rows); the remove re-links the two through that list.
        let mut inc = engine(&["ann", "x", "y", "ann, bob", "bob"]);
        assert!(inc.remove_entity(4));
        assert_eq!(inc.discovery().partitions, vec![vec![0, 3], vec![1], vec![2]]);
        assert_eq!(inc.discovery(), discover_naive(inc.group(), &pos, &neg));
    }

    /// Pins every operation's `pairs_verified` on a fixed group: a build,
    /// a script of adds and removes (a pivot member among the removes),
    /// then a rule install. Each step must also equal the naive engine.
    #[test]
    fn golden_live_counters() {
        let nodes = live_base().1;
        let (pos, neg) = live_rules();
        let mut rng = crate::dime_plus::tests::SplitMix64(0x601D_11FE);
        let mut row = || -> LiveRow {
            let title = (0..rng.below(9)).map(|_| ['a', 'b', 'c', ' '][rng.below(4)]).collect();
            let authors = (0..rng.below(4)).map(|_| rng.below(30) as u32).collect();
            (title, authors, rng.below(18))
        };
        let mut rows: Vec<LiveRow> = (0..80).map(|_| row()).collect();
        let mut inc = IncrementalDime::new(live_group(&rows), pos, neg);
        let mut verified = vec![inc.pairs_verified()];
        for step in 0..24 {
            let before = inc.pairs_verified();
            if step % 4 == 3 {
                let d = inc.discovery();
                let id =
                    if step % 8 == 3 { d.pivot_members()[step % 5] } else { step * 7 % rows.len() };
                assert!(inc.remove_entity(id));
                rows.remove(id);
            } else {
                let new = row();
                add_row(&mut inc, &nodes, &new);
                rows.push(new);
            }
            verified.push(inc.pairs_verified() - before);
            check_against_naive(&inc, &rows);
        }
        let before = inc.pairs_verified();
        let (pos, neg) = weak_rules();
        inc.set_rules(pos, neg);
        verified.push(inc.pairs_verified() - before);
        check_against_naive(&inc, &rows);
        let pinned =
            [121, 3, 8, 1, 51, 2, 1, 10, 75, 2, 3, 8, 74, 5, 4, 1, 0, 3, 1, 4, 83, 3, 4, 5, 0, 120];
        assert_eq!(verified, pinned);
    }

    /// A positive `ontology ≥ θ` with θ outside [0, 1] keys as its clamp
    /// into [0, 1] does: θ = 1.5 never holds and θ = −0.5 always does. The
    /// batch engine, a live build over the rows, and adds after it (an
    /// area and a field among them, which would lower `τ_min`) all match
    /// the naive engine.
    #[test]
    fn ontology_thresholds_outside_the_unit_interval() {
        let nodes = live_base().1;
        let neg = live_rules().1;
        let rows: Vec<LiveRow> =
            (0..30).map(|i| (format!("t{}", i % 7), vec![i as u32 % 9], i % 12)).collect();
        let later: Vec<LiveRow> = (12..16).map(|v| ("t".into(), vec![v as u32], v)).collect();
        for theta in [1.5, -0.5] {
            let pos = vec![
                Rule::positive(vec![Predicate::new(2, SimilarityFn::Ontology, theta)]),
                Rule::positive(vec![
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                    Predicate::new(2, SimilarityFn::Ontology, theta),
                ]),
            ];
            let g = live_group(&rows);
            let naive = discover_naive(&g, &pos, &neg);
            assert_eq!(crate::discover_fast(&g, &pos, &neg), naive, "θ = {theta}");
            let mut inc = IncrementalDime::new(g, pos.clone(), neg.clone());
            assert_eq!(inc.discovery(), naive, "θ = {theta}");
            for row in &later {
                add_row(&mut inc, &nodes, row);
            }
            let all: Vec<LiveRow> = rows.iter().chain(&later).cloned().collect();
            assert_eq!(inc.discovery(), discover_naive(&live_group(&all), &pos, &neg));
        }
    }

    /// `set_rules` on an empty session whose sink is enabled skips the
    /// batch pass, whose candidate counters would underflow on no rows.
    #[test]
    fn set_rules_on_an_empty_traced_session() {
        use dime_trace::Recorder;
        let (pos, neg) = rules();
        let rec = Arc::new(Recorder::new());
        let mut inc =
            IncrementalDime::new(GroupBuilder::new(schema()).build(), pos.clone(), neg.clone())
                .with_sink(rec.clone());
        inc.set_rules(pos.clone(), neg.clone());
        assert_eq!(rec.snapshot().counter("rules_installed"), 1);
        inc.add_entity(&["a", "ann, bob"]);
        inc.add_entity(&["b", "ann, bob"]);
        assert_eq!(inc.discovery(), discover_naive(inc.group(), &pos, &neg));
    }
}
