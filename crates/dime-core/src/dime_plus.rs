//! DIME⁺ — the signature-based fast algorithm (paper Section IV,
//! Algorithm 2).
//!
//! Both phases are filter–verify:
//!
//! * **Positive phase.** Per positive rule, every entity emits composite
//!   signatures ([`crate::signature`]); inverted lists turn shared
//!   signatures into candidate pairs. One pass per entity gathers its
//!   partners, drops those already connected through transitivity — the
//!   paper's footnote-4 constant-time check, read from the live
//!   union-find — and those the edit bound refutes, and verifies the rest
//!   in id order, skipping pairs connected meanwhile. The check also runs
//!   once per list: a list whose members below an entity are all
//!   connected to it is *settled*, and a later entity of that component
//!   skips it unread. The paper's global benefit order `B = P/C` is not
//!   used: nearly every candidate is already connected by the time it
//!   would be verified, so ranking them cost more than it saved
//!   (DESIGN.md §8).
//! * **Negative phase.** Per negative rule, the pivot's tokens get
//!   postings to the pivot entities holding them, and each partition walks
//!   its pairs in the naive engine's order — members by id, then pivot
//!   entities by id — stopping at the first satisfied pair, so every flag
//!   has the naive engine's witness. Verification counts: one pass over
//!   the pivot's token postings per member decides its set predicates
//!   against every pivot entity. The paper's signature filter and
//!   `B = 1/(C·P)` order are not used: that pass already decides a member
//!   against the whole pivot (DESIGN.md §6).

use crate::arena::{CompiledRule, VerifyArena};
use crate::discover::{
    check_polarities, cumulate_steps, pick_pivot, Discovery, ScrollStep, Witness,
};
use crate::entity::Group;
use crate::par::{par_shards, resolve_threads};
use crate::rule::Rule;
use crate::signature::{RuleSigs, SigContext};
use dime_index::ConcurrentUnionFind;
use dime_trace::{span, RuleKind, TraceSink, NOOP};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Tuning knobs for DIME⁺ (all defaults match the paper's design).
#[derive(Debug, Clone, Copy)]
pub struct DimePlusConfig {
    /// Skip candidate pairs, and settled postings lists, already
    /// connected via union-find (`true`). Exposed for the ablation
    /// benchmarks.
    pub transitivity_skip: bool,
    /// Worker threads for the filter–verify phases. There is one engine:
    /// signature generation, candidate gathering, verification, and
    /// partition flagging are sharded over this many scoped workers, which
    /// merge satisfied pairs into a [`ConcurrentUnionFind`]. `1` (the
    /// default) runs the same sharded body inline, spawning no thread; `0`
    /// means one worker per available core. Every setting produces the
    /// identical [`Discovery`].
    pub threads: usize,
}

impl Default for DimePlusConfig {
    fn default() -> Self {
        Self { transitivity_skip: true, threads: 1 }
    }
}

impl DimePlusConfig {
    /// The default configuration with an explicit worker count (`0` = one
    /// worker per available core).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }
}

/// Runs DIME⁺ with default configuration.
///
/// Produces exactly the same [`Discovery`] as [`crate::discover_naive`] —
/// the signature filter admits no false dismissals and verification is
/// exact — only faster.
///
/// # Examples
///
/// ```
/// use dime_core::{discover_fast, discover_naive, GroupBuilder, Predicate, Rule, Schema, SimilarityFn};
/// use dime_text::TokenizerKind;
///
/// let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
/// let mut b = GroupBuilder::new(schema);
/// b.add_entity(&["ann, bob"]);
/// b.add_entity(&["ann, bob, carol"]);
/// b.add_entity(&["zed"]);
/// let group = b.build();
/// let pos = vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 2.0)])];
/// let neg = vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])];
/// assert_eq!(discover_fast(&group, &pos, &neg), discover_naive(&group, &pos, &neg));
/// ```
pub fn discover_fast(group: &Group, positive: &[Rule], negative: &[Rule]) -> Discovery {
    discover_fast_with(group, positive, negative, DimePlusConfig::default())
}

/// Runs DIME⁺ with the filter–verify phases fanned out over `threads`
/// scoped workers (`0` = one worker per available core, `1` = inline on
/// the calling thread).
///
/// Produces the identical [`Discovery`] as [`discover_fast`] and
/// [`crate::discover_naive`] for every thread count: the final partition
/// is the connected closure of the rule-satisfying pairs, which is
/// independent of verification order, and the negative phase flags each
/// partition independently.
///
/// # Examples
///
/// ```
/// use dime_core::{discover_fast, discover_parallel, GroupBuilder, Predicate, Rule, Schema, SimilarityFn};
/// use dime_text::TokenizerKind;
///
/// let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
/// let mut b = GroupBuilder::new(schema);
/// b.add_entity(&["ann, bob"]);
/// b.add_entity(&["ann, bob, carol"]);
/// b.add_entity(&["zed"]);
/// let group = b.build();
/// let pos = vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 2.0)])];
/// let neg = vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])];
/// assert_eq!(discover_parallel(&group, &pos, &neg, 4), discover_fast(&group, &pos, &neg));
/// ```
pub fn discover_parallel(
    group: &Group,
    positive: &[Rule],
    negative: &[Rule],
    threads: usize,
) -> Discovery {
    discover_fast_with(group, positive, negative, DimePlusConfig::with_threads(threads))
}

/// Runs DIME⁺ with an explicit [`DimePlusConfig`].
pub fn discover_fast_with(
    group: &Group,
    positive: &[Rule],
    negative: &[Rule],
    config: DimePlusConfig,
) -> Discovery {
    discover_fast_traced(group, positive, negative, config, &NOOP)
}

/// Runs DIME⁺ exactly like [`discover_fast_with`] while reporting phase
/// spans (`signature_build`, `index_probe`, `verify`, `union`, `flag`),
/// counters, and per-rule hit counts to `sink`.
///
/// The five phase names tile the run: they never nest, so their summed
/// durations account for the whole wall-clock up to the (trivial)
/// book-keeping between phases. Inside `signature_build`, nested spans
/// split out the token order (`sig_context`), the packed arena
/// (`verify_arena`) and each positive rule's keys (`rule_keys`). Tracing
/// never changes the result — hot loops accumulate plain local counters
/// and flush once per phase, and a disabled sink
/// ([`dime_trace::NoopSink`]) skips even the clock reads.
pub fn discover_fast_traced(
    group: &Group,
    positive: &[Rule],
    negative: &[Rule],
    config: DimePlusConfig,
    sink: &dyn TraceSink,
) -> Discovery {
    check_polarities(positive, negative);
    let n = group.len();
    assert!(n > 0, "cannot discover in an empty group");
    let workers = resolve_threads(config.threads);
    let (mut ctx, arena) = {
        let _s = span(sink, "signature_build");
        let ctx = {
            let _c = span(sink, "sig_context");
            SigContext::new(group)
        };
        let _a = span(sink, "verify_arena");
        (ctx, VerifyArena::new(group))
    };

    // ---- Step 1: partitions via sharded filter + verification.
    let uf = ConcurrentUnionFind::new(n);
    for (ri, rule) in positive.iter().enumerate() {
        let (compiled, sigs) = {
            let _s = span(sink, "signature_build");
            let compiled = arena.compile(rule);
            let _k = span(sink, "rule_keys");
            (compiled, ctx.positive_rule_signatures_threaded(group, rule, workers, false))
        };
        let candidates = {
            let _s = span(sink, "index_probe");
            Candidates::<Postings>::new(compiled, sigs)
        };
        verify_positive_rule(&arena, &candidates, &uf, config, workers, sink, ri);
        // Freeing the rule's keys and postings is index work too.
        let _s = span(sink, "index_probe");
        drop(candidates);
    }
    // ---- Step 2: components + pivot partition.
    let (partitions, pivot) = {
        let _s = span(sink, "union");
        let partitions = uf.components();
        let pivot = pick_pivot(&partitions);
        (partitions, pivot)
    };
    if sink.enabled() {
        sink.add("uf_merges", uf.merge_count());
    }

    // ---- Step 3: negative rules over partitions.
    let (steps, witnesses) = negative_phase(&arena, negative, &partitions, pivot, workers, sink);
    Discovery { partitions, pivot, steps, witnesses }
}

/// Entities per gather-and-verify block: a shard gathers one block's
/// candidate pairs, then verifies them. It bounds the pairs a shard holds
/// at once, and sets the span granularity at one worker.
const BLOCK: usize = 64;

/// Filter + verification for one positive rule: one gather-and-verify
/// pass of `candidates` over every entity. Returns how many pairs it
/// verified; an empty group has none, and is not walked.
///
/// Entities `a` are sharded by residue class over the workers (one shard,
/// inline, at one worker or below the cutoff), and each shard walks its
/// entities with [`Candidates::walk`]: in blocks of [`BLOCK`], it gathers
/// each block's pairs, then verifies them against the live forest.
///
/// Both steps read the live forest, so at more than one worker which
/// pairs are gathered, pruned, verified or skipped depends on the
/// interleaving; at one worker, the pairs verified are exactly those a
/// plain per-pair check would verify. The result does not depend on it: a
/// pair's verification outcome never depends on union-find state, a
/// dropped or skipped pair is already connected, and a pair the bound
/// drops would fail verification, so the final components are the
/// connected closure of the satisfying candidate pairs under any
/// interleaving.
///
/// Phase spans come from the calling thread only. At one shard, each
/// block's gather is an `index_probe` span and its verification a
/// `verify` span; at more, the calling thread spends the pass in one
/// `verify` span. Each block's verification is also a `verify_worker`
/// span on the thread that ran it.
pub(crate) fn verify_positive_rule<L: Lists>(
    arena: &VerifyArena,
    candidates: &Candidates<L>,
    uf: &ConcurrentUnionFind,
    config: DimePlusConfig,
    workers: usize,
    sink: &dyn TraceSink,
    ri: usize,
) -> u64 {
    let n = candidates.order.len();
    if n == 0 {
        return 0;
    }
    let open = |a: u32, b: u32| arena.bound_open(&candidates.compiled, a as usize, b as usize);
    let pass = Pass { arena, uf, skip: config.transitivity_skip, open };
    let shards = if n < crate::par::SEQ_CUTOFF { 1 } else { workers };
    let phases: &dyn TraceSink = if shards == 1 { sink } else { &NOOP };
    let whole = (shards > 1).then(|| span(sink, "verify"));
    let tallies: Vec<VerifyTally> = par_shards(shards, |shard| {
        let probers = (shard..n).step_by(shards).map(|a| a as u32);
        vec![candidates.walk(probers, &pass, &mut Scratch::default(), phases, sink)]
    });
    drop(whole);
    let total = tallies.iter().fold(VerifyTally::default(), VerifyTally::fold);
    if sink.enabled() {
        let total_pairs = (n as u64) * (n as u64 - 1) / 2;
        let gathered = total.verified + total.skipped + total.pruned;
        let postings = candidates.sigs.index.iter().flatten().map(Vec::len).sum::<usize>();
        sink.add("signatures_built", postings as u64);
        sink.add("wildcard_entities", candidates.wildcards.len() as u64);
        sink.add("candidate_pairs", gathered);
        sink.add("pairs_pruned_filter", total_pairs.saturating_sub(gathered));
        sink.add("pairs_pruned_bound", total.pruned);
        sink.add("index_probes", candidates.settled.len() as u64);
        sink.add("pairs_verified", total.verified);
        sink.add("pairs_skipped_transitivity", total.skipped);
        sink.rule_hits(RuleKind::Positive, ri, total.hits);
    }
    total.verified
}

/// The negative phase (Algorithm 2, Step 3): flags the partitions against
/// the pivot rule by rule and cumulates the flags into scrollbar steps.
/// Witnesses come in partition order, each naming the first rule that
/// flagged its partition, as [`crate::discover_naive`] reports them.
/// Shared by the batch engine and [`crate::IncrementalDime::discovery`].
pub(crate) fn negative_phase(
    arena: &VerifyArena,
    negative: &[Rule],
    partitions: &[Vec<usize>],
    pivot: usize,
    workers: usize,
    sink: &dyn TraceSink,
) -> (Vec<ScrollStep>, Vec<Witness>) {
    let mut per_rule: Vec<Vec<bool>> = Vec::with_capacity(negative.len());
    let mut witnesses: Vec<Option<Witness>> = vec![None; partitions.len()];
    for (ri, rule) in negative.iter().enumerate() {
        let flagged = {
            let _s = span(sink, "flag");
            flag_partitions(arena, rule, partitions, pivot, workers, sink)
        };
        let flags: Vec<bool> = flagged.iter().map(Option::is_some).collect();
        if sink.enabled() {
            sink.rule_hits(RuleKind::Negative, ri, flags.iter().filter(|&&f| f).count() as u64);
        }
        for (slot, w) in witnesses.iter_mut().zip(flagged) {
            if let Some(w) = w {
                slot.get_or_insert(Witness { rule: ri, ..w });
            }
        }
        per_rule.push(flags);
    }
    // The scrollbar steps are flagging work too, and not a small part:
    // ~8% of a 1,500-entity call.
    let _s = span(sink, "flag");
    (cumulate_steps(partitions, &per_rule), witnesses.into_iter().flatten().collect())
}

/// Decides, for one negative rule, which partitions are mis-categorized:
/// per partition, the witnessing pair if it is flagged (`rule` is filled
/// in by the caller).
///
/// The pivot's side of verification is indexed once
/// ([`crate::arena::PivotCounts`]); partitions are then flagged against
/// the pivot independently, in contiguous runs over `workers`, each with
/// its own scratch, and collected in partition order. A partition walks
/// its pairs as [`crate::discover_naive`] does: members in id order, each
/// loaded with one counter pass over the pivot's token postings that
/// decides it against every pivot entity ([`crate::arena::PivotScan`]),
/// then the pivot in id order, stopping at the first satisfied pair. The
/// paper's signature filter and `B = 1/(C·P)` order (Algorithm 2, lines
/// 18–19) are not used: the load already decides a member against the
/// whole pivot, so they only re-did its work (DESIGN.md §6).
fn flag_partitions(
    arena: &VerifyArena,
    rule: &Rule,
    partitions: &[Vec<usize>],
    pivot: usize,
    workers: usize,
    sink: &dyn TraceSink,
) -> Vec<Option<Witness>> {
    let pivot_members = &partitions[pivot];
    let compiled = arena.compile(rule);
    let counted = arena.pivot_counts(&compiled, pivot_members);

    // Per-partition result plus the evaluations it performed.
    let n = partitions.len();
    let shards = if n < crate::par::SEQ_CUTOFF { 1 } else { workers.min(n) };
    let run = n.div_ceil(shards);
    let results: Vec<(Option<Witness>, u64)> = par_shards(shards, |shard| {
        let mut scan = counted.scan();
        (shard * run..n.min((shard + 1) * run))
            .map(|pi| {
                if pi == pivot {
                    return (None, 0);
                }
                let mut evals = 0u64;
                for &e in &partitions[pi] {
                    scan.load(e);
                    for (j, &p) in pivot_members.iter().enumerate() {
                        evals += 1;
                        if scan.holds(j) {
                            let w = Witness { partition: pi, rule: 0, entity: e, pivot_entity: p };
                            return (Some(w), evals);
                        }
                    }
                }
                (None, evals)
            })
            .collect()
    });

    if sink.enabled() {
        sink.add("negative_pairs_verified", results.iter().map(|r| r.1).sum());
    }
    results.into_iter().map(|(w, _)| w).collect()
}

/// One positive rule's pass state: the compiled rule, its keys, the
/// postings `L` over them, the wildcards and each list's settled record.
/// The batch engine builds one per rule and run over [`Postings`]; the
/// live engine keeps one per rule over [`LiveLists`].
pub(crate) struct Candidates<L> {
    pub(crate) compiled: CompiledRule,
    pub(crate) sigs: RuleSigs,
    lists: L,
    /// Every entity, ascending by rank.
    pub(crate) order: Vec<u32>,
    /// The wildcard entities, ascending by rank (they have no postings).
    wildcards: Vec<u32>,
    /// Per list, `rep + 1`, or 0 before any: every member ranked below
    /// entity `rep` is connected to it, so `rank[rep]` is the watermark.
    settled: Vec<AtomicU32>,
}

/// What a walk reads besides its candidates. `open(a, b)` is `false` only
/// for pairs that must not be verified (they fail the rule, or lie outside
/// a remove's component); `skip` drops connected pairs and settles lists.
pub(crate) struct Pass<'p, F> {
    pub(crate) arena: &'p VerifyArena,
    pub(crate) uf: &'p ConcurrentUnionFind,
    pub(crate) skip: bool,
    pub(crate) open: F,
}

/// The postings a gather reads: per distinct index key, a list of its
/// entities ascending by rank.
pub(crate) trait Lists: Sync {
    /// The postings of `sigs`' index keys; `order` ranks the entities.
    fn new(sigs: &RuleSigs, order: &[u32]) -> Self;
    /// How many lists there are.
    fn count(&self) -> usize;
    /// Key `sig`'s list index and list, if an entity holds the key.
    fn get(&self, sig: u64) -> Option<(usize, &[u32])>;
}

impl<L: Lists> Candidates<L> {
    pub(crate) fn new(compiled: CompiledRule, sigs: RuleSigs) -> Self {
        let mut order = vec![0u32; sigs.rank.len()];
        for (e, &r) in (0u32..).zip(&sigs.rank) {
            order[r as usize] = e;
        }
        let lists = L::new(&sigs, &order);
        let wildcards =
            order.iter().copied().filter(|&e| sigs.index[e as usize].is_none()).collect();
        let settled = (0..lists.count()).map(|_| AtomicU32::new(0)).collect();
        Self { compiled, sigs, lists, order, wildcards, settled }
    }

    /// The gather-and-verify body over `probers`, in blocks of [`BLOCK`]:
    /// a block's candidate pairs are gathered ([`Candidates::gather`]),
    /// then go to the live forest in `(a, b)` order. A pair connected
    /// since it was gathered is skipped (the paper's footnote-4
    /// transitivity check); any other is verified and merged if it holds.
    /// Each block's gather is an `index_probe` span on `phases`, and its
    /// verification a `verify` span there and a `verify_worker` on `sink`.
    pub(crate) fn walk<F: Fn(u32, u32) -> bool>(
        &self,
        probers: impl IntoIterator<Item = u32>,
        pass: &Pass<'_, F>,
        scratch: &mut Scratch,
        phases: &dyn TraceSink,
        sink: &dyn TraceSink,
    ) -> VerifyTally {
        scratch.stamp.resize(scratch.stamp.len().max(self.order.len()), 0);
        let mut tally = VerifyTally::default();
        let mut probers = probers.into_iter().peekable();
        while probers.peek().is_some() {
            {
                let _p = span(phases, "index_probe");
                for a in probers.by_ref().take(BLOCK) {
                    tally.pruned += self.gather(a, pass, scratch);
                }
            }
            let _v = span(phases, "verify");
            let _w = span(sink, "verify_worker");
            for (a, b) in scratch.pairs.drain(..) {
                let (a, b) = (a as usize, b as usize);
                if pass.skip && pass.uf.same(a, b) {
                    tally.skipped += 1;
                    continue;
                }
                tally.verified += 1;
                if pass.arena.eval_compiled(&self.compiled, a, b) {
                    tally.hits += 1;
                    pass.uf.union(a, b);
                }
            }
        }
        tally
    }

    /// Appends `a`'s candidate pairs `(a, b)` to `scratch.pairs`, ascending
    /// by `b`: the entities ranked below `a` on a list `a` probes and the
    /// wildcards ranked below `a` (every entity ranked below `a` when `a` is
    /// a wildcard), less those connected to `a` in the live forest and
    /// those `open` refuses. Returns how many `open` refused. Every pair is
    /// thus gathered once, from its higher-ranked side (DESIGN.md §6).
    ///
    /// A list whose slice below `a` is not empty and turns out connected to
    /// `a` throughout is *settled* at `a`'s rank. A later prober ranked no
    /// higher and connected to `a` would find nothing on that slice but
    /// partners connected to it, so it skips the list unread: the paper's
    /// footnote-4 transitivity check, once per list instead of per pair.
    /// Connectivity only grows, so a record never turns false, and a stale
    /// read only skips less.
    fn gather<F: Fn(u32, u32) -> bool>(
        &self,
        a: u32,
        pass: &Pass<'_, F>,
        scratch: &mut Scratch,
    ) -> u64 {
        // A partner is dropped when its root is `a`'s: both are then
        // connected to that node, and stay so.
        let uf = pass.uf;
        let root = pass.skip.then(|| uf.find(a as usize));
        let joined = |b: u32| root.is_some_and(|r| uf.find(b as usize) == r);
        let ranks = &self.sigs.rank;
        let rank = ranks[a as usize];
        let partners = &mut scratch.partners;
        match self.sigs.probe(a as usize) {
            None => partners.extend(self.order[..rank as usize].iter().filter(|&&b| !joined(b))),
            Some(own) => {
                // `stamp[b]` is `seen | joined`: `b` met on an earlier list.
                scratch.tag += 1;
                let seen = scratch.tag << 1;
                for &sig in own {
                    let Some((l, list)) = self.lists.get(sig) else {
                        continue;
                    };
                    // Acquire: pairs with the Release that settled the list.
                    let rep = self.settled[l].load(Ordering::Acquire).checked_sub(1);
                    let mark = rep.map(|rep| ranks[rep as usize]);
                    if mark.is_some_and(|mark| rank <= mark) && rep.is_some_and(joined) {
                        continue;
                    }
                    let slice = &list[..list.partition_point(|&x| ranks[x as usize] < rank)];
                    let mut settled = root.is_some() && !slice.is_empty();
                    for &b in slice {
                        let stamp = &mut scratch.stamp[b as usize];
                        if *stamp & !1 == seen {
                            settled &= *stamp & 1 == 1;
                            continue;
                        }
                        let j = joined(b);
                        *stamp = seen | u64::from(j);
                        settled &= j;
                        if !j {
                            partners.push(b);
                        }
                    }
                    // A higher watermark wins; a racing store it overwrites
                    // only means less skipping.
                    if settled && mark.is_none_or(|mark| rank > mark) {
                        self.settled[l].store(a + 1, Ordering::Release);
                    }
                }
                let below = self.wildcards.partition_point(|&w| ranks[w as usize] < rank);
                partners.extend(self.wildcards[..below].iter().filter(|&&w| !joined(w)));
            }
        }
        let mut pruned = 0;
        partners.retain(|&b| {
            let open = (pass.open)(a, b);
            pruned += u64::from(!open);
            open
        });
        // Only the survivors are sorted: the bound refutes most of an
        // edit rule's partners.
        partners.sort_unstable();
        scratch.pairs.extend(partners.drain(..).map(|b| (a, b)));
        pruned
    }
}

impl Candidates<LiveLists> {
    /// Files a newcomer keyed `keys` (`None`: a wildcard) as the last
    /// entity, ranked above every other: every list stays in rank order,
    /// and every settled record stays true.
    pub(crate) fn push(&mut self, keys: Option<Vec<u64>>) {
        let e = self.order.len() as u32;
        match &keys {
            Some(keys) => keys.iter().for_each(|&k| self.lists.file(k, e)),
            None => self.wildcards.push(e),
        }
        self.settled.resize_with(self.lists.count(), AtomicU32::default);
        self.order.push(e);
        self.sigs.rank.push(e);
        self.sigs.index.push(keys);
    }

    /// Drops entity `e`, compacting ids and ranks, and clears every settled
    /// record: the component a record speaks for may split.
    pub(crate) fn remove(&mut self, e: u32) {
        self.sigs.index.remove(e as usize);
        let r = self.sigs.rank.remove(e as usize);
        self.sigs.rank.iter_mut().filter(|x| **x > r).for_each(|x| *x -= 1);
        let compact = |list: &mut Vec<u32>| {
            list.retain(|&x| x != e);
            list.iter_mut().filter(|x| **x > e).for_each(|x| *x -= 1);
        };
        let lists = self.lists.0.values_mut().map(|(_, list)| list);
        lists.chain([&mut self.order, &mut self.wildcards]).for_each(compact);
        self.settled.iter_mut().for_each(|s| *s.get_mut() = 0);
    }
}

/// Gather buffers, one set per shard, or per live session.
#[derive(Default)]
pub(crate) struct Scratch {
    /// `stamp[b]` is the gather's tag `<< 1`, plus 1 when `b` is connected
    /// to its prober, once `b` is met, so a partner sharing several
    /// signatures is looked at once.
    stamp: Vec<u64>,
    /// The last gather's tag: each gather takes a fresh one, so no stamp
    /// outlives the gather that wrote it, whichever ids it reuses.
    tag: u64,
    /// The partners of the entity being gathered.
    partners: Vec<u32>,
    /// The block's candidate pairs, in `(a, b)` order.
    pairs: Vec<(u32, u32)>,
}

/// Flat inverted lists over the index keys, the batch engine's:
/// `entities[starts[l]..starts[l + 1]]` are the entities emitting
/// `signatures[l]`, ascending by rank.
pub(crate) struct Postings {
    /// The distinct index keys, ascending.
    signatures: Vec<u64>,
    starts: Vec<usize>,
    entities: Vec<u32>,
}

impl Lists for Postings {
    fn new(sigs: &RuleSigs, order: &[u32]) -> Self {
        let mut pairs: Vec<(u64, u32)> = (0..)
            .zip(&sigs.index)
            .flat_map(|(e, s)| s.iter().flatten().map(move |&sig| (sig, sigs.rank[e])))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let (mut signatures, mut starts) = (Vec::new(), Vec::new());
        for (k, &(sig, _)) in pairs.iter().enumerate() {
            if signatures.last() != Some(&sig) {
                signatures.push(sig);
                starts.push(k);
            }
        }
        starts.push(pairs.len());
        let entities = pairs.into_iter().map(|(_, r)| order[r as usize]).collect();
        Self { signatures, starts, entities }
    }

    fn count(&self) -> usize {
        self.signatures.len()
    }

    fn get(&self, sig: u64) -> Option<(usize, &[u32])> {
        let l = self.signatures.binary_search(&sig).ok()?;
        Some((l, &self.entities[self.starts[l]..self.starts[l + 1]]))
    }
}

/// Appendable inverted lists over the index keys, the live engine's: per
/// key, its list index and its entities ascending by rank.
#[derive(Default)]
pub(crate) struct LiveLists(HashMap<u64, (usize, Vec<u32>)>);

impl LiveLists {
    /// Appends `e` to key `key`'s list, opening the list if need be.
    fn file(&mut self, key: u64, e: u32) {
        let next = self.0.len();
        self.0.entry(key).or_insert((next, Vec::new())).1.push(e);
    }
}

impl Lists for LiveLists {
    fn new(sigs: &RuleSigs, order: &[u32]) -> Self {
        let mut lists = Self::default();
        for &e in order {
            sigs.index[e as usize].iter().flatten().for_each(|&k| lists.file(k, e));
        }
        lists
    }

    fn count(&self) -> usize {
        self.0.len()
    }

    fn get(&self, sig: u64) -> Option<(usize, &[u32])> {
        self.0.get(&sig).map(|(l, list)| (*l, &list[..]))
    }
}

/// Local accumulation for one walk of the positive pass: hot loops bump
/// these plain integers and flush them to the [`TraceSink`] once per rule.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct VerifyTally {
    /// Pairs the bound refuted.
    pruned: u64,
    /// Pairs skipped because transitivity already connected them.
    skipped: u64,
    /// Pairs actually evaluated against the rule.
    pub(crate) verified: u64,
    /// Evaluations that satisfied the rule.
    hits: u64,
}

impl VerifyTally {
    fn fold(self, other: &VerifyTally) -> VerifyTally {
        VerifyTally {
            pruned: self.pruned + other.pruned,
            skipped: self.skipped + other.skipped,
            verified: self.verified + other.verified,
            hits: self.hits + other.hits,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::discover::discover_naive;
    use crate::entity::{GroupBuilder, Schema};
    use crate::rule::tests::{figure1_group, paper_rules};
    use crate::rule::{Predicate, SimilarityFn};
    use dime_ontology::{NodeId, Ontology};
    use dime_text::TokenizerKind;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn matches_naive_on_paper_example() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let fast = discover_fast(&g, &pos, &neg);
        let naive = discover_naive(&g, &pos, &neg);
        assert_eq!(fast, naive);
        assert_eq!(fast.mis_categorized().into_iter().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn fast_witnesses_are_valid() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_fast(&g, &pos, &neg);
        assert!(!d.witnesses.is_empty());
        for w in &d.witnesses {
            assert!(
                neg[w.rule].eval(&g, g.entity(w.entity), g.entity(w.pivot_entity)),
                "witness {w:?} does not satisfy its rule"
            );
            assert!(d.partitions[w.partition].contains(&w.entity));
            assert!(d.pivot_members().contains(&w.pivot_entity));
        }
    }

    #[test]
    fn all_config_combinations_agree() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let reference = discover_naive(&g, &pos, &neg);
        for transitivity_skip in [false, true] {
            for threads in [1usize, 2, 4] {
                let cfg = DimePlusConfig { transitivity_skip, threads };
                let got = discover_fast_with(&g, &pos, &neg, cfg);
                assert_eq!(got, reference, "config {cfg:?} diverged");
            }
        }
    }

    #[test]
    fn parallel_matches_naive_on_paper_example() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let reference = discover_naive(&g, &pos, &neg);
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(
                discover_parallel(&g, &pos, &neg, threads),
                reference,
                "threads = {threads} diverged"
            );
        }
    }

    #[test]
    fn parallel_witnesses_are_valid() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_parallel(&g, &pos, &neg, 4);
        assert!(!d.witnesses.is_empty());
        for w in &d.witnesses {
            assert!(
                neg[w.rule].eval(&g, g.entity(w.entity), g.entity(w.pivot_entity)),
                "witness {w:?} does not satisfy its rule"
            );
            assert!(d.partitions[w.partition].contains(&w.entity));
            assert!(d.pivot_members().contains(&w.pivot_entity));
        }
    }

    /// The shrunk case once recorded in
    /// `proptest-regressions/dime_plus.txt`: entities whose author lists
    /// and titles are almost all empty, with `theta = 2`, exercising the
    /// empty-token signature markers and the tied-singleton pivot path.
    /// Promoted to a named test so all three engines stay pinned on it.
    #[test]
    fn regression_empty_token_entities_theta2() {
        let lists: Vec<Vec<u32>> =
            vec![vec![], vec![], vec![], vec![], vec![1], vec![], vec![], vec![], vec![2, 1]];
        let titles: Vec<String> =
            ["", "", "", "", "b ", "", "", "", "b"].iter().map(|s| s.to_string()).collect();
        let g = random_group(&lists, &titles);
        let (pos, neg) = regression_rules(2);
        let naive = discover_naive(&g, &pos, &neg);
        // Entities 4 and 8 share author a1 (overlap ≥ 1 + title Jaccard
        // ≥ 0.5); every other entity is a singleton, and the tied pivot
        // must fall to the smallest-id partition.
        assert_eq!(
            naive.partitions,
            vec![vec![0], vec![1], vec![2], vec![3], vec![4, 8], vec![5], vec![6], vec![7]]
        );
        assert_eq!(naive.pivot, 4);
        assert_eq!(discover_fast(&g, &pos, &neg), naive);
        for transitivity_skip in [false, true] {
            for threads in [1usize, 2, 4] {
                let cfg = DimePlusConfig { transitivity_skip, threads };
                assert_eq!(
                    discover_fast_with(&g, &pos, &neg, cfg),
                    naive,
                    "config {cfg:?} diverged on the regression seed"
                );
            }
        }
    }

    /// The rule set the equivalence proptest (and the regression seed)
    /// runs under.
    fn regression_rules(theta: usize) -> (Vec<Rule>, Vec<Rule>) {
        let pos = vec![
            Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, theta as f64)]),
            Rule::positive(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(0, SimilarityFn::Jaccard, 0.5),
            ]),
        ];
        let neg = vec![
            Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)]),
            Rule::negative(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(0, SimilarityFn::Jaccard, 0.2),
            ]),
        ];
        (pos, neg)
    }

    #[test]
    fn traced_run_equals_untraced_and_populates_report() {
        use dime_trace::Recorder;
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let reference = discover_fast(&g, &pos, &neg);
        for threads in [1usize, 4] {
            let rec = Recorder::new();
            let cfg = DimePlusConfig::with_threads(threads);
            let traced = discover_fast_traced(&g, &pos, &neg, cfg, &rec);
            assert_eq!(traced, reference, "tracing changed the result (threads = {threads})");
            let report = rec.snapshot();
            for phase in ["signature_build", "index_probe", "verify", "union", "flag"] {
                assert!(
                    report.phases.iter().any(|p| p.name == phase && p.count > 0),
                    "missing phase {phase} (threads = {threads})"
                );
            }
            assert!(report.counter("signatures_built") > 0);
            assert!(report.counter("candidate_pairs") > 0);
            assert!(report.counter("pairs_verified") > 0);
            assert!(report.counter("index_probes") > 0);
            assert!(
                report.rule_hits.iter().any(|r| r.kind == RuleKind::Positive && r.hits > 0),
                "no positive rule hits recorded"
            );
            assert!(
                report.rule_hits.iter().any(|r| r.kind == RuleKind::Negative && r.hits > 0),
                "no negative rule hits recorded"
            );
            if threads > 1 {
                let workers: HashSet<u64> = report
                    .spans
                    .iter()
                    .filter(|s| s.name == "verify_worker")
                    .map(|s| s.thread)
                    .collect();
                assert!(!workers.is_empty(), "parallel run recorded no worker spans");
            }
        }
    }

    /// SplitMix64 — an inline stream so the golden group below is the same
    /// wherever the tests are built (seeded generators behind `rand` are
    /// not stream-compatible across builds).
    pub(crate) struct SplitMix64(pub(crate) u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A 320-entity group with shared author lists, overlapping titles and
    /// near-duplicate names — some too short to carry q-gram signatures
    /// (edit wildcards), some empty — plus rules covering overlap, Jaccard
    /// and edit similarity.
    fn golden_workload() -> (Group, Vec<Rule>, Vec<Rule>) {
        const WORDS: &str = "data cleaning query graph index stream learning entity rule join \
            crowd ontology scalable parallel matching repair schema spatial temporal privacy \
            storage transaction search web";
        let words: Vec<&str> = WORDS.split_whitespace().collect();
        const SYLLABLES: [&str; 10] = ["ka", "ta", "ra", "na", "de", "ef", "di", "me", "lo", "ban"];
        // Repetitive or tiny names: too few distinct q-grams for a
        // signature (wildcards), or none at all.
        const DEGENERATE: [&str; 4] = ["aaaa", "abab", "ab", ""];
        let schema = Schema::new([
            ("Title", TokenizerKind::Words),
            ("Authors", TokenizerKind::List(',')),
            ("Name", TokenizerKind::Whole),
        ]);
        let mut rng = SplitMix64(0x00D1_3E00_601D);
        let mut b = GroupBuilder::new(schema);
        for _ in 0..320 {
            let title: Vec<&str> =
                (0..2 + rng.below(4)).map(|_| words[rng.below(words.len())]).collect();
            let authors: Vec<String> =
                (0..rng.below(5)).map(|_| format!("a{}", rng.below(200))).collect();
            let mut name = if rng.below(8) == 0 {
                DEGENERATE[rng.below(4)].to_string()
            } else {
                (0..2 + rng.below(2)).map(|_| SYLLABLES[rng.below(10)]).collect()
            };
            if !name.is_empty() && rng.below(3) == 0 {
                name.push(char::from(b'a' + rng.below(26) as u8));
            }
            b.add_entity(&[title.join(" ").as_str(), authors.join(", ").as_str(), name.as_str()]);
        }
        let pos = vec![
            Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)]),
            Rule::positive(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(0, SimilarityFn::Jaccard, 0.5),
            ]),
            Rule::positive(vec![Predicate::new(2, SimilarityFn::EditSimilarity, 0.8)]),
        ];
        let neg = vec![
            Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)]),
            Rule::negative(vec![Predicate::new(2, SimilarityFn::EditSimilarity, 0.3)]),
        ];
        (b.build(), pos, neg)
    }

    /// Pins the one-worker engine's traced counters on the golden group:
    /// candidate generation and verification may be re-implemented, but
    /// never change what the engine counts. Only the
    /// candidates the edit bound leaves open are verified or skipped, and
    /// only those not yet connected when gathered are candidates.
    #[test]
    fn golden_counters_sequential() {
        use dime_trace::Recorder;
        let (g, pos, neg) = golden_workload();
        let rec = Recorder::new();
        let got = discover_fast_traced(&g, &pos, &neg, DimePlusConfig::default(), &rec);
        assert_eq!(got, discover_naive(&g, &pos, &neg));
        let report = rec.snapshot();
        let golden = [
            ("candidate_pairs", 2335),
            ("pairs_verified", 721),
            ("pairs_skipped_transitivity", 71),
            ("pairs_pruned_bound", 1543),
            ("uf_merges", 145),
            ("index_probes", 1858),
            ("signatures_built", 2649),
            ("wildcard_entities", 0),
        ];
        let counters = golden.map(|(name, _)| (name, report.counter(name)));
        assert_eq!(counters, golden, "golden counters moved");
    }

    /// The keying counters are a property of the group and the rules, not
    /// of the worker count: one probe per distinct signature list, one
    /// posting per (signature, entity); so is the merge count, which the
    /// final partition fixes. What is gathered, pruned, verified or
    /// skipped reads the live forest, so it is not (see `check_gather`).
    #[test]
    fn filter_counters_agree_across_thread_counts() {
        use dime_trace::Recorder;
        let (g, pos, neg) = golden_workload();
        let counters = |threads: usize| -> Vec<u64> {
            let rec = Recorder::new();
            let cfg = DimePlusConfig::with_threads(threads);
            let _ = discover_fast_traced(&g, &pos, &neg, cfg, &rec);
            let report = rec.snapshot();
            ["index_probes", "signatures_built", "wildcard_entities", "uf_merges"]
                .iter()
                .map(|name| report.counter(name))
                .collect()
        };
        let sequential = counters(1);
        for threads in [2usize, 4] {
            assert_eq!(counters(threads), sequential, "threads = {threads}");
        }
    }

    /// The edit bound drops only pairs that fail their rule, and every
    /// candidate is accounted for once: at one worker it is verified,
    /// skipped as already connected, or dropped by the bound.
    #[test]
    fn bound_drops_only_failing_pairs() {
        use dime_trace::Recorder;
        for (g, pos, neg) in [golden_workload(), edit_shaped_workload()] {
            let arena = VerifyArena::new(&g);
            let mut ctx = SigContext::new(&g);
            for rule in &pos {
                let compiled = arena.compile(rule);
                let sigs = ctx.positive_rule_signatures(&g, rule);
                let refuted = std::sync::Mutex::new(Vec::new());
                let open = |a: u32, b: u32| {
                    let open = arena.bound_open(&compiled, a as usize, b as usize);
                    if !open {
                        refuted.lock().expect("no panic while held").push((a as usize, b as usize));
                    }
                    open
                };
                let candidates = Candidates::<Postings>::new(arena.compile(rule), sigs);
                let uf = ConcurrentUnionFind::new(g.len());
                let pass = Pass { arena: &arena, uf: &uf, skip: false, open };
                let mut scratch = Scratch { stamp: vec![0; g.len()], ..Scratch::default() };
                let pruned: u64 =
                    (0..g.len() as u32).map(|a| candidates.gather(a, &pass, &mut scratch)).sum();
                let refuted = refuted.into_inner().expect("no panic while held");
                assert_eq!(refuted.len() as u64, pruned, "{rule}");
                for (a, b) in refuted {
                    assert!(!arena.eval_compiled(&compiled, a, b), "{rule} on ({a}, {b})");
                    assert!(!rule.eval(&g, g.entity(a), g.entity(b)), "{rule} on ({a}, {b})");
                }
            }
            let rec = Recorder::new();
            let got = discover_fast_traced(&g, &pos, &neg, DimePlusConfig::default(), &rec);
            assert_eq!(got, discover_naive(&g, &pos, &neg));
            let report = rec.snapshot();
            let [candidates, verified, skipped, pruned] = [
                "candidate_pairs",
                "pairs_verified",
                "pairs_skipped_transitivity",
                "pairs_pruned_bound",
            ]
            .map(|name| report.counter(name));
            assert!(pruned > 0, "the bound never fired");
            assert_eq!(candidates, verified + skipped + pruned);
        }
    }

    /// Pins the negative phase on the golden group.
    #[test]
    fn golden_negative_counters() {
        check_negative_golden(golden_workload(), 560);
    }

    /// A field → area → venue ontology: 3 fields × 2 areas × 2 venues. Two
    /// venues score 0.75 in one area, 0.5 in one field and 0.25 apart.
    fn venue_ontology() -> (Arc<Ontology>, Vec<NodeId>) {
        let mut ont = Ontology::new("venue");
        let mut venues = Vec::new();
        for f in 0..3 {
            for a in 0..2 {
                for v in 0..2 {
                    let (field, area) = (format!("f{f}"), format!("f{f}a{a}"));
                    venues.push(ont.add_path(&[&field, &area, &format!("{area}v{v}")]));
                }
            }
        }
        (Arc::new(ont), venues)
    }

    /// [`random_group`] plus a `Venue` attribute under [`venue_ontology`]:
    /// entity `i` sits at venue `venues[i]`, unmapped past the twelfth.
    pub(crate) fn ontology_group(lists: &[Vec<u32>], titles: &[String], venues: &[usize]) -> Group {
        let schema = Schema::new([
            ("Title", TokenizerKind::Words),
            ("Authors", TokenizerKind::List(',')),
            ("Venue", TokenizerKind::Whole),
        ]);
        let (ont, nodes) = venue_ontology();
        let mut b = GroupBuilder::new(schema);
        b.attach_ontology("Venue", ont);
        for ((l, t), &v) in lists.iter().zip(titles).zip(venues) {
            let joined: Vec<String> = l.iter().map(|x| format!("a{x}")).collect();
            let values = [t.as_str(), &joined.join(", "), &format!("venue {v}")];
            b.add_entity_with_nodes(&values, &[None, None, nodes.get(v).copied()]);
        }
        b.build()
    }

    /// A 300-paper page shaped like perfbench `scholar`: the owner `a0`
    /// co-authors fifteen papers in sixteen, a frequent co-author `a1` one
    /// in sixty, most venues sit in one area of the owner's field and some
    /// are unmapped. The negative rules are a two-attribute conjunction
    /// like dbgen's, scholar's `overlap ≤ 1 ∧ ontology ≤ 0.25`, then the
    /// plain `overlap ≤ 0`.
    fn scholar_shaped_workload() -> (Group, Vec<Rule>, Vec<Rule>) {
        const WORDS: &str = "data cleaning query graph index stream learning entity rule join \
            crowd ontology scalable parallel matching repair";
        let words: Vec<&str> = WORDS.split_whitespace().collect();
        let mut rng = SplitMix64(0x5C40_1A12);
        let (mut lists, mut titles, mut venues) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..300 {
            let mut authors: Vec<u32> =
                (0..rng.below(3)).map(|_| 2 + rng.below(2000) as u32).collect();
            if rng.below(60) == 0 {
                authors.push(1);
            }
            if rng.below(16) != 0 {
                authors.push(0);
            }
            lists.push(authors);
            let title: Vec<&str> =
                (0..1 + rng.below(4)).map(|_| words[rng.below(words.len())]).collect();
            titles.push(title.join(" "));
            venues.push(if rng.below(8) < 5 { rng.below(2) } else { rng.below(14) });
        }
        let pos = vec![
            Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)]),
            Rule::positive(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(2, SimilarityFn::Ontology, 0.75),
            ]),
        ];
        let neg = vec![
            Rule::negative(vec![
                Predicate::new(0, SimilarityFn::Jaccard, 0.2),
                Predicate::new(1, SimilarityFn::Overlap, 0.0),
            ]),
            Rule::negative(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(2, SimilarityFn::Ontology, 0.25),
            ]),
            Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)]),
        ];
        (ontology_group(&lists, &titles, &venues), pos, neg)
    }

    /// A 240-entity group of short names over `a`/`b`, one in eight over
    /// `x`/`y`/`z` instead, with a few authors each, under negative edit
    /// rules: the `x`/`y`/`z` partitions share no character with the
    /// pivot, and many names have fewer than three distinct bigrams.
    fn edit_shaped_workload() -> (Group, Vec<Rule>, Vec<Rule>) {
        let schema =
            Schema::new([("Name", TokenizerKind::Whole), ("Authors", TokenizerKind::List(','))]);
        let mut rng = SplitMix64(0x0ED1_75EE);
        let mut b = GroupBuilder::new(schema);
        for _ in 0..240 {
            // One name in eight spells over a letter set of its own.
            let letters: &[char] = if rng.below(8) == 0 { &['x', 'y', 'z'] } else { &['a', 'b'] };
            let name: String =
                (0..2 + rng.below(9)).map(|_| letters[rng.below(letters.len())]).collect();
            let authors: Vec<String> =
                (0..rng.below(3)).map(|_| format!("a{}", rng.below(300))).collect();
            b.add_entity(&[name.as_str(), authors.join(", ").as_str()]);
        }
        let pos = vec![
            Rule::positive(vec![Predicate::new(0, SimilarityFn::EditSimilarity, 0.8)]),
            Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)]),
        ];
        let neg = vec![
            Rule::negative(vec![Predicate::new(0, SimilarityFn::EditDistance, 2.0)]),
            Rule::negative(vec![
                Predicate::new(1, SimilarityFn::Overlap, 0.0),
                Predicate::new(0, SimilarityFn::EditSimilarity, 0.5),
            ]),
            Rule::negative(vec![
                Predicate::new(0, SimilarityFn::EditDistance, 5.0),
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
            ]),
        ];
        (b.build(), pos, neg)
    }

    /// Pins the negative phase on a group at every worker count: the
    /// discovery, witnesses included, is the naive engine's, and the
    /// negative pairs verified are `verified`.
    fn check_negative_golden((g, pos, neg): (Group, Vec<Rule>, Vec<Rule>), verified: u64) {
        use dime_trace::Recorder;
        let naive = discover_naive(&g, &pos, &neg);
        assert!(!naive.witnesses.is_empty(), "nothing flagged");
        for threads in [1usize, 2, 4] {
            let rec = Recorder::new();
            let cfg = DimePlusConfig::with_threads(threads);
            let got = discover_fast_traced(&g, &pos, &neg, cfg, &rec);
            assert_eq!(got, naive, "threads = {threads}");
            let counted = rec.snapshot().counter("negative_pairs_verified");
            assert_eq!(counted, verified, "threads = {threads}");
        }
    }

    /// Scholar's shape: one owner on most papers, an ontology predicate,
    /// a two-attribute conjunction.
    #[test]
    fn golden_scholar_shaped() {
        check_negative_golden(scholar_shaped_workload(), 17032);
    }

    /// Negative edit predicates, alone and in conjunctions, on names too
    /// short or too repetitive for q-gram signatures.
    #[test]
    fn golden_edit_shaped() {
        check_negative_golden(edit_shaped_workload(), 146);
    }

    /// Negative predicates at the thresholds and values that need care:
    /// σ < 0, σ = 0 and σ ≥ 1 on every set function, empty token sets
    /// under `jaccard ≤ σ`, empty strings under `edit_sim ≤ σ`, and
    /// unmapped ontology values. Each rule alone, then all of them as one
    /// scrollbar, match the naive engine at 1, 2 and 4 workers, witnesses
    /// included. The group has more partitions than the sequential cutoff,
    /// so 2 and 4 workers shard the flagging.
    #[test]
    fn negative_corner_cases_match_naive() {
        use SimilarityFn::{Cosine, Dice, EditSimilarity, Jaccard, Ontology, Overlap};
        let mut rng = SplitMix64(0xC0_2E12);
        let (mut lists, mut titles, mut venues) = (Vec::new(), Vec::new(), Vec::new());
        let mut owned = 0;
        for _ in 0..200 {
            // A third of the entities share author `a0`: the pivot. Its
            // titles alternate empty and `ab`, its venues venue 0, venue 1
            // and unmapped, so which pivot entity witnesses a flag turns
            // on the empty and unmapped values. The rest have up to two
            // authors and title words, so many lists and titles are empty;
            // venues past the twelfth are unmapped.
            if rng.below(3) == 0 {
                lists.push(vec![0]);
                titles.push(["", "ab"][owned % 2].to_string());
                venues.push([0, 1, 13][owned % 3]);
                owned += 1;
                continue;
            }
            lists.push((0..rng.below(3)).map(|_| 1 + rng.below(400) as u32).collect());
            let title: Vec<&str> =
                (0..rng.below(3)).map(|_| ["ab", "ba", "abc", "c"][rng.below(4)]).collect();
            titles.push(title.join(" "));
            venues.push(rng.below(16));
        }
        let g = ontology_group(&lists, &titles, &venues);
        let pos = vec![Rule::positive(vec![Predicate::new(1, Overlap, 1.0)])];
        let negative = |attr, func, sigma| Rule::negative(vec![Predicate::new(attr, func, sigma)]);
        let mut rules = Vec::new();
        for func in [Overlap, Jaccard, Dice, Cosine] {
            for sigma in [-0.5, 0.0, 1.0, 1.5] {
                rules.extend([negative(0, func, sigma), negative(1, func, sigma)]);
            }
        }
        rules.extend([0.3, 0.5].map(|sigma| negative(0, Jaccard, sigma)));
        rules.extend([-0.1, 0.0, 0.4, 1.0].map(|sigma| negative(0, EditSimilarity, sigma)));
        rules.extend([-0.1, 0.0, 0.5, 1.0].map(|sigma| negative(2, Ontology, sigma)));
        let check = |neg: &[Rule]| {
            let naive = discover_naive(&g, &pos, neg);
            assert!(naive.partitions.len() > crate::par::SEQ_CUTOFF);
            for threads in [1usize, 2, 4] {
                let cfg = DimePlusConfig::with_threads(threads);
                let got = discover_fast_with(&g, &pos, neg, cfg);
                assert_eq!(got, naive, "{}, threads = {threads}", neg[0]);
            }
        };
        for rule in &rules {
            check(std::slice::from_ref(rule));
        }
        check(&rules);
    }

    /// The tiling contract behind `dime --trace`: the five phase names
    /// never nest among themselves, so summed phase durations are
    /// comparable against total wall-clock.
    #[test]
    fn phase_spans_do_not_nest() {
        use dime_trace::Recorder;
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let rec = Recorder::new();
        let _ = discover_fast_traced(&g, &pos, &neg, DimePlusConfig::default(), &rec);
        let phases = ["signature_build", "index_probe", "verify", "union", "flag"];
        for s in &rec.snapshot().spans {
            if phases.contains(&s.name) {
                assert_eq!(s.depth, 0, "phase span {} recorded at depth {}", s.name, s.depth);
            }
        }
    }

    /// `signature_build` breaks down one level deep: the token order, the
    /// arena and each rule's keys are spans at depth 1, and they sum to no
    /// more than the phase.
    #[test]
    fn signature_build_parts_nest_inside_the_phase() {
        use dime_trace::Recorder;
        let (g, pos, neg) = golden_workload();
        let rec = Recorder::new();
        let _ = discover_fast_traced(&g, &pos, &neg, DimePlusConfig::default(), &rec);
        let report = rec.snapshot();
        let parts = ["sig_context", "verify_arena", "rule_keys"];
        for part in parts {
            let spans: Vec<_> = report.spans.iter().filter(|s| s.name == part).collect();
            let want = if part == "rule_keys" { pos.len() } else { 1 };
            assert_eq!(spans.len(), want, "{part}");
            assert!(spans.iter().all(|s| s.depth == 1), "{part} not at depth 1");
        }
        let summed: u64 = parts.iter().map(|p| report.phase_total_ns(p)).sum();
        assert!(summed <= report.phase_total_ns("signature_build"));
    }

    #[test]
    fn single_entity_group() {
        let schema = Schema::new([("A", TokenizerKind::Words)]);
        let mut b = GroupBuilder::new(schema);
        b.add_entity(&["x"]);
        let g = b.build();
        let pos = vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 1.0)])];
        let neg = vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])];
        let d = discover_fast(&g, &pos, &neg);
        assert_eq!(d.partitions.len(), 1);
        assert!(d.mis_categorized().is_empty());
    }

    /// Random-group equivalence between DIME and DIME⁺ — the central
    /// correctness property of the signature framework.
    fn random_group(lists: &[Vec<u32>], titles: &[String]) -> Group {
        let schema =
            Schema::new([("Title", TokenizerKind::Words), ("Authors", TokenizerKind::List(','))]);
        let mut b = GroupBuilder::new(schema);
        for (l, t) in lists.iter().zip(titles) {
            let joined: Vec<String> = l.iter().map(|x| format!("a{x}")).collect();
            b.add_entity(&[t.as_str(), joined.join(", ").as_str()]);
        }
        b.build()
    }

    /// Runs [`verify_positive_rule`] for each of `rules` on `g`, with
    /// `links` merged into the forest first, at 1, 2 and 4 workers, and
    /// checks it against brute force. The candidates are the pairs that
    /// share a signature (or have a wildcard side) and are not linked
    /// beforehand. The pass gathers no more of them than that, for the
    /// live forest drops those connected meanwhile; the bound drops only
    /// candidates it refutes; every other gathered pair is verified or
    /// skipped; and the forest ends as the closure of the links and of
    /// every pair that satisfies the rule. At one worker, the pairs
    /// verified are exactly those a replay of the bound-open candidates
    /// finds unconnected, in the order the pass verifies them: by the
    /// side that probes the pair, then by its partner.
    fn check_gather(g: &Group, links: &[(usize, usize)], rules: &[Rule]) {
        use dime_trace::Recorder;
        let n = g.len();
        let linked = || {
            let uf = ConcurrentUnionFind::new(n);
            for &(x, y) in links {
                uf.union(x % n, y % n);
            }
            uf
        };
        let arena = VerifyArena::new(g);
        let mut ctx = SigContext::new(g);
        for rule in rules {
            let compiled = arena.compile(rule);
            let sigs = ctx.positive_rule_signatures(g, rule);
            let (snapshot, closure) = (linked(), linked());
            let (mut candidates, mut refuted, mut open) = (0u64, 0u64, Vec::new());
            for a in 0..n {
                for b in a + 1..n {
                    if rule.eval(g, g.entity(a), g.entity(b)) {
                        closure.union(a, b);
                    }
                    if sigs.pairs(a, b) && !snapshot.same(a, b) {
                        candidates += 1;
                        if !arena.bound_open(&compiled, a, b) {
                            refuted += 1;
                        } else if sigs.rank[a] > sigs.rank[b] {
                            open.push((a, b));
                        } else {
                            open.push((b, a));
                        }
                    }
                }
            }
            open.sort_unstable();
            let replay = linked();
            let unconnected = open
                .iter()
                .filter(|&&(a, b)| {
                    let fresh = !replay.same(a, b);
                    if fresh && rule.eval(g, g.entity(a), g.entity(b)) {
                        replay.union(a, b);
                    }
                    fresh
                })
                .count() as u64;
            for workers in [1usize, 2, 4] {
                let (uf, rec) = (linked(), Recorder::new());
                let cfg = DimePlusConfig::default();
                let source = Candidates::<Postings>::new(arena.compile(rule), sigs.clone());
                verify_positive_rule(&arena, &source, &uf, cfg, workers, &rec, 0);
                let report = rec.snapshot();
                let [gathered, pruned, verified, skipped] = [
                    "candidate_pairs",
                    "pairs_pruned_bound",
                    "pairs_verified",
                    "pairs_skipped_transitivity",
                ]
                .map(|name| report.counter(name));
                assert!(gathered <= candidates, "{rule}, workers = {workers}");
                assert!(pruned <= refuted, "{rule}, workers = {workers}");
                assert_eq!(verified + skipped, gathered - pruned, "{rule}, workers = {workers}");
                assert_eq!(uf.components(), closure.components(), "{rule}, workers = {workers}");
                if workers == 1 {
                    assert_eq!(verified, unconnected, "{rule}");
                }
            }
        }
    }

    /// An edit-similarity rule, an overlap + Jaccard rule and an edit
    /// distance + overlap rule over [`random_group`]'s attributes: the
    /// edit predicates take Pass-Join keys, alone and in a composite.
    fn gather_rules() -> [Rule; 3] {
        [
            Rule::positive(vec![Predicate::new(0, SimilarityFn::EditSimilarity, 0.6)]),
            Rule::positive(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(0, SimilarityFn::Jaccard, 0.5),
            ]),
            Rule::positive(vec![
                Predicate::new(0, SimilarityFn::EditDistance, 1.0),
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
            ]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The central correctness property of the signature framework:
        /// all three engines — naive, fast, and parallel at several thread
        /// counts — produce the identical `Discovery`, witnesses included,
        /// on random groups.
        #[test]
        fn prop_fast_equals_naive(
            lists in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..5), 1..14),
            titles in proptest::collection::vec("[a-c ]{0,12}", 14),
            theta in 1usize..3,
        ) {
            let titles = &titles[..lists.len()];
            let g = random_group(&lists, titles);
            let (pos, neg) = regression_rules(theta);
            let naive = discover_naive(&g, &pos, &neg);
            let fast = discover_fast(&g, &pos, &neg);
            prop_assert_eq!(&fast, &naive);
            for threads in [1usize, 2, 4] {
                let par = discover_parallel(&g, &pos, &neg, threads);
                prop_assert_eq!(&par, &naive, "threads = {}", threads);
            }
        }

        /// Engine equivalence with an ontology attribute and mixed negative
        /// rules: an ontology predicate, Dice and Cosine predicates and
        /// two-attribute conjunctions, some venues unmapped. Every worker
        /// count matches the naive engine, witnesses included, and each
        /// witness satisfies the rule it names.
        #[test]
        fn prop_fast_equals_naive_ontology(
            lists in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..4), 1..16),
            titles in proptest::collection::vec("[a-c ]{0,10}", 16),
            venues in proptest::collection::vec(0usize..14, 16),
            sigma in 0.0f64..0.6,
        ) {
            let n = lists.len();
            let g = ontology_group(&lists, &titles[..n], &venues[..n]);
            let pos = vec![
                Rule::positive(vec![
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                    Predicate::new(2, SimilarityFn::Ontology, 0.75),
                ]),
                Rule::positive(vec![Predicate::new(0, SimilarityFn::Jaccard, 0.5)]),
            ];
            let neg = vec![
                Rule::negative(vec![
                    Predicate::new(2, SimilarityFn::Ontology, sigma),
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                ]),
                Rule::negative(vec![Predicate::new(0, SimilarityFn::Dice, sigma)]),
                Rule::negative(vec![
                    Predicate::new(1, SimilarityFn::Cosine, sigma),
                    Predicate::new(0, SimilarityFn::Jaccard, 0.3),
                ]),
                Rule::negative(vec![Predicate::new(0, SimilarityFn::EditSimilarity, sigma)]),
            ];
            let naive = discover_naive(&g, &pos, &neg);
            let one = discover_parallel(&g, &pos, &neg, 1);
            prop_assert_eq!(&one, &naive);
            for w in &one.witnesses {
                prop_assert!(neg[w.rule].eval(&g, g.entity(w.entity), g.entity(w.pivot_entity)));
            }
            for threads in [2usize, 4] {
                let par = discover_parallel(&g, &pos, &neg, threads);
                prop_assert_eq!(&par, &naive, "threads = {}", threads);
            }
        }

        /// The gather-and-verify pass against brute force, on groups with
        /// wildcard entities (edit similarity on very short or repetitive
        /// titles) and empty-token entities, with random pre-connected
        /// components; groups past the sequential cutoff shard.
        #[test]
        fn prop_gather_matches_brute_force(
            lists in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..4), 1..100),
            titles in proptest::collection::vec("[ab ]{0,6}", 100),
            links in proptest::collection::vec((0usize..100, 0usize..100), 0..8),
        ) {
            let g = random_group(&lists, &titles[..lists.len()]);
            check_gather(&g, &links, &gather_rules());
        }

        /// Engine equivalence with *edit* predicates in play: the fast and
        /// parallel engines verify through the arena's bounded Myers/banded
        /// kernels while the naive engine compares the full similarity —
        /// the discoveries must still be identical (unicode titles
        /// included, exercising the char-slice kernel). The positive edit
        /// predicates take Pass-Join keys, one of them in a composite
        /// with an overlap predicate; groups past the sequential cutoff
        /// shard over 2 and 4 workers.
        #[test]
        fn prop_fast_equals_naive_edit_rules(
            titles in proptest::collection::vec("[a-cö ]{0,10}", 2..90),
        ) {
            let lists: Vec<Vec<u32>> = (0..titles.len()).map(|i| vec![i as u32 % 3]).collect();
            let g = random_group(&lists, &titles);
            let pos = vec![
                Rule::positive(vec![Predicate::new(0, SimilarityFn::EditSimilarity, 0.6)]),
                Rule::positive(vec![Predicate::new(0, SimilarityFn::EditDistance, 1.0)]),
                Rule::positive(vec![
                    Predicate::new(0, SimilarityFn::EditSimilarity, 0.7),
                    Predicate::new(1, SimilarityFn::Overlap, 1.0),
                ]),
            ];
            let neg = vec![
                Rule::negative(vec![Predicate::new(0, SimilarityFn::EditSimilarity, 0.2)]),
                Rule::negative(vec![Predicate::new(0, SimilarityFn::EditDistance, 6.0)]),
            ];
            let naive = discover_naive(&g, &pos, &neg);
            prop_assert_eq!(&discover_fast(&g, &pos, &neg), &naive);
            for threads in [2usize, 4] {
                let par = discover_parallel(&g, &pos, &neg, threads);
                prop_assert_eq!(&par, &naive, "threads = {}", threads);
            }
        }
    }
}
