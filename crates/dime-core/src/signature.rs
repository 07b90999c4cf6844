//! Signature generation for positive rules (paper Section IV-B).
//!
//! For every (entity, positive predicate `f ≥ θ`) this module produces a
//! signature set with the filter guarantee DIME⁺'s positive phase relies
//! on: if a pair satisfies the predicate, the two signature sets intersect
//! (no false dismissals in the filter). The negative phase uses no
//! signatures; it decides pairs from counts (see [`crate::dime_plus`]).
//!
//! Three outcomes are possible per value:
//!
//! * [`PredSigs::Sigs`] — a concrete (possibly empty) signature set; an
//!   empty set means the value can never satisfy the predicate.
//! * [`PredSigs::Wildcard`] — no sound signature exists (e.g. a string too
//!   short for the q-gram count filter); the entity must be verified
//!   against everything.
//! * [`PredSigs::Trivial`] — the predicate is satisfied by every pair
//!   (e.g. `overlap ≥ 0`); it contributes nothing to filtering and is
//!   skipped.
//!
//! Composite signatures for a positive rule (a conjunction) are tuples with
//! one component per non-trivial predicate, hashed to `u64`. Hash
//! collisions only ever *add* candidates.
//!
//! The batch engine keys one positive `AtMost` edit predicate per rule
//! (`edit_sim ≥ θ` or `edit_distance ≤ k`) with Pass-Join partition
//! signatures (Li, Deng, Wang and Feng, PVLDB 2011) instead of q-gram
//! prefixes. They are asymmetric: a value's *index* keys are its segments
//! and its *probe* keys are substrings of it, so a rule's tuples come in
//! the two sides [`RuleSigs`] holds. Every other predicate emits the same
//! set on both sides. Rules whose values have too many probe keys keep the
//! symmetric q-gram prefixes, and so does the live engine
//! ([`crate::IncrementalDime`]), which asks for symmetric keys: its
//! newcomer ranks above every row and gathers all its pairs from its own
//! side, while under Pass-Join a pair is found only from its longer side.
//!
//! A [`SigContext`] is the state keys are comparable under: the token
//! order and the ontology `τ_min` values, both taken from the group it was
//! built on. The live engine keeps the context of its last build and keys
//! each newcomer under it ([`SigContext::entity_keys`]).

use crate::entity::{AttrValue, Entity, Group};
use crate::rule::{edit_distance_check, edit_similarity_check, EditCheck};
use crate::rule::{Polarity, Predicate, Rule, SimilarityFn};
use dime_ontology::{node_signature, tau_min};
use dime_text::{edit_prefix_len, overlap_prefix_len, GlobalOrder, TokenId};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// q-gram length used for character-based signatures.
pub(crate) const Q: usize = 2;

/// Epsilon for float-derived integer bounds: always round in the *sound*
/// direction (longer prefixes / shallower signature depths).
const FP_EPS: f64 = 1e-9;

/// Cap on the number of composite signatures one entity may emit for one
/// rule. The planner sizes the predicate subset to stay under it on the
/// rows it sees; a row it did not see (a live-engine add keyed under an
/// earlier plan) may still exceed it, and becomes a wildcard.
const MAX_COMPOSITE: usize = 1024;

/// Deterministic 64-bit mixer (SplitMix64 finalizer) — stable across runs,
/// unlike `std`'s randomized hasher.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes bytes to `u64` (FNV-1a, then mixed).
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Combines a predicate-scoped salt with a raw signature component.
#[inline]
fn salted(salt: u64, component: u64) -> u64 {
    mix64(salt ^ component.rotate_left(17))
}

/// The salt of a rule's predicate `pi`: it keeps the predicates' keys apart
/// in the XOR of a composite tuple.
fn predicate_salt(pi: usize) -> u64 {
    mix64(pi as u64 + 1)
}

/// The signature set of one (entity, positive predicate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PredSigs {
    /// Concrete signatures (see module docs for the empty-set semantics).
    Sigs(Vec<u64>),
    /// No sound signature; verify against everything.
    Wildcard,
    /// Predicate satisfied by every pair; skip in filtering.
    Trivial,
}

/// The state a group's keys are comparable under: the global token order
/// and a cache of ontology `τ_min` values per (attribute, threshold), both
/// taken from the group the context was built on.
pub(crate) struct SigContext {
    order: GlobalOrder,
    tau_cache: HashMap<(usize, u64), u32>,
}

impl SigContext {
    /// Builds the context (computes the document-frequency global order).
    pub(crate) fn new(group: &Group) -> Self {
        Self { order: GlobalOrder::from_dictionary(group.dictionary()), tau_cache: HashMap::new() }
    }

    /// Signature set of `entity` for one positive `pred`.
    #[cfg(test)]
    fn predicate_sigs(&mut self, group: &Group, entity: &Entity, pred: &Predicate) -> PredSigs {
        self.warm_tau(group, pred);
        self.positive_sigs(group, entity, pred)
    }

    /// [`SigContext::positive_rule_signatures_threaded`] on one worker,
    /// with the batch engine's keys.
    #[cfg(test)]
    pub(crate) fn positive_rule_signatures(&mut self, group: &Group, rule: &Rule) -> RuleSigs {
        self.positive_rule_signatures_threaded(group, rule, 1, false)
    }

    /// Composite signatures of **every** entity of `group` for a positive
    /// rule, on both sides (see [`RuleSigs`]); with `symmetric`, no
    /// predicate takes Pass-Join keys, so the two sides are one.
    ///
    /// The subset of predicates that participates in the tuples is chosen
    /// once per rule (smallest average signature sets first, capped so the
    /// largest per-entity cross product stays under an internal budget) —
    /// signature tuples are only comparable when every entity uses the same
    /// predicate subset, which [`RuleSigs::plan`] records. A Pass-Join
    /// predicate is sized by its probe keys. Components combine by XOR, so
    /// tuple hashes are independent of construction order.
    ///
    /// Per-entity rows and tuple composition are fanned out over `threads`
    /// workers. The `τ_min` cache is warmed up front so row generation is
    /// read-only; results are identical for every thread count.
    pub(crate) fn positive_rule_signatures_threaded(
        &mut self,
        group: &Group,
        rule: &Rule,
        threads: usize,
        symmetric: bool,
    ) -> RuleSigs {
        debug_assert_eq!(rule.polarity, Polarity::Positive);
        for pred in &rule.predicates {
            self.warm_tau(group, pred);
        }
        let n = group.len();
        let m = rule.predicates.len();
        // The first positive `AtMost` edit predicate takes Pass-Join keys,
        // unless a value of its attribute would have more probe keys than a
        // composite may hold: probes grow with the cube of the distance
        // cutoff, so long values keep the q-gram prefixes instead of
        // becoming wildcards.
        let pj = rule
            .predicates
            .iter()
            .enumerate()
            .filter(|_| !symmetric)
            .find_map(|(pi, p)| Some((pi, EditBound::of(p)?)))
            .filter(|&(pi, bound)| pass_join_fits(group, rule.predicates[pi].attr, bound));
        // Per-entity, per-predicate signature sets (salted by predicate),
        // with the Pass-Join predicate's index keys and its probe count.
        let ctx = &*self;
        let per: Vec<(Vec<PredSigs>, usize)> =
            crate::par::par_map(n, threads, |eid| ctx.salted_positive_row(group, eid, rule, pj));
        // Rule-level predicate subset: non-trivial predicates ordered by
        // average signature-set size, greedily added while the *maximum*
        // per-entity tuple count stays bounded.
        let mut stats: Vec<(usize, f64, usize)> = (0..m)
            .filter_map(|pi| {
                let mut sum = 0usize;
                let mut max = 0usize;
                let mut informative = false;
                for (row, probes) in &per {
                    match &row[pi] {
                        PredSigs::Sigs(s) => {
                            let len =
                                if pj.is_some_and(|(j, _)| j == pi) { *probes } else { s.len() };
                            sum += len;
                            max = max.max(len.max(1));
                            informative = true;
                        }
                        PredSigs::Wildcard => {
                            max = max.max(1);
                            informative = true;
                        }
                        PredSigs::Trivial => {}
                    }
                }
                informative.then(|| (pi, sum as f64 / n as f64, max))
            })
            .collect();
        if stats.is_empty() {
            // Every predicate trivial for every entity (or no entity): all
            // pairs match.
            return RuleSigs::symmetric(vec![None; n], Vec::new());
        }
        stats.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut chosen: Vec<usize> = vec![stats[0].0];
        let mut worst = stats[0].2;
        for &(pi, _, mx) in &stats[1..] {
            if worst.saturating_mul(mx) > MAX_COMPOSITE {
                break;
            }
            worst *= mx;
            chosen.push(pi);
        }
        let plan = chosen;
        // Composing consumes the rows, so each is freed once composed.
        let Some((pj, bound)) = pj.filter(|(pi, _)| plan.contains(pi)) else {
            let index = crate::par::par_map_owned(per, threads, |_, (row, _)| {
                compose_row(&row, &plan, None)
            });
            return RuleSigs::symmetric(index, plan);
        };
        // The probe side: the Pass-Join keys are generated here, one entity
        // at a time, and composed straight away.
        let attr = rule.predicates[pj].attr;
        let (index, probe): (Vec<_>, Vec<_>) =
            crate::par::par_map_owned(per, threads, |eid, (row, count)| {
                match compose_row(&row, &plan, None) {
                    Some(index) if !index.is_empty() => {
                        let value = group.entity(eid).value(attr);
                        let keys = pass_join_probe(value, bound, predicate_salt(pj), count);
                        let probe = compose_row(&row, &plan, Some((pj, &keys)));
                        probe.map_or((None, Vec::new()), |probe| (Some(index), probe))
                    }
                    index => (index, Vec::new()),
                }
            })
            .into_iter()
            .unzip();
        // Probing runs down (char count, reversed id) on the predicate's
        // attribute.
        let mut order: Vec<u64> = (0..n as u32)
            .map(|e| u64::from(group.entity(e as usize).value(attr).char_len) << 32 | u64::from(!e))
            .collect();
        order.sort_unstable();
        let mut rank = vec![0u32; n];
        for (r, &key) in (0u32..).zip(&order) {
            rank[!(key as u32) as usize] = r;
        }
        RuleSigs { index, probe: Some(probe), rank, plan }
    }

    /// Entity `eid`'s symmetric keys for a positive rule under `plan`: the
    /// row and composition [`SigContext::positive_rule_signatures_threaded`]
    /// gives it with `symmetric`, so under the context and plan of an
    /// earlier build of its rows, a row added since is keyed as that build
    /// would have keyed it. `None` is a wildcard.
    pub(crate) fn entity_keys(
        &self,
        group: &Group,
        eid: usize,
        rule: &Rule,
        plan: &[usize],
    ) -> Option<Vec<u64>> {
        compose_row(&self.salted_positive_row(group, eid, rule, None).0, plan, None)
    }

    /// Whether entity `eid` maps, on an ontology predicate of `rules`, to a
    /// node whose `τ_n` is below the `τ_min` this context keys at: keyed at
    /// that depth, it could miss a partner (Lemma 4.2).
    pub(crate) fn lowers_tau(&self, group: &Group, eid: usize, rules: &[Rule]) -> bool {
        let entity = group.entity(eid);
        rules.iter().flat_map(|r| &r.predicates).any(|p| {
            let built = self.tau_cache.get(&(p.attr, p.threshold.to_bits()));
            match (p.func, built, group.ontology(p.attr), entity.value(p.attr).node) {
                (SimilarityFn::Ontology, Some(&built), Some(ont), Some(node)) => {
                    tau_min(p.threshold.clamp(0.0, 1.0), [ont.depth(node)]) < built
                }
                _ => false,
            }
        })
    }

    /// One entity's salted signatures per predicate of a positive rule.
    /// Predicate `pj`, when set, takes its Pass-Join index keys, and its
    /// probe count comes back too.
    fn salted_positive_row(
        &self,
        group: &Group,
        eid: usize,
        rule: &Rule,
        pj: Option<(usize, EditBound)>,
    ) -> (Vec<PredSigs>, usize) {
        let e = group.entity(eid);
        let mut probes = 0;
        let row = (0..rule.predicates.len())
            .map(|pi| {
                let pred = &rule.predicates[pi];
                if let Some((_, bound)) = pj.filter(|&(j, _)| j == pi) {
                    let (index, count) =
                        pass_join_index(e.value(pred.attr), bound, predicate_salt(pi));
                    probes = count;
                    return index;
                }
                match self.positive_sigs(group, e, pred) {
                    PredSigs::Sigs(s) => {
                        let salt = predicate_salt(pi);
                        PredSigs::Sigs(s.into_iter().map(|c| salted(salt, c)).collect())
                    }
                    other => other,
                }
            })
            .collect();
        (row, probes)
    }

    // ---- positive predicates --------------------------------------------

    fn positive_sigs(&self, group: &Group, entity: &Entity, pred: &Predicate) -> PredSigs {
        let value = entity.value(pred.attr);
        let theta = pred.threshold;
        match pred.func {
            SimilarityFn::Overlap => {
                let c = theta.ceil().max(0.0) as usize;
                if c == 0 {
                    return PredSigs::Trivial;
                }
                self.set_prefix_sigs(&value.tokens, c)
            }
            SimilarityFn::Jaccard | SimilarityFn::Dice | SimilarityFn::Cosine => {
                if theta <= 0.0 {
                    return PredSigs::Trivial;
                }
                if theta > 1.0 {
                    return PredSigs::Sigs(Vec::new()); // unsatisfiable
                }
                if value.tokens.is_empty() {
                    // An empty set only reaches θ > 0 against another empty
                    // set (similarity 1 by convention): one shared marker.
                    return PredSigs::Sigs(vec![mix64(0xE117)]);
                }
                let c = Self::set_overlap_bound(pred.func, theta, value.tokens.len());
                self.set_prefix_sigs(&value.tokens, c)
            }
            SimilarityFn::EditDistance => {
                // +ε: a float θ that *represents* an integer must not floor
                // below it — a too-short prefix is a false dismissal.
                let t = (theta + FP_EPS).floor().max(0.0) as usize;
                gram_prefix_sigs(value, t)
            }
            SimilarityFn::EditSimilarity => {
                if theta <= 0.0 {
                    return PredSigs::Trivial;
                }
                let len = value.char_len as usize;
                if len == 0 {
                    return PredSigs::Sigs(vec![mix64(0xE55)]);
                }
                // sim ≥ θ ⇒ d ≤ (1−θ)·|v|/θ (derived from max ≤ |v| + d).
                // +ε: the quotient of an exactly-representable bound can
                // land at 0.999…8 and floor a distance too low (observed:
                // θ = 0.8, |v| = 4 → 0.9999999999999998).
                let dmax = (((1.0 - theta) * len as f64 / theta) + FP_EPS).floor() as usize;
                gram_prefix_sigs(value, dmax)
            }
            SimilarityFn::Ontology => {
                if theta <= 0.0 {
                    return PredSigs::Trivial;
                }
                match value.node {
                    None => PredSigs::Sigs(Vec::new()), // sim 0 < θ, never
                    Some(node) => {
                        // Warmed before any row is keyed (`warm_tau`).
                        let tm = self.tau_cache[&(pred.attr, theta.to_bits())];
                        let ont = group.ontology(pred.attr).expect("mapped node implies ontology");
                        let sig = node_signature(ont, node, tm);
                        PredSigs::Sigs(vec![mix64(0x0e70 ^ u64::from(sig) << 8)])
                    }
                }
            }
        }
    }

    // ---- helpers ---------------------------------------------------------

    /// Per-value intersection lower bound implied by `f ≥ θ` for the
    /// set-based similarity `func` on a value of `len` tokens.
    fn set_overlap_bound(func: SimilarityFn, theta: f64, len: usize) -> usize {
        let l = len as f64;
        let raw = match func {
            SimilarityFn::Jaccard => theta * l,
            SimilarityFn::Dice => theta * l / 2.0,
            SimilarityFn::Cosine => theta * theta * l,
            // dime-check: allow(panic-reaches-service) — the single caller matches on the set-based functions before calling; edit-family predicates never reach here
            _ => unreachable!("set_overlap_bound only serves set predicates"),
        };
        // −ε before ceil: rounding the bound *up* past its exact value
        // would shorten the prefix below soundness; one too low merely
        // lengthens it.
        (((raw - FP_EPS).ceil() as usize).max(1)).max(1)
    }

    /// Prefix signatures for an intersection bound `c` on a token set.
    fn set_prefix_sigs(&self, tokens: &[TokenId], c: usize) -> PredSigs {
        let plen = overlap_prefix_len(tokens.len(), c);
        if plen == 0 {
            return PredSigs::Sigs(Vec::new());
        }
        let sorted = self.order.sorted(tokens);
        PredSigs::Sigs(sorted[..plen].iter().map(|&t| mix64(0x70C ^ u64::from(t) << 8)).collect())
    }

    /// Ensures the `τ_min` value a predicate's signatures will need is in
    /// the cache — called once per predicate before row generation, which
    /// keeps keying a pure read, so rows can be keyed from `&self` on worker
    /// threads.
    ///
    /// `τ` is defined for θ in [0, 1], so θ is clamped into it: θ > 1 never
    /// holds, and θ = 1 keys a superset of its (empty) pairs, while θ < 0
    /// always holds, like θ = 0.
    fn warm_tau(&mut self, group: &Group, pred: &Predicate) {
        // A trivial predicate (θ ≤ 0) never reaches τ.
        if pred.func != SimilarityFn::Ontology || pred.threshold <= 0.0 {
            return;
        }
        let nodes = group.entities().iter().filter_map(|e| e.value(pred.attr).node);
        let theta = pred.threshold.clamp(0.0, 1.0);
        self.tau_cache.entry((pred.attr, pred.threshold.to_bits())).or_insert_with(|| {
            let ont = group.ontology(pred.attr);
            ont.map_or(1, |ont| tau_min(theta, nodes.map(|n| ont.depth(n))))
        });
    }
}

/// Whether every value of `attr` has at most [`MAX_COMPOSITE`] Pass-Join
/// probe keys under `bound`.
fn pass_join_fits(group: &Group, attr: usize, bound: EditBound) -> bool {
    let mut lens: Vec<u32> = group.entities().iter().map(|e| e.value(attr).char_len).collect();
    lens.sort_unstable();
    lens.dedup();
    lens.into_iter().all(|len| probe_count(len as usize, bound) <= MAX_COMPOSITE)
}

/// Folds one entity's per-predicate signatures into composite tuples under
/// a plan (see [`RuleSigs::index`] for the semantics of `None` / empty
/// results). `swap` replaces one predicate's set: the probe side of a
/// Pass-Join predicate.
fn compose_row(
    row: &[PredSigs],
    plan: &[usize],
    swap: Option<(usize, &[u64])>,
) -> Option<Vec<u64>> {
    if plan.is_empty() {
        return None; // nothing to index on: brute force
    }
    // Unsatisfiable on ANY non-trivial predicate → never matches.
    if row.iter().any(|p| matches!(p, PredSigs::Sigs(s) if s.is_empty())) {
        return Some(Vec::new());
    }
    let mut parts: Vec<&[u64]> = Vec::with_capacity(plan.len());
    for &pi in plan {
        match (&row[pi], swap) {
            (PredSigs::Sigs(_), Some((sp, probe))) if sp == pi => parts.push(probe),
            (PredSigs::Sigs(s), _) => parts.push(s),
            // Wildcard on a chosen predicate, or trivial for this entity
            // while informative for others: no sound tuple — brute force.
            (PredSigs::Wildcard | PredSigs::Trivial, _) => return None,
        }
    }
    // XOR cross product (order-independent), mixed at the end. Signatures
    // are only comparable when every entity composes over the same
    // predicate subset, so an entity whose cross product would blow the
    // budget cannot simply emit fewer components — it becomes a wildcard
    // and is verified against everything instead. (The planner sizes the
    // subset so this cannot trigger on the rows it saw; it protects a live
    // add keyed under the plan of an earlier build.)
    let product: usize = parts.iter().map(|p| p.len().max(1)).product();
    if product > MAX_COMPOSITE {
        return None;
    }
    let mut acc: Vec<u64> = vec![0];
    for list in parts {
        let mut next = Vec::with_capacity(acc.len() * list.len());
        for &a in &acc {
            for &c in list {
                next.push(a ^ c);
            }
        }
        acc = next;
    }
    let mut out: Vec<u64> = acc.into_iter().map(mix64).collect();
    // A probe side may repeat a key: gathering then walks that list twice,
    // and its stamp keeps each partner once.
    if swap.is_none() {
        out.sort_unstable();
        out.dedup();
    }
    Some(out)
}

/// A positive rule's composite signatures for every entity of a group.
///
/// Each entity has *index* keys, which the rule's postings hold, and
/// *probe* keys, which it looks up there. The two are the same set unless
/// a Pass-Join predicate is among the rule's tuples: its index keys are a
/// value's segments and its probe keys are substrings of the value, sound
/// only when the probing value is at least as long. [`RuleSigs::rank`]
/// orders the entities so that each pair is probed from one side only.
#[derive(Debug, Clone)]
pub(crate) struct RuleSigs {
    /// Per entity, its index keys. `None` is a wildcard, which pairs with
    /// every entity; an empty set can never satisfy the rule.
    pub(crate) index: Vec<Option<Vec<u64>>>,
    /// Per entity, its probe keys when they differ from its index keys
    /// (empty for a wildcard).
    probe: Option<Vec<Vec<u64>>>,
    /// Per entity, its place in the probing order (a permutation of the
    /// ids): an entity probes for the partners of lower rank only. A build
    /// ranks by reversed id, under a Pass-Join predicate first by the char
    /// count of its attribute; the live engine ranks a newcomer above all.
    pub(crate) rank: Vec<u32>,
    /// The predicates the tuples are composed over, by index.
    pub(crate) plan: Vec<usize>,
}

impl RuleSigs {
    /// Signatures whose probe keys are their index keys.
    fn symmetric(index: Vec<Option<Vec<u64>>>, plan: Vec<usize>) -> Self {
        let rank = (0..index.len() as u32).rev().collect();
        Self { index, probe: None, rank, plan }
    }

    /// Entity `e`'s probe keys; `None` for a wildcard.
    pub(crate) fn probe(&self, e: usize) -> Option<&[u64]> {
        let own = self.index[e].as_deref()?;
        Some(self.probe.as_ref().map_or(own, |probe| &probe[e]))
    }

    /// Whether the pair `(a, b)` is a candidate on signatures alone: a side
    /// is a wildcard, or the higher-ranked side's probe keys meet the other
    /// side's index keys.
    #[cfg(test)]
    pub(crate) fn pairs(&self, a: usize, b: usize) -> bool {
        let (hi, lo) = if self.rank[a] > self.rank[b] { (a, b) } else { (b, a) };
        match (self.probe(hi), &self.index[lo]) {
            (Some(probe), Some(index)) => probe.iter().any(|k| index.contains(k)),
            _ => true,
        }
    }
}

/// The distance bound of a positive `AtMost` edit predicate, as Pass-Join
/// partitions it.
#[derive(Debug, Clone, Copy)]
enum EditBound {
    /// `edit_distance ≤ k`.
    Distance(usize),
    /// `edit_sim ≥ θ`, `0 < θ ≤ 1`.
    Similarity(f64),
}

impl EditBound {
    /// The bound of a positive edit predicate that holds for some but not
    /// all distances; `None` for every other predicate.
    fn of(pred: &Predicate) -> Option<Self> {
        match pred.func {
            SimilarityFn::EditDistance => {
                match edit_distance_check(pred.threshold, Polarity::Positive) {
                    EditCheck::AtMost(k) => Some(Self::Distance(k)),
                    _ => None,
                }
            }
            SimilarityFn::EditSimilarity if pred.threshold > 0.0 && pred.threshold <= 1.0 => {
                Some(Self::Similarity(pred.threshold))
            }
            _ => None,
        }
    }

    /// `τ(L)`: a value of `len` chars splits into `τ(L) + 1` segments, one
    /// more than the distance any satisfying pair with it can have.
    fn tau(self, len: usize) -> usize {
        match self {
            Self::Distance(k) => k,
            // sim ≥ θ ⇒ d ≤ (1−θ)·L/θ (from max ≤ L + d); +ε as for the
            // q-gram prefix, so an exact bound never floors one short.
            Self::Similarity(theta) => {
                (((1.0 - theta) * len as f64 / theta) + FP_EPS).floor() as usize
            }
        }
    }

    /// The largest distance a pair whose longer value has `r > 0` chars
    /// may have and still satisfy the predicate.
    fn cutoff(self, r: usize) -> usize {
        match self {
            Self::Distance(k) => k,
            Self::Similarity(theta) => match edit_similarity_check(theta, Polarity::Positive, r) {
                EditCheck::AtMost(k) => k,
                _ => r,
            },
        }
    }
}

/// Pass-Join index keys of one value of `L` chars under `bound`, salted
/// by `salt`, and how many probe keys [`pass_join_probe`] gives it.
///
/// * **Index.** The value splits into `τ(L) + 1` even segments, keyed by
///   `(L, segment i, segment chars)`. Within `τ(L)` edits of a partner, one
///   segment survives intact.
/// * **Probe.** For every partner length `L' ≤ L` the bound allows, and
///   each segment `i` of an `L'`-char partner at offset `p`, the substrings
///   of the value of the segment's length starting at `p + δ`, where
///   multi-match-aware selection bounds the shift `δ` to
///   `[max(−i, Δ − (d − i)), min(i, Δ + (d − i))]` with `Δ = L − L'` and
///   `d` the pair's distance cutoff. (Of the segments a pair's alignment
///   leaves intact, pick the first `i` whose prefix carries exactly `i`
///   edits: the prefix shifts the segment by at most `i`, and the rest by
///   at most `d − i` relative to the length difference.)
///
/// A value whose `τ(L) ≥ L` has an empty segment and no sound key, so it
/// is a wildcard. The empty string under `edit_sim` keeps the shared
/// marker of the q-gram scheme: it only matches itself.
fn pass_join_index(value: &AttrValue, bound: EditBound, salt: u64) -> (PredSigs, usize) {
    let len = value.char_len as usize;
    if len == 0 && matches!(bound, EditBound::Similarity(_)) {
        return (PredSigs::Sigs(vec![salted(salt, mix64(0xE55))]), 1);
    }
    let tau = bound.tau(len);
    if tau >= len {
        return (PredSigs::Wildcard, 0);
    }
    let chars = Chars::new(value);
    let index = Segments::new(len, tau)
        .map(|(i, p, l)| segment_key(segment_seed(salt, len, i), chars.slice(p, l)))
        .collect();
    (PredSigs::Sigs(index), probe_count(len, bound))
}

/// How many probe keys [`pass_join_probe`] gives a value of `len` chars; 0
/// for a wildcard.
fn probe_count(len: usize, bound: EditBound) -> usize {
    match len {
        0 => usize::from(matches!(bound, EditBound::Similarity(_))),
        _ if bound.tau(len) >= len => 0,
        _ => probe_windows(len, bound).map(|(.., starts)| starts.count()).sum(),
    }
}

/// The Pass-Join probe keys of a value that [`pass_join_index`] keys (see
/// there), `count` of them. They may repeat.
fn pass_join_probe(value: &AttrValue, bound: EditBound, salt: u64, count: usize) -> Vec<u64> {
    let len = value.char_len as usize;
    if len == 0 {
        return vec![salted(salt, mix64(0xE55))];
    }
    let chars = Chars::new(value);
    let mut probe = Vec::with_capacity(count);
    for (partner, i, l, starts) in probe_windows(len, bound) {
        let seed = segment_seed(salt, partner, i);
        probe.extend(starts.map(|q| segment_key(seed, chars.slice(q, l))));
    }
    probe
}

/// The probe windows of a value of `len` chars: per partner length `L'`
/// that can still match and not a wildcard, and per segment `i` of it that
/// can survive, `(L', i, segment length, starts)`.
fn probe_windows(
    len: usize,
    bound: EditBound,
) -> impl Iterator<Item = (usize, usize, usize, RangeInclusive<usize>)> {
    let d = bound.cutoff(len);
    (len.saturating_sub(d).max(1)..=len).flat_map(move |partner| {
        let tau = bound.tau(partner);
        // A partner with `τ ≥ L'` is a wildcard: it pairs with everything.
        let segments = (tau < partner).then(|| Segments::new(partner, tau).take(d + 1));
        debug_assert!(tau >= partner || d <= tau, "a cutoff exceeds its partner's segmentation");
        let delta = len - partner;
        segments.into_iter().flatten().map(move |(i, p, l)| {
            let lo = (p + delta + i).saturating_sub(d).max(p.saturating_sub(i));
            let hi = (p + i).min(p + delta + d - i).min(len - l);
            (partner, i, l, lo..=hi)
        })
    })
}

/// The `tau + 1` even segments of a value of `len > tau` chars, as
/// `(i, offset, length)`: the last `len mod (tau + 1)` are one char longer.
struct Segments {
    i: usize,
    at: usize,
    base: usize,
    /// How many segments are `base` chars long.
    short: usize,
    m: usize,
}

impl Segments {
    fn new(len: usize, tau: usize) -> Self {
        let m = tau + 1;
        Self { i: 0, at: 0, base: len / m, short: m - len % m, m }
    }
}

impl Iterator for Segments {
    type Item = (usize, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        (self.i < self.m).then(|| {
            let (i, p, l) = (self.i, self.at, self.base + usize::from(self.i >= self.short));
            self.i += 1;
            self.at += l;
            (i, p, l)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.m - self.i, Some(self.m - self.i))
    }
}

/// The hash state every key of segment `i` of a `len`-char value starts
/// from, under a predicate's `salt`.
#[inline]
fn segment_seed(salt: u64, len: usize, i: usize) -> u64 {
    mix64(salt ^ ((len as u64) << 32 | i as u64))
}

/// A segment's key: its bytes folded into `seed` eight at a time, each
/// word mixed in. Under one seed a segment has a fixed char count, so two
/// texts fold to the same words only when multi-byte chars let their byte
/// lengths differ by trailing NULs; a collision only adds candidates.
#[inline]
fn segment_key(seed: u64, bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(seed, |h, chunk| {
        let word = chunk.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        mix64(h ^ word)
    })
}

/// A value's text addressed by char: ASCII text by byte, other text
/// through its char boundaries. Edit kernels count chars, so segments and
/// grams are cut on chars.
struct Chars<'v> {
    text: &'v [u8],
    /// Byte offset of every char, then the text's length; empty for ASCII.
    bounds: Vec<usize>,
}

impl<'v> Chars<'v> {
    fn new(value: &'v AttrValue) -> Self {
        let text = value.text.as_str();
        let bounds = if value.is_ascii {
            Vec::new()
        } else {
            text.char_indices().map(|(b, _)| b).chain([text.len()]).collect()
        };
        Self { text: text.as_bytes(), bounds }
    }

    /// The UTF-8 bytes of chars `start..start + len`.
    fn slice(&self, start: usize, len: usize) -> &'v [u8] {
        if self.bounds.is_empty() {
            &self.text[start..start + len]
        } else {
            &self.text[self.bounds[start]..self.bounds[start + len]]
        }
    }
}

/// q-gram prefix signatures for an edit-distance bound `t`: the hashes of
/// the value's distinct `Q`-grams (the whole value when it is shorter),
/// least first. The order is the hash itself, which every value shares —
/// any fixed total order preserves the prefix guarantee.
fn gram_prefix_sigs(value: &AttrValue, t: usize) -> PredSigs {
    let chars = Chars::new(value);
    let len = value.char_len as usize;
    let mut hashed: Vec<u64> = match len {
        0 => Vec::new(),
        _ if len < Q => vec![hash_bytes(chars.slice(0, len))],
        _ => (0..=len - Q).map(|i| hash_bytes(chars.slice(i, Q))).collect(),
    };
    hashed.sort_unstable();
    hashed.dedup();
    match edit_prefix_len(hashed.len(), Q, t) {
        None => PredSigs::Wildcard,
        Some(plen) => {
            hashed.truncate(plen);
            PredSigs::Sigs(hashed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{GroupBuilder, Schema};
    use crate::rule::tests::{figure1_group, paper_rules};
    use dime_text::TokenizerKind;
    use proptest::prelude::*;

    fn sigs(p: &PredSigs) -> &Vec<u64> {
        match p {
            PredSigs::Sigs(s) => s,
            other => panic!("expected Sigs, got {other:?}"),
        }
    }

    #[test]
    fn positive_overlap_prefix_counts() {
        let g = figure1_group();
        let mut ctx = SigContext::new(&g);
        let pred = Predicate::new(1, SimilarityFn::Overlap, 2.0);
        // KATARA has 6 authors → prefix 6-2+1 = 5 signatures.
        let s = ctx.predicate_sigs(&g, g.entity(1), &pred);
        assert_eq!(sigs(&s).len(), 5);
    }

    #[test]
    fn positive_overlap_unsatisfiable_for_short_values() {
        let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
        let mut b = GroupBuilder::new(schema);
        b.add_entity(&["solo author"]);
        let g = b.build();
        let mut ctx = SigContext::new(&g);
        let pred = Predicate::new(0, SimilarityFn::Overlap, 2.0);
        let s = ctx.predicate_sigs(&g, g.entity(0), &pred);
        assert!(sigs(&s).is_empty());
    }

    #[test]
    fn trivial_predicates_are_skipped() {
        let g = figure1_group();
        let mut ctx = SigContext::new(&g);
        let pred = Predicate::new(1, SimilarityFn::Overlap, 0.0);
        assert_eq!(ctx.predicate_sigs(&g, g.entity(0), &pred), PredSigs::Trivial);
        // A rule of only trivial predicates indexes nothing → wildcard.
        let rule = Rule::positive(vec![pred]);
        assert!(ctx.positive_rule_signatures(&g, &rule).index.iter().all(Option::is_none));
    }

    #[test]
    fn ontology_node_signatures_match_for_same_field() {
        let g = figure1_group();
        let mut ctx = SigContext::new(&g);
        let pred = Predicate::new(2, SimilarityFn::Ontology, 0.75);
        // SIGMOD (entity 1) and VLDB (entity 2) and ICDE (entity 3) share a
        // database node signature.
        let s1 = sigs(&ctx.predicate_sigs(&g, g.entity(1), &pred)).clone();
        let s2 = sigs(&ctx.predicate_sigs(&g, g.entity(2), &pred)).clone();
        let s3 = sigs(&ctx.predicate_sigs(&g, g.entity(3), &pred)).clone();
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
        // The chemistry venue maps elsewhere.
        let s5 = sigs(&ctx.predicate_sigs(&g, g.entity(5), &pred)).clone();
        assert_ne!(s1, s5);
    }

    #[test]
    fn composite_rule_signatures_pair_scholar_entities() {
        let g = figure1_group();
        let (pos, _) = paper_rules();
        let mut ctx = SigContext::new(&g);
        // ϕ2+ (overlap ≥ 1 ∧ ontology ≥ 0.75): entities 1 and 3 share the
        // (nan tang, database) tuple.
        let all = ctx.positive_rule_signatures(&g, &pos[1]).index;
        let s1 = all[1].as_ref().unwrap();
        let s3 = all[3].as_ref().unwrap();
        assert!(s1.iter().any(|x| s3.contains(x)), "composite tuples must intersect");
        // Entities 1 and 4 (NJ Tang / information retrieval) share nothing.
        let s4 = all[4].as_ref().unwrap();
        assert!(!s1.iter().any(|x| s4.contains(x)));
    }

    /// The filter-completeness property over the paper's group: whenever a
    /// positive rule matches a pair, the composite signature sets intersect.
    #[test]
    fn positive_filter_complete_on_figure1() {
        let g = figure1_group();
        let (pos, _) = paper_rules();
        let mut ctx = SigContext::new(&g);
        for rule in &pos {
            let all = ctx.positive_rule_signatures(&g, rule);
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    if rule.eval(&g, g.entity(i), g.entity(j)) {
                        assert!(
                            all.pairs(i, j),
                            "pair ({i},{j}) satisfies {rule} but sigs disjoint"
                        );
                    }
                }
            }
        }
    }

    /// Regression: edit-similarity bounds at exact thresholds must not
    /// floor below the true distance bound (observed false dismissal:
    /// "lihu" vs "l ihu" at θ = 0.8 — sim exactly 0.8, d = 1, but
    /// (1−0.8)·4/0.8 evaluates to 0.9999999999999998).
    #[test]
    fn edit_similarity_boundary_is_not_dismissed() {
        let schema = Schema::new([("Name", TokenizerKind::Words)]);
        let mut b = GroupBuilder::new(schema);
        b.add_entity(&["lihu"]);
        b.add_entity(&["l ihu"]);
        let g = b.build();
        let pred = Predicate::new(0, SimilarityFn::EditSimilarity, 0.8);
        assert!(pred.eval(&g, g.entity(0), g.entity(1), Polarity::Positive));
        let rule = Rule::positive(vec![pred]);
        let mut ctx = SigContext::new(&g);
        let all = ctx.positive_rule_signatures(&g, &rule);
        assert!(all.pairs(0, 1), "boundary pair must share a signature");
    }

    /// A one-attribute group over `values`, as the `Whole` tokenizer keeps
    /// them (trimmed, lowercased).
    fn text_group(values: &[String]) -> Group {
        let mut b = GroupBuilder::new(Schema::new([("Name", TokenizerKind::Whole)]));
        for v in values {
            b.add_entity(&[v.as_str()]);
        }
        b.build()
    }

    /// Checks Pass-Join soundness for `pred` on every pair of `g`: if the
    /// pair satisfies it and neither side is a wildcard, the longer
    /// value's probe keys meet the other's index keys — both ways round at
    /// equal length.
    fn check_pass_join_sound(g: &Group, pred: &Predicate) {
        let bound = EditBound::of(pred).expect("a positive AtMost edit predicate");
        let sigs: Vec<(PredSigs, Vec<u64>)> = (0..g.len())
            .map(|e| {
                let value = g.entity(e).value(0);
                let (index, count) = pass_join_index(value, bound, 1);
                let probe = match index {
                    PredSigs::Sigs(_) => pass_join_probe(value, bound, 1, count),
                    _ => Vec::new(),
                };
                assert_eq!(probe.len(), count, "{pred} on {:?}", value.text);
                (index, probe)
            })
            .collect();
        for (i, (_, probe)) in sigs.iter().enumerate() {
            for (j, (index, _)) in sigs.iter().enumerate() {
                let (a, b) = (g.entity(i).value(0), g.entity(j).value(0));
                if i == j
                    || a.char_len < b.char_len
                    || !pred.eval(g, g.entity(i), g.entity(j), Polarity::Positive)
                {
                    continue;
                }
                match (&sigs[i].0, index) {
                    (PredSigs::Sigs(_), PredSigs::Sigs(index)) => assert!(
                        probe.iter().any(|k| index.contains(k)),
                        "{pred}: {:?} probes miss {:?}",
                        a.text,
                        b.text
                    ),
                    (PredSigs::Trivial, _) | (_, PredSigs::Trivial) => panic!("{pred} is trivial"),
                    _ => {} // a wildcard pairs with everything
                }
            }
        }
    }

    #[test]
    fn pass_join_keys_segments_and_windows() {
        let g = text_group(&["abcdefghij".to_string()]);
        let v = g.entity(0).value(0);
        // θ = 0.8 on 10 chars: τ = 2, so 3 segments of 3, 3 and 4 chars.
        let segments: Vec<_> = Segments::new(10, 2).collect();
        assert_eq!(segments, [(0, 0, 3), (1, 3, 3), (2, 6, 4)]);
        let bound = EditBound::Similarity(0.8);
        let (index, count) = pass_join_index(v, bound, 1);
        let keys = segments
            .iter()
            .map(|&(i, p, l)| segment_key(segment_seed(1, 10, i), &v.text.as_bytes()[p..p + l]));
        assert_eq!(index, PredSigs::Sigs(keys.collect()));
        // Partners of 8, 9 and 10 chars (cutoff 2): 3 + 4 + 5 windows.
        assert_eq!((count, pass_join_probe(v, bound, 1, count).len()), (12, 12));
        // Short values: τ(L) ≥ L leaves an empty segment, a wildcard.
        let short = text_group(&["ab".to_string(), String::new()]);
        let distance = EditBound::Distance(2);
        assert_eq!(pass_join_index(short.entity(0).value(0), distance, 1).0, PredSigs::Wildcard);
        assert_eq!(pass_join_index(short.entity(1).value(0), distance, 1).0, PredSigs::Wildcard);
        // The empty value under edit_sim only matches itself.
        let empty = short.entity(1).value(0);
        let (index, count) = pass_join_index(empty, bound, 1);
        assert_eq!((index, count), (PredSigs::Sigs(pass_join_probe(empty, bound, 1, 1)), 1));
    }

    /// Probe keys grow with the cube of the distance cutoff: past 46 chars
    /// at θ = 0.7 and 69 at θ = 0.8 a value has more than a composite may
    /// hold. A rule over such values keeps the q-gram prefixes, where they
    /// are not wildcards, and still pairs every satisfying pair; the same
    /// rule over short values takes Pass-Join keys.
    #[test]
    fn long_values_keep_qgram_keys() {
        let mut rng = crate::dime_plus::tests::SplitMix64(0x10C6);
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut long = Vec::new();
        for _ in 0..12 {
            let mut value: Vec<u8> =
                (0..60 + rng.below(61)).map(|_| CHARS[rng.below(CHARS.len())]).collect();
            long.push(String::from_utf8(value.clone()).unwrap());
            // A near duplicate: up to 8 substitutions.
            for _ in 0..rng.below(9) {
                let at = rng.below(value.len());
                value[at] = CHARS[rng.below(CHARS.len())];
            }
            long.push(String::from_utf8(value).unwrap());
        }
        let short: Vec<String> = long.iter().map(|v| v[..10].to_string()).collect();
        for theta in [0.7, 0.8] {
            assert!(probe_count(120, EditBound::Similarity(theta)) > MAX_COMPOSITE);
            let rule = Rule::positive(vec![Predicate::new(0, SimilarityFn::EditSimilarity, theta)]);
            let g = text_group(&long);
            let sigs = SigContext::new(&g).positive_rule_signatures(&g, &rule);
            assert!(sigs.probe.is_none(), "θ = {theta}: long values keep q-gram keys");
            assert!(sigs.index.iter().all(Option::is_some), "θ = {theta}: a wildcard");
            let mut satisfied = 0;
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    if rule.eval(&g, g.entity(i), g.entity(j)) {
                        satisfied += 1;
                        assert!(sigs.pairs(i, j), "θ = {theta}: ({i}, {j}) dismissed");
                    }
                }
            }
            assert!(satisfied >= 6, "θ = {theta}: only {satisfied} satisfying pairs");
            let g = text_group(&short);
            assert!(SigContext::new(&g).positive_rule_signatures(&g, &rule).probe.is_some());
        }
    }

    /// The q-gram prefix hashes char windows in place; its output is the
    /// sorted hash of each distinct `qgrams` gram string, truncated: the
    /// keys the live engine emitted before.
    #[test]
    fn gram_prefix_matches_qgram_strings() {
        let mut rng = crate::dime_plus::tests::SplitMix64(0x9A11);
        const CHARS: [char; 7] = ['a', 'b', 'c', ' ', 'ö', 'é', '日'];
        let values: Vec<String> = (0..400)
            .map(|_| (0..rng.below(14)).map(|_| CHARS[rng.below(CHARS.len())]).collect())
            .collect();
        let g = text_group(&values);
        for e in 0..g.len() {
            let v = g.entity(e).value(0);
            let grams = dime_text::qgrams(&v.text, Q);
            for t in 0..4 {
                let expected = match edit_prefix_len(grams.len(), Q, t) {
                    None => PredSigs::Wildcard,
                    Some(plen) => {
                        let mut h: Vec<u64> =
                            grams.iter().map(|g| hash_bytes(g.as_bytes())).collect();
                        h.sort_unstable();
                        h.truncate(plen);
                        PredSigs::Sigs(h)
                    }
                };
                assert_eq!(gram_prefix_sigs(v, t), expected, "{:?} at t = {t}", v.text);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Pass-Join soundness: a pair that satisfies a positive edit
        /// predicate shares a probe and an index key (the longer value
        /// probing) unless a side is a wildcard. The values are a random
        /// base over `[a-cö]`, random edits of it (spaces included, trimmed
        /// at the ends), and the base less as many chars as each bound's
        /// cutoff allows, so partner lengths reach `R − cutoff(R)` (that
        /// is `⌈θ·R⌉`) exactly. Bases run from empty and one char up; θ ≤
        /// 0.5 and k ≥ L make `τ ≥ L`.
        #[test]
        fn prop_passjoin_sound(
            base in "[a-cö]{0,12}",
            edits in proptest::collection::vec(
                proptest::collection::vec((0usize..16, 0usize..3, 0usize..5), 1..4), 1..6),
            theta in 0.3f64..1.0,
        ) {
            const CHARS: [char; 5] = ['a', 'b', 'c', 'ö', ' '];
            let base: Vec<char> = base.chars().collect();
            let mut values: Vec<String> = vec![base.iter().collect()];
            for ops in &edits {
                let mut v = base.clone();
                for &(pos, kind, c) in ops {
                    match kind {
                        0 if !v.is_empty() => {
                            let at = pos % v.len();
                            v[at] = CHARS[c];
                        }
                        1 => v.insert(pos % (v.len() + 1), CHARS[c]),
                        _ if !v.is_empty() => {
                            v.remove(pos % v.len());
                        }
                        _ => {}
                    }
                }
                values.push(v.into_iter().collect());
            }
            let thetas = [0.3, 0.5, 0.6, 2.0 / 3.0, 0.75, 0.8, 0.9, 1.0, theta];
            let mut preds: Vec<Predicate> = thetas
                .iter()
                .map(|&t| Predicate::new(0, SimilarityFn::EditSimilarity, t))
                .collect();
            preds.extend((0..5).map(|k| Predicate::new(0, SimilarityFn::EditDistance, k as f64)));
            for pred in &preds {
                if let (Some(bound), false) = (EditBound::of(pred), base.is_empty()) {
                    let mut v = base.clone();
                    for j in 0..bound.cutoff(base.len()).min(base.len()) {
                        v.remove((edits[0][0].0 + 3 * j) % v.len());
                    }
                    values.push(v.into_iter().collect());
                }
            }
            let g = text_group(&values);
            for pred in &preds {
                check_pass_join_sound(&g, pred);
            }
        }
    }

    proptest! {
        /// Filter completeness for every set-based similarity family:
        /// whenever the positive predicate holds, signature sets intersect.
        #[test]
        fn prop_set_family_filters_complete(
            lists in proptest::collection::vec(proptest::collection::vec(0u32..15, 1..8), 2..10),
            theta in 0.05f64..0.95,
        ) {
            let schema = Schema::new([("A", TokenizerKind::List(','))]);
            let mut b = GroupBuilder::new(schema);
            for l in &lists {
                let joined: Vec<String> = l.iter().map(|x| format!("t{x}")).collect();
                b.add_entity(&[joined.join(", ").as_str()]);
            }
            let g = b.build();
            let mut ctx = SigContext::new(&g);
            for func in [SimilarityFn::Jaccard, SimilarityFn::Dice, SimilarityFn::Cosine] {
                let pred = Predicate::new(0, func, theta);
                let rule = Rule::positive(vec![pred]);
                let all = ctx.positive_rule_signatures(&g, &rule);
                for i in 0..g.len() {
                    for j in i + 1..g.len() {
                        let sim = pred.similarity(&g, g.entity(i), g.entity(j));
                        if sim >= theta {
                            prop_assert!(all.pairs(i, j), "{func:?} sim {sim} ≥ {theta} but sigs disjoint");
                        }
                    }
                }
            }
        }

        /// Overlap filter completeness on random author-list groups, empty
        /// lists included.
        #[test]
        fn prop_filter_properties_random(lists in proptest::collection::vec(
            proptest::collection::vec(0u32..12, 0..6), 2..12), theta in 1usize..4) {
            let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
            let mut b = GroupBuilder::new(schema);
            for l in &lists {
                let joined: Vec<String> = l.iter().map(|x| format!("a{x}")).collect();
                b.add_entity(&[joined.join(", ").as_str()]);
            }
            let g = b.build();
            let mut ctx = SigContext::new(&g);
            let pos = Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, theta as f64)]);
            let psigs = ctx.positive_rule_signatures(&g, &pos);
            for i in 0..g.len() {
                for j in 0..g.len() {
                    if i != j && pos.eval(&g, g.entity(i), g.entity(j)) {
                        prop_assert!(psigs.pairs(i, j));
                    }
                }
            }
        }
    }
}
