//! Pointer-free verification arena for the DIME⁺ candidate loops.
//!
//! [`VerifyArena`] interns every attribute value of a [`Group`] into
//! contiguous packed buffers at build time — token ids, ASCII bytes,
//! decoded chars, 64-bit bitset blocks for dense token sets, and
//! root-to-node ontology ancestor paths — addressed by
//! `slot = entity_id · attr_count + attr` with `(offset, len)` spans.
//! Verification then touches only `u32` ids and packed slices: no `String`
//! pointer chasing, no per-pair char decoding, no hash lookups.
//!
//! Every kernel is *bit-identical* to the scalar [`Rule::eval`] path:
//!
//! * set similarities produce the same intersection integer (merge, gallop
//!   and bitset kernels, and the negative phase's dense counters over
//!   pivot postings ([`PivotCounts`]), agree exactly) and funnel it
//!   through the same `*_counts` f64 expressions;
//! * edit predicates go through the same [`EditCheck`] integer cutoffs and
//!   the same bounded kernels the scalar path uses; compiled rules first
//!   try a bag-distance lower bound, which only ever decides a cutoff the
//!   kernel would have decided the same way;
//! * ontology similarity recomputes `2·depth(lca)/(d_a + d_b)` from packed
//!   ancestor paths, whose common-prefix length equals the LCA depth.

use crate::entity::Group;
use crate::rule::{
    edit_distance_check, edit_similarity_check, EditCheck, Polarity, Predicate, Rule, SimilarityFn,
};
use dime_ontology::NodeId;
use dime_text::{
    bag_distance, block_build_into, block_intersection_size, char_histogram, cosine_counts,
    dice_counts, edit_distance_leq_bytes, edit_distance_leq_chars, intersection_size_gallop,
    intersection_size_merge, jaccard_counts, overlap_counts, CharHistogram, TokenId,
};

/// Size-ratio cutover to the galloping kernel; mirrors the dispatch inside
/// [`dime_text::intersection_size`].
const GALLOP_RATIO: usize = 16;
/// Token sets smaller than this never get a bitset representation — the
/// merge pass already finishes in a handful of comparisons.
const DENSE_MIN_TOKENS: usize = 8;
/// Minimum average ids per 64-bit block for a set to count as *dense*
/// (below this, the popcount walk touches more words than merge would).
const DENSE_IDS_PER_BLOCK: usize = 2;

/// `(offset, len)` into one of the packed buffers, in element units.
type Span = (u32, u32);

#[inline]
fn slice<T>(buf: &[T], span: Span) -> &[T] {
    let (o, l) = (span.0 as usize, span.1 as usize);
    &buf[o..o + l]
}

/// The packed verification view of a [`Group`].
///
/// The batch engine builds one per discovery run (inside the
/// `signature_build` phase); the live engine ([`crate::IncrementalDime`])
/// keeps one across its lifetime, [`VerifyArena::push`]ing each added
/// entity and cutting each removed one out ([`VerifyArena::remove`]).
/// Rules are compiled against it ([`VerifyArena::compile`]) and evaluated
/// by entity id via [`VerifyArena::eval_compiled`]. The arena owns plain
/// `Vec`s only, so shared references are `Sync` and the engine's scoped
/// workers can verify against one arena concurrently.
#[derive(Debug, PartialEq)]
pub(crate) struct VerifyArena {
    /// Attributes per entity (`slot = eid · attrs + attr`).
    attrs: usize,
    /// Whether each attribute has an attached ontology.
    has_ontology: Vec<bool>,
    token_span: Vec<Span>,
    tokens: Vec<TokenId>,
    /// Valid only where `is_ascii` (empty otherwise).
    byte_span: Vec<Span>,
    bytes: Vec<u8>,
    /// Valid for every slot (ASCII text is re-encoded as chars too, so
    /// mixed pairs need no per-pair decoding).
    char_span: Vec<Span>,
    chars: Vec<char>,
    char_len: Vec<u32>,
    is_ascii: Vec<bool>,
    /// Bitset blocks, present only for dense token sets (empty span
    /// otherwise); keys are sorted `id >> 6` block indices.
    block_span: Vec<Span>,
    block_keys: Vec<TokenId>,
    block_words: Vec<u64>,
    /// Root-to-node ancestor path, present when the attribute has an
    /// ontology and the value resolved to a node (empty span otherwise).
    anc_span: Vec<Span>,
    anc: Vec<NodeId>,
}

impl VerifyArena {
    /// Interns the whole group. `O(total data)` — one pass over every
    /// value, no per-pair work afterwards.
    pub(crate) fn new(group: &Group) -> Self {
        let attrs = group.schema().len();
        let slots = group.len() * attrs;
        let mut a = VerifyArena {
            attrs,
            has_ontology: (0..attrs).map(|i| group.ontology(i).is_some()).collect(),
            token_span: Vec::with_capacity(slots),
            tokens: Vec::new(),
            byte_span: Vec::with_capacity(slots),
            bytes: Vec::new(),
            char_span: Vec::with_capacity(slots),
            chars: Vec::new(),
            char_len: Vec::with_capacity(slots),
            is_ascii: Vec::with_capacity(slots),
            block_span: Vec::with_capacity(slots),
            block_keys: Vec::new(),
            block_words: Vec::new(),
            anc_span: Vec::with_capacity(slots),
            anc: Vec::new(),
        };
        for eid in 0..group.len() {
            a.push(group, eid);
        }
        a
    }

    /// Interns entity `eid` of `group` as the arena's next entity. The
    /// arena must already hold entities `0..eid`; this is how the live
    /// engine keeps its arena in step with a growing group.
    pub(crate) fn push(&mut self, group: &Group, eid: usize) {
        debug_assert_eq!(self.token_span.len(), eid * self.attrs, "arena out of step with group");
        for (ai, v) in group.entity(eid).values.iter().enumerate() {
            let start = self.tokens.len();
            self.tokens.extend_from_slice(&v.tokens);
            self.token_span.push((start as u32, v.tokens.len() as u32));

            self.char_len.push(v.char_len);
            self.is_ascii.push(v.is_ascii);
            if v.is_ascii {
                let start = self.bytes.len();
                self.bytes.extend_from_slice(v.text.as_bytes());
                self.byte_span.push((start as u32, v.text.len() as u32));
            } else {
                self.byte_span.push((self.bytes.len() as u32, 0));
            }
            let start = self.chars.len();
            self.chars.extend(v.text.chars());
            self.char_span.push((start as u32, (self.chars.len() - start) as u32));
            debug_assert_eq!(self.chars.len() - start, v.char_len as usize);

            let start = self.block_keys.len();
            if is_dense(&v.tokens) {
                block_build_into(&v.tokens, &mut self.block_keys, &mut self.block_words);
            }
            self.block_span.push((start as u32, (self.block_keys.len() - start) as u32));

            let start = self.anc.len();
            if let (Some(ont), Some(node)) = (group.ontology(ai), v.node) {
                let mut cur = Some(node);
                while let Some(nd) = cur {
                    self.anc.push(nd);
                    cur = ont.parent(nd);
                }
                self.anc[start..].reverse();
                debug_assert_eq!(self.anc.len() - start, ont.depth(node) as usize);
            }
            self.anc_span.push((start as u32, (self.anc.len() - start) as u32));
        }
    }

    /// Cuts entity `eid` out, compacting ids like [`Group::remove_entity`]:
    /// the arena then equals one built from the compacted group.
    pub(crate) fn remove(&mut self, eid: usize) {
        let slots = eid * self.attrs..(eid + 1) * self.attrs;
        self.tokens.drain(cut(&mut self.token_span, slots.clone()));
        self.bytes.drain(cut(&mut self.byte_span, slots.clone()));
        self.chars.drain(cut(&mut self.char_span, slots.clone()));
        let blocks = cut(&mut self.block_span, slots.clone());
        self.block_keys.drain(blocks.clone());
        self.block_words.drain(blocks);
        self.anc.drain(cut(&mut self.anc_span, slots.clone()));
        self.char_len.drain(slots.clone());
        self.is_ascii.drain(slots);
    }

    /// Lowers a rule against this arena for the hot candidate loops:
    /// [`EditCheck`] cutoffs are tabulated for every reachable `max_len`
    /// (replacing the per-pair guess-then-adjust derivation with one
    /// indexed load), each edit predicate gets a per-entity
    /// [`CharHistogram`] of its attribute for the bag-distance bound, and
    /// set/ontology predicates are split from the `O(k·len)` edit kernels so
    /// they run first. A conjunction's evaluation order is unobservable, so
    /// the boolean (and every counter downstream) is identical to
    /// [`Rule::eval`].
    ///
    /// The histograms live in the compiled rule, not the arena: only rules
    /// with edit predicates pay for them.
    pub(crate) fn compile(&self, rule: &Rule) -> CompiledRule {
        let entities = self.char_len.len() / self.attrs;
        let (mut sets, mut edits) = (Vec::new(), Vec::new());
        for &pred in &rule.predicates {
            let checks = match pred.func {
                SimilarityFn::EditDistance => {
                    EditChecks::Fixed(edit_distance_check(pred.threshold, rule.polarity))
                }
                SimilarityFn::EditSimilarity => EditChecks::ByMax(Vec::new()),
                _ => {
                    sets.push(pred);
                    continue;
                }
            };
            edits.push(CompiledEdit { pred, checks, hist: Vec::with_capacity(entities) });
        }
        let mut compiled = CompiledRule { polarity: rule.polarity, sets, edits };
        for e in 0..entities {
            compiled.push(self, e);
        }
        compiled
    }

    /// The same boolean as [`Rule::eval`] on entities `a` and `b`, over a
    /// pre-lowered rule, with no per-pair cutoff derivation. Every edit
    /// predicate's bag-distance bound runs first ([`Self::edit_bounds`]); a
    /// pair that survives then takes the set/ontology kernels, and Myers
    /// only for the edit predicates the bound left open.
    pub(crate) fn eval_compiled(&self, cr: &CompiledRule, a: usize, b: usize) -> bool {
        let Some(settled) = self.edit_bounds(cr, a, b) else {
            return false;
        };
        cr.sets.iter().all(|p| self.eval_pred(p, cr.polarity, a, b))
            && self.edit_kernels(cr, settled, a, b)
    }

    /// Whether the edit predicates' cutoffs and bag-distance bound leave
    /// `(a, b)` open; `false` only when [`Self::eval_compiled`] would be.
    /// Always `true` for a rule without edit predicates. The positive
    /// phase drops the pairs this refutes while it gathers them.
    #[inline]
    pub(crate) fn bound_open(&self, cr: &CompiledRule, a: usize, b: usize) -> bool {
        cr.edits.is_empty() || self.edit_bounds(cr, a, b).is_some()
    }

    /// A compiled rule's edit predicates alone on `(a, b)`: the bag bound,
    /// then the kernel for each predicate it left open.
    fn eval_edits(&self, cr: &CompiledRule, a: usize, b: usize) -> bool {
        cr.edits.is_empty()
            || self
                .edit_bounds(cr, a, b)
                .is_some_and(|settled| self.edit_kernels(cr, settled, a, b))
    }

    /// The edit kernels of every predicate not in the `settled` mask.
    fn edit_kernels(&self, cr: &CompiledRule, settled: u64, a: usize, b: usize) -> bool {
        cr.edits.iter().enumerate().all(|(i, e)| {
            settled & bound_bit(i) != 0 || {
                let (sa, sb) = (a * self.attrs + e.pred.attr, b * self.attrs + e.pred.attr);
                self.eval_edit(e.pair_check(&self.char_len, sa, sb), sa, sb)
            }
        })
    }

    /// Indexes the pivot side of a compiled rule for
    /// [`PivotCounts::scan`]; `pivot` lists the pivot's entities, and a
    /// pivot *position* is an index into it.
    pub(crate) fn pivot_counts<'a>(
        &'a self,
        cr: &'a CompiledRule,
        pivot: &'a [usize],
    ) -> PivotCounts<'a> {
        let (mut postings, mut ontologies) = (Vec::<TokenPostings<'a>>::new(), Vec::new());
        for p in &cr.sets {
            if p.func == SimilarityFn::Ontology {
                ontologies.push(OntologyClasses::new(self, p, pivot));
            } else if let Some(post) = postings.iter_mut().find(|t| t.attr == p.attr) {
                post.preds.push(p);
            } else {
                postings.push(TokenPostings::new(self, p, pivot));
            }
        }
        PivotCounts { arena: self, rule: cr, pivot, postings, ontologies }
    }

    /// Entity `e`'s token set on `attr`.
    fn tokens_of(&self, e: usize, attr: usize) -> &[TokenId] {
        slice(&self.tokens, self.token_span[e * self.attrs + attr])
    }

    /// The bag-distance pass over a compiled rule's edit predicates:
    /// `None` when some predicate provably fails (`AtMost(k)` with
    /// bag > k, or `Never`) — the whole conjunction is then false — and
    /// otherwise the [`bound_bit`] mask of predicates it proved true
    /// (`AtLeast(k)` with bag ≥ k, or `Always`), which need no kernel.
    ///
    /// Sound because the bag distance never exceeds the edit distance
    /// (see [`dime_text::bag_distance`]): `bag > k` implies `d > k`, and
    /// `bag ≥ k` implies `d ≥ k`.
    fn edit_bounds(&self, cr: &CompiledRule, a: usize, b: usize) -> Option<u64> {
        let mut settled = 0u64;
        for (i, e) in cr.edits.iter().enumerate() {
            let (sa, sb) = (a * self.attrs + e.pred.attr, b * self.attrs + e.pred.attr);
            let bag = || bag_distance(&e.hist[a], &e.hist[b]);
            match e.pair_check(&self.char_len, sa, sb) {
                EditCheck::Never => return None,
                EditCheck::AtMost(k) if bag() > k => return None,
                EditCheck::Always => settled |= bound_bit(i),
                EditCheck::AtLeast(k) if bag() >= k => settled |= bound_bit(i),
                EditCheck::AtMost(_) | EditCheck::AtLeast(_) => {}
            }
        }
        Some(settled)
    }

    /// One predicate on a pair of entity ids; the same boolean as
    /// [`Predicate::eval`].
    fn eval_pred(&self, p: &Predicate, polarity: Polarity, a: usize, b: usize) -> bool {
        let sa = a * self.attrs + p.attr;
        let sb = b * self.attrs + p.attr;
        match p.func {
            SimilarityFn::Overlap
            | SimilarityFn::Jaccard
            | SimilarityFn::Dice
            | SimilarityFn::Cosine => {
                let (la, lb) = (self.token_span[sa].1 as usize, self.token_span[sb].1 as usize);
                p.holds(set_similarity(p.func, self.inter(sa, sb), la, lb), polarity)
            }
            SimilarityFn::EditSimilarity => {
                let max = self.char_len[sa].max(self.char_len[sb]) as usize;
                if max == 0 {
                    p.holds(1.0, polarity)
                } else {
                    self.eval_edit(edit_similarity_check(p.threshold, polarity, max), sa, sb)
                }
            }
            SimilarityFn::EditDistance => {
                self.eval_edit(edit_distance_check(p.threshold, polarity), sa, sb)
            }
            SimilarityFn::Ontology => p.holds(self.ontology_sim(p.attr, sa, sb), polarity),
        }
    }

    /// Exact `|a ∩ b|` with per-pair kernel choice: gallop on heavy size
    /// skew, bitset popcount when both sides are dense, merge otherwise.
    fn inter(&self, sa: usize, sb: usize) -> usize {
        let ta = slice(&self.tokens, self.token_span[sa]);
        let tb = slice(&self.tokens, self.token_span[sb]);
        let (small, large) = if ta.len() <= tb.len() { (ta, tb) } else { (tb, ta) };
        if small.is_empty() {
            return 0;
        }
        if large.len() / small.len() >= GALLOP_RATIO {
            return intersection_size_gallop(small, large);
        }
        let (ka, la) = (self.block_span[sa], self.block_span[sb]);
        if ka.1 > 0 && la.1 > 0 {
            return block_intersection_size(
                slice(&self.block_keys, ka),
                slice(&self.block_words, ka),
                slice(&self.block_keys, la),
                slice(&self.block_words, la),
            );
        }
        intersection_size_merge(small, large)
    }

    fn eval_edit(&self, check: EditCheck, sa: usize, sb: usize) -> bool {
        match check {
            EditCheck::Always => true,
            EditCheck::Never => false,
            EditCheck::AtMost(k) => self.edit_leq(sa, sb, k).is_some(),
            EditCheck::AtLeast(k) => k == 0 || self.edit_leq(sa, sb, k - 1).is_none(),
        }
    }

    /// Bounded edit distance over the packed text; same dispatch the `&str`
    /// entry points use (byte kernel iff both sides are ASCII), so the
    /// result is the identical integer.
    fn edit_leq(&self, sa: usize, sb: usize, k: usize) -> Option<usize> {
        if self.is_ascii[sa] && self.is_ascii[sb] {
            edit_distance_leq_bytes(
                slice(&self.bytes, self.byte_span[sa]),
                slice(&self.bytes, self.byte_span[sb]),
                k,
            )
        } else {
            edit_distance_leq_chars(
                slice(&self.chars, self.char_span[sa]),
                slice(&self.chars, self.char_span[sb]),
                k,
            )
        }
    }

    /// `2·depth(lca)/(d_a + d_b)` from packed ancestor paths. The paths run
    /// root→node, so their common-prefix length *is* the LCA depth; the f64
    /// expression then matches `dime_ontology::ontology_similarity_opt`
    /// term for term.
    fn ontology_sim(&self, attr: usize, sa: usize, sb: usize) -> f64 {
        if !self.has_ontology[attr] {
            return 0.0;
        }
        let pa = slice(&self.anc, self.anc_span[sa]);
        let pb = slice(&self.anc, self.anc_span[sb]);
        if pa.is_empty() || pb.is_empty() {
            return 0.0; // a value without a node has no path
        }
        let mut cp = 0usize;
        while cp < pa.len() && cp < pb.len() && pa[cp] == pb[cp] {
            cp += 1;
        }
        let da = pa.len() as f64;
        let db = pb.len() as f64;
        2.0 * cp as f64 / (da + db)
    }
}

/// The set function `func`'s value from a pair's exact intersection count
/// and set sizes: the one expression both the per-pair kernels and
/// [`PivotScan::load`] decide set predicates through. Only set functions
/// reach it; any other reads as `Overlap`.
fn set_similarity(func: SimilarityFn, inter: usize, la: usize, lb: usize) -> f64 {
    match func {
        SimilarityFn::Jaccard => jaccard_counts(inter, la, lb),
        SimilarityFn::Dice => dice_counts(inter, la, lb),
        SimilarityFn::Cosine => cosine_counts(inter, la, lb),
        _ => overlap_counts(inter),
    }
}

/// The pivot side of a compiled (negative) rule, indexed once so that
/// every `(member, pivot entity)` pair is decided from counts instead of
/// per-pair kernels:
///
/// * each attribute carrying a set predicate gets CSR postings, token →
///   pivot positions. Token sets are sorted and deduplicated, so one
///   dense-counter pass over a member's tokens ([`PivotScan::load`]) yields
///   its exact `|e ∩ p|` with every pivot entity `p`;
/// * each ontology predicate gets the class of every pivot position: pivot
///   entities on the same ancestor path score alike against any member, so
///   a member decides each class once.
///
/// [`PivotScan::load`] then decides a member's set predicates against every
/// pivot position through the same `*_counts` expressions and
/// [`Predicate::holds`] as [`VerifyArena::eval_compiled`], and its ontology
/// predicates once per class through the same [`VerifyArena::eval_pred`];
/// [`PivotScan::holds`] adds the edit predicates, through the same bag
/// bound and kernels, for the positions that pass the rest. A
/// conjunction's evaluation order is unobservable, so every pair gets the
/// same boolean.
pub(crate) struct PivotCounts<'a> {
    arena: &'a VerifyArena,
    rule: &'a CompiledRule,
    pivot: &'a [usize],
    /// One per attribute carrying a set predicate.
    postings: Vec<TokenPostings<'a>>,
    /// One per ontology predicate.
    ontologies: Vec<OntologyClasses<'a>>,
}

impl<'a> PivotCounts<'a> {
    /// A worker's member-side state, sized to the pivot and reused across
    /// every member the worker loads.
    pub(crate) fn scan(&self) -> PivotScan<'_, 'a> {
        PivotScan {
            pivot: self,
            member: 0,
            counts: vec![0; self.pivot.len()],
            classes: Vec::new(),
            passed: vec![false; self.pivot.len()],
        }
    }
}

/// One attribute's pivot postings: row `t` lists the pivot positions whose
/// token set holds token `t`.
struct TokenPostings<'a> {
    attr: usize,
    /// The rule's set predicates on `attr`.
    preds: Vec<&'a Predicate>,
    positions: Csr,
    /// The token count of each pivot position.
    lens: Vec<u32>,
}

impl<'a> TokenPostings<'a> {
    fn new(arena: &VerifyArena, pred: &'a Predicate, pivot: &[usize]) -> Self {
        let attr = pred.attr;
        let tokens = |p: usize| arena.tokens_of(p, attr);
        let rows = pivot.iter().flat_map(|&p| tokens(p)).max().map_or(0, |&t| t as usize + 1);
        let positions = Csr::new(rows, || {
            (0u32..).zip(pivot).flat_map(|(j, &p)| tokens(p).iter().map(move |&t| (t as usize, j)))
        });
        let lens = pivot.iter().map(|&p| tokens(p).len() as u32).collect();
        Self { attr, preds: vec![pred], positions, lens }
    }
}

/// Compressed sparse rows of `u32`: `values[starts[r]..starts[r + 1]]` is
/// row `r`.
struct Csr {
    starts: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    /// `rows` rows from `(row, value)` entries by counting sort; each row
    /// keeps its entries' order. `entries` is walked twice.
    fn new<I>(rows: usize, entries: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, u32)>,
    {
        let mut starts = vec![0u32; rows + 1];
        for (r, _) in entries() {
            starts[r + 1] += 1;
        }
        for r in 1..starts.len() {
            starts[r] += starts[r - 1];
        }
        let mut next = starts.clone();
        let mut values = vec![0u32; starts[rows] as usize];
        for (r, v) in entries() {
            values[next[r] as usize] = v;
            next[r] += 1;
        }
        Self { starts, values }
    }

    /// Row `r`; empty past the last row.
    fn row(&self, r: usize) -> &[u32] {
        match self.starts.get(r..r + 2) {
            Some(&[lo, hi]) => &self.values[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// One ontology predicate's pivot classes: pivot entities mapped to the
/// same node (or to none) share a class.
struct OntologyClasses<'a> {
    pred: &'a Predicate,
    /// The class of each pivot position.
    class: Vec<u32>,
    /// One pivot entity per class.
    rep: Vec<usize>,
}

impl<'a> OntologyClasses<'a> {
    fn new(arena: &VerifyArena, pred: &'a Predicate, pivot: &[usize]) -> Self {
        // Class of node `n` at `ids[n + 1]`, of no node at `ids[0]`.
        let (mut ids, mut rep) = (Vec::new(), Vec::new());
        let class = pivot
            .iter()
            .map(|&p| {
                // A path ends at its node; an unmapped value has none.
                let span = arena.anc_span[p * arena.attrs + pred.attr];
                let at = slice(&arena.anc, span).last().map_or(0, |&n| n as usize + 1);
                if at >= ids.len() {
                    ids.resize(at + 1, None);
                }
                *ids[at].get_or_insert_with(|| {
                    rep.push(p);
                    rep.len() as u32 - 1
                })
            })
            .collect();
        Self { pred, class, rep }
    }
}

/// One worker's member side of a [`PivotCounts`]: which pivot positions
/// the loaded member passes on every set and ontology predicate.
pub(crate) struct PivotScan<'p, 'a> {
    pivot: &'p PivotCounts<'a>,
    member: usize,
    /// The member's intersection count with each pivot position, on the
    /// attribute being decided; zero between attributes.
    counts: Vec<u32>,
    /// The member's decision against each class, on the ontology predicate
    /// being decided.
    classes: Vec<bool>,
    /// Per pivot position, whether every set and ontology predicate holds.
    passed: Vec<bool>,
}

impl PivotScan<'_, '_> {
    /// Makes `e` the member that [`Self::holds`] decides pairs for. Per
    /// attribute carrying a set predicate, one counter pass over the
    /// postings of `e`'s tokens gives its intersection count with every
    /// pivot position, and each of the attribute's predicates is decided
    /// for every position; per ontology predicate, each class is decided
    /// once. Costs `O(pivot + postings walked)`; a member after a
    /// partition's first is only loaded when the one before it satisfied
    /// no pair, that is after `pivot` evaluations.
    pub(crate) fn load(&mut self, e: usize) {
        let Self { pivot: pc, member, counts, classes, passed } = self;
        let (arena, polarity) = (pc.arena, pc.rule.polarity);
        *member = e;
        passed.fill(true);
        for post in &pc.postings {
            let tokens = arena.tokens_of(e, post.attr);
            for &t in tokens {
                for &j in post.positions.row(t as usize) {
                    counts[j as usize] += 1;
                }
            }
            for pred in &post.preds {
                for ((pass, &inter), &lb) in passed.iter_mut().zip(&*counts).zip(&post.lens) {
                    let value =
                        set_similarity(pred.func, inter as usize, tokens.len(), lb as usize);
                    *pass &= pred.holds(value, polarity);
                }
            }
            counts.fill(0);
        }
        for o in &pc.ontologies {
            classes.clear();
            classes.extend(o.rep.iter().map(|&r| arena.eval_pred(o.pred, polarity, e, r)));
            for (pass, &c) in passed.iter_mut().zip(&o.class) {
                *pass &= classes[c as usize];
            }
        }
    }

    /// Whether the rule holds on the loaded member and pivot position `j`;
    /// the same boolean as `eval_compiled(member, pivot[j])`.
    pub(crate) fn holds(&self, j: usize) -> bool {
        let pc = self.pivot;
        self.passed[j] && pc.arena.eval_edits(pc.rule, self.member, pc.pivot[j])
    }
}

/// A [`Rule`] pre-lowered against one [`VerifyArena`] by
/// [`VerifyArena::compile`]: set/ontology predicates first, then edit
/// predicates with tabulated cutoffs and per-entity bags. Owns only plain
/// data, so shared references are `Sync` and one compiled rule serves
/// every parallel verify shard.
pub(crate) struct CompiledRule {
    polarity: Polarity,
    /// Set and ontology predicates, in authored order.
    sets: Vec<Predicate>,
    /// Edit predicates, in authored order.
    edits: Vec<CompiledEdit>,
}

impl CompiledRule {
    /// Takes the arena's entity `eid`, its last: each edit predicate gets
    /// its bag, and an `edit_sim` cutoff table grows to its char count.
    pub(crate) fn push(&mut self, arena: &VerifyArena, eid: usize) {
        let polarity = self.polarity;
        for e in &mut self.edits {
            let slot = eid * arena.attrs + e.pred.attr;
            debug_assert_eq!(e.hist.len(), eid, "compiled rule out of step with arena");
            e.hist.push(char_histogram(slice(&arena.chars, arena.char_span[slot]).iter().copied()));
            if let EditChecks::ByMax(table) = &mut e.checks {
                let p = e.pred;
                for m in table.len()..=arena.char_len[slot] as usize {
                    table.push(match m {
                        // Two empty strings: similarity 1 by definition.
                        0 if p.holds(1.0, polarity) => EditCheck::Always,
                        0 => EditCheck::Never,
                        _ => edit_similarity_check(p.threshold, polarity, m),
                    });
                }
            }
        }
    }

    /// Drops entity `eid`'s bags, compacting ids like [`VerifyArena::remove`].
    pub(crate) fn remove(&mut self, eid: usize) {
        for e in &mut self.edits {
            e.hist.remove(eid);
        }
    }
}

/// One edit predicate lowered for the verify loop.
struct CompiledEdit {
    pred: Predicate,
    checks: EditChecks,
    /// The bag of the predicate's attribute, per entity id.
    hist: Vec<CharHistogram>,
}

impl CompiledEdit {
    /// The pair's exact cutoff; `char_len` is the arena's, by slot.
    #[inline]
    fn pair_check(&self, char_len: &[u32], sa: usize, sb: usize) -> EditCheck {
        match &self.checks {
            EditChecks::Fixed(check) => *check,
            EditChecks::ByMax(table) => table[char_len[sa].max(char_len[sb]) as usize],
        }
    }
}

/// Precomputed [`EditCheck`] cutoffs for one edit predicate.
enum EditChecks {
    /// `EditDistance`: the cutoff is pair-independent.
    Fixed(EditCheck),
    /// `EditSimilarity`: cutoff indexed by the pair's larger char count,
    /// covering `0..=max(char_len)` over the entities pushed so far.
    ByMax(Vec<EditCheck>),
}

/// Removes `slots` from `spans`, shifts the spans after them down by the
/// length they covered, and returns the buffer range they covered for the
/// caller to drain. Every span starts where the buffer ended when its
/// value was pushed, so one entity's values are one contiguous range.
fn cut(spans: &mut Vec<Span>, slots: std::ops::Range<usize>) -> std::ops::Range<usize> {
    let at = slots.start;
    let (start, _) = spans[at];
    let len: u32 = spans.drain(slots).map(|s| s.1).sum();
    spans[at..].iter_mut().for_each(|s| s.0 -= len);
    start as usize..(start + len) as usize
}

/// The `settled` mask bit of edit predicate `i`; predicates past the 64th
/// get none, so they always run their kernel.
#[inline]
fn bound_bit(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(0)
}

/// Whether a sorted token set is worth a bitset representation.
fn is_dense(tokens: &[TokenId]) -> bool {
    if tokens.len() < DENSE_MIN_TOKENS {
        return false;
    }
    let mut blocks = 0usize;
    let mut prev = TokenId::MAX;
    for &t in tokens {
        let key = t >> 6;
        if key != prev || blocks == 0 {
            blocks += 1;
            prev = key;
        }
    }
    tokens.len() >= DENSE_IDS_PER_BLOCK * blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{GroupBuilder, Schema};
    use crate::rule::tests::{figure1_group, paper_rules};
    use dime_text::TokenizerKind;
    use proptest::prelude::*;

    /// Every similarity function over one schema, both polarities, across a
    /// threshold sweep — the arena must agree with the scalar path on all.
    fn all_function_rules() -> Vec<Rule> {
        let mut rules = Vec::new();
        for func in [
            SimilarityFn::Overlap,
            SimilarityFn::Jaccard,
            SimilarityFn::Dice,
            SimilarityFn::Cosine,
            SimilarityFn::EditSimilarity,
            SimilarityFn::EditDistance,
            SimilarityFn::Ontology,
        ] {
            for attr in 0..3 {
                for t in [0.0, 0.25, 0.5, 0.75, 1.0, 2.0] {
                    rules.push(Rule::positive(vec![Predicate::new(attr, func, t)]));
                    rules.push(Rule::negative(vec![Predicate::new(attr, func, t)]));
                }
            }
        }
        rules
    }

    #[test]
    fn arena_matches_scalar_on_paper_example() {
        let g = figure1_group();
        let arena = VerifyArena::new(&g);
        let mut rules = all_function_rules();
        let (pos, neg) = paper_rules();
        rules.extend(pos);
        rules.extend(neg);
        for rule in &rules {
            let compiled = arena.compile(rule);
            for a in 0..g.len() {
                for b in 0..g.len() {
                    let (ea, eb) = (g.entity(a), g.entity(b));
                    assert_eq!(
                        arena.eval_compiled(&compiled, a, b),
                        rule.eval(&g, ea, eb),
                        "compiled eval diverged: {rule} on ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn arena_handles_unicode_and_empty_values() {
        let schema =
            Schema::new([("Name", TokenizerKind::Words), ("Tags", TokenizerKind::List(','))]);
        let mut gb = GroupBuilder::new(schema);
        gb.add_entity(&["özsu tamer", "a, b, c"]);
        gb.add_entity(&["ozsu tamer", ""]);
        gb.add_entity(&["", "a, c, d, e"]);
        gb.add_entity(&["ñandú", "b"]);
        let g = gb.build();
        let arena = VerifyArena::new(&g);
        for func in [
            SimilarityFn::Overlap,
            SimilarityFn::Jaccard,
            SimilarityFn::EditSimilarity,
            SimilarityFn::EditDistance,
        ] {
            for attr in 0..2 {
                for t in [0.0, 0.4, 0.75, 1.0, 2.0] {
                    for polarity in [Polarity::Positive, Polarity::Negative] {
                        let p = Predicate::new(attr, func, t);
                        let rule = Rule { predicates: vec![p], polarity };
                        let compiled = arena.compile(&rule);
                        for a in 0..g.len() {
                            for b in 0..g.len() {
                                assert_eq!(
                                    arena.eval_compiled(&compiled, a, b),
                                    rule.eval(&g, g.entity(a), g.entity(b)),
                                    "compiled {func:?} θ={t} {polarity:?} on ({a}, {b})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_sets_take_the_bitset_path() {
        // 64 consecutive token ids → 1-2 blocks, far above the density bar.
        let dense: Vec<TokenId> = (0..64).collect();
        assert!(is_dense(&dense));
        // 8 widely-spread ids → 8 blocks, 1 id per block.
        let sparse: Vec<TokenId> = (0..8).map(|i| i * 1000).collect();
        assert!(!is_dense(&sparse));
        assert!(!is_dense(&[1, 2, 3]));
    }

    #[test]
    fn compiled_rules_reorder_but_agree() {
        let g = figure1_group();
        let arena = VerifyArena::new(&g);
        // Edit predicate authored first: the compiled form runs the set
        // predicate first and must still decide the same conjunction.
        for polarity in [Polarity::Positive, Polarity::Negative] {
            let rule = Rule {
                predicates: vec![
                    Predicate::new(0, SimilarityFn::EditSimilarity, 0.8),
                    Predicate::new(1, SimilarityFn::Jaccard, 0.5),
                ],
                polarity,
            };
            let compiled = arena.compile(&rule);
            for a in 0..g.len() {
                for b in 0..g.len() {
                    assert_eq!(
                        arena.eval_compiled(&compiled, a, b),
                        rule.eval(&g, g.entity(a), g.entity(b)),
                        "compiled reorder diverged: {rule} on ({a}, {b})"
                    );
                }
            }
        }
    }

    /// Checks `eval_compiled ≡ Rule::eval` for
    /// `rule` on every ordered pair of `g`, and tallies what the
    /// bag-distance pass decided: `[refuted, settled, left open]` pairs.
    fn check_rule_on_all_pairs(g: &Group, arena: &VerifyArena, rule: &Rule) -> [usize; 3] {
        let compiled = arena.compile(rule);
        let mut outcomes = [0usize; 3];
        for a in 0..g.len() {
            for b in 0..g.len() {
                let (ea, eb) = (g.entity(a), g.entity(b));
                let scalar = rule.eval(g, ea, eb);
                assert_eq!(
                    arena.eval_compiled(&compiled, a, b),
                    scalar,
                    "compiled eval: {rule} on ({a}, {b})"
                );
                match arena.edit_bounds(&compiled, a, b) {
                    None => outcomes[0] += 1,
                    Some(0) => outcomes[2] += 1,
                    Some(_) => outcomes[1] += 1,
                }
            }
        }
        outcomes
    }

    /// The edit predicates over `names`: distances 0..=6 and similarities
    /// 0.3..=0.95, both polarities.
    fn edit_rules() -> Vec<Rule> {
        let mut rules = Vec::new();
        let distances = (0..=6).map(|k| (SimilarityFn::EditDistance, f64::from(k)));
        let sims = [0.3, 0.5, 0.65, 0.8, 0.95].map(|t| (SimilarityFn::EditSimilarity, t));
        for (func, t) in distances.chain(sims) {
            for polarity in [Polarity::Positive, Polarity::Negative] {
                rules.push(Rule { predicates: vec![Predicate::new(0, func, t)], polarity });
            }
        }
        rules
    }

    /// The bound must both fire (refute or settle a pair without Myers)
    /// and pass (leave a pair to the kernel) on a fixed name set, with
    /// every outcome agreeing with the scalar path. Names mix
    /// bucket-colliding chars (`a`/`A`/`!`), non-ASCII text and empties.
    #[test]
    fn bag_bound_fires_and_passes() {
        // The leading comma makes the first name empty.
        let names = ",kitten,sitting,kitchen,aA!,!!a,özsu,ozsu,abcd,dcba,aaaaaaaa,database,\
            databases,tang nan,nan tang"
            .split(',');
        let schema = Schema::new([("Name", TokenizerKind::Whole)]);
        let mut gb = GroupBuilder::new(schema);
        for name in names {
            gb.add_entity(&[name]);
        }
        let g = gb.build();
        let arena = VerifyArena::new(&g);
        let mut total = [0usize; 3];
        for rule in edit_rules() {
            let got = check_rule_on_all_pairs(&g, &arena, &rule);
            total = [0, 1, 2].map(|i| total[i] + got[i]);
        }
        let [refuted, settled, open] = total;
        assert!(refuted > 0 && settled > 0 && open > 0, "bound outcomes {total:?}");
    }

    /// The rules the counted decision is checked on, at fractional
    /// threshold `t`: every set function on both token attributes at
    /// `σ = 0`, `t`, `1`, `1 + t` and `-t`, then ontology predicates, edit
    /// predicates on short names (wildcard signatures) and two-attribute
    /// conjunctions. Each comes in both polarities.
    fn counted_rules(t: f64) -> Vec<Rule> {
        use SimilarityFn::*;
        let mut conjunctions: Vec<Vec<Predicate>> = Vec::new();
        for func in [Overlap, Jaccard, Dice, Cosine] {
            for attr in 0..2 {
                for threshold in [0.0, t, 1.0, 1.0 + t, -t] {
                    conjunctions.push(vec![Predicate::new(attr, func, threshold)]);
                }
            }
        }
        conjunctions.extend([
            vec![Predicate::new(2, Ontology, t)],
            vec![Predicate::new(1, Overlap, 1.0), Predicate::new(2, Ontology, 0.25)],
            vec![Predicate::new(0, Jaccard, t), Predicate::new(1, Overlap, 0.0)],
            vec![Predicate::new(0, EditSimilarity, t), Predicate::new(1, Dice, t)],
            vec![
                Predicate::new(0, EditDistance, 2.0),
                Predicate::new(1, Cosine, t),
                Predicate::new(2, Ontology, 0.5),
            ],
            vec![Predicate::new(0, EditSimilarity, -t), Predicate::new(0, Overlap, 1.0)],
        ]);
        let mut rules = Vec::new();
        for predicates in conjunctions {
            rules.push(Rule::positive(predicates.clone()));
            rules.push(Rule::negative(predicates));
        }
        rules
    }

    proptest! {
        /// The counted decision ([`PivotScan::holds`]) against
        /// [`VerifyArena::eval_compiled`] on every (member, pivot) pair,
        /// members loaded one after another into the same scan.
        #[test]
        fn prop_counted_matches_compiled(
            names in proptest::collection::vec("[a-c ]{0,4}", 1..12),
            tags in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..5), 12),
            venues in proptest::collection::vec(0usize..14, 12),
            in_pivot in proptest::collection::vec(proptest::bool::ANY, 12),
            t in 0.05f64..0.95,
        ) {
            let n = names.len();
            let g = crate::dime_plus::tests::ontology_group(&tags[..n], &names, &venues[..n]);
            let arena = VerifyArena::new(&g);
            let pivot: Vec<usize> = (0..n).filter(|&e| in_pivot[e]).collect();
            for rule in counted_rules(t) {
                let compiled = arena.compile(&rule);
                let counted = arena.pivot_counts(&compiled, &pivot);
                let mut scan = counted.scan();
                for e in 0..n {
                    scan.load(e);
                    for (j, &p) in pivot.iter().enumerate() {
                        prop_assert_eq!(
                            scan.holds(j),
                            arena.eval_compiled(&compiled, e, p),
                            "{} on ({}, {})", rule, e, p
                        );
                    }
                }
            }
        }

        /// Every set function at `t`, and the edit functions at `t` plus
        /// the thresholds where the bag bound both fires and passes
        /// (distances 0..=6, similarities 0.3..0.95), in both polarities.
        #[test]
        fn prop_arena_matches_scalar(
            names in proptest::collection::vec("[a-eA!ö ]{0,12}", 2..8),
            tags in proptest::collection::vec(
                proptest::collection::vec(0u32..200, 0..40), 8),
            t in 0.0f64..2.0,
            k in 0.0f64..6.5,
            sim in 0.3f64..0.95,
        ) {
            let schema = Schema::new([
                ("Name", TokenizerKind::Words),
                ("Tags", TokenizerKind::List(',')),
            ]);
            let mut gb = GroupBuilder::new(schema);
            for (name, tag_ids) in names.iter().zip(&tags) {
                let joined: Vec<String> = tag_ids.iter().map(|x| format!("t{x}")).collect();
                gb.add_entity(&[name.as_str(), joined.join(", ").as_str()]);
            }
            let g = gb.build();
            let arena = VerifyArena::new(&g);
            let cases = [
                (SimilarityFn::Overlap, t),
                (SimilarityFn::Jaccard, t),
                (SimilarityFn::Dice, t),
                (SimilarityFn::Cosine, t),
                (SimilarityFn::EditSimilarity, t),
                (SimilarityFn::EditSimilarity, sim),
                (SimilarityFn::EditDistance, t),
                (SimilarityFn::EditDistance, k),
            ];
            for (func, threshold) in cases {
                for attr in 0..2 {
                    for polarity in [Polarity::Positive, Polarity::Negative] {
                        let rule = Rule {
                            predicates: vec![Predicate::new(attr, func, threshold)],
                            polarity,
                        };
                        check_rule_on_all_pairs(&g, &arena, &rule);
                    }
                }
            }
            // A two-edit conjunction: the settled mask must track each
            // predicate separately.
            for polarity in [Polarity::Positive, Polarity::Negative] {
                let rule = Rule {
                    predicates: vec![
                        Predicate::new(0, SimilarityFn::EditDistance, k),
                        Predicate::new(1, SimilarityFn::Jaccard, t / 2.0),
                        Predicate::new(0, SimilarityFn::EditSimilarity, sim),
                    ],
                    polarity,
                };
                check_rule_on_all_pairs(&g, &arena, &rule);
            }
        }
    }
}
