//! Positive and negative rules (paper Section II).
//!
//! A rule is a conjunction of predicates `fᵢ(Aᵢ) ⊙ tᵢ` where `fᵢ` is a
//! similarity function over an attribute and `tᵢ` a threshold. The
//! comparison direction `⊙` follows the rule's *polarity*:
//!
//! * a **positive** rule holds when every predicate attests *similarity*
//!   (`f ≥ θ`, or `distance ≤ θ` for [`SimilarityFn::EditDistance`]);
//! * a **negative** rule holds when every predicate attests
//!   *dissimilarity* (`f ≤ σ`, or `distance ≥ σ`).
//!
//! A rule returning `false` means "don't know", never "the opposite holds".

use crate::entity::{Entity, Group};
use dime_ontology::ontology_similarity_opt;
use dime_text::{
    cosine, dice, edit_distance, edit_distance_leq, edit_similarity, jaccard, overlap,
};
use std::fmt;

/// An edit predicate's threshold comparison collapsed to an exact integer
/// bound on the distance.
///
/// `holds(similarity(a, b))` for [`SimilarityFn::EditDistance`] /
/// [`SimilarityFn::EditSimilarity`] is a monotone function of the integer
/// distance `d`, so the f64 comparison can be pre-solved into one of these
/// forms and then decided by the *bounded* kernel
/// ([`dime_text::edit_distance_leq`]) without ever computing the full
/// distance. The cutoffs are derived guess-then-adjust against the exact
/// floating-point comparison, so the resulting boolean is bit-identical to
/// the unbounded evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EditCheck {
    /// The predicate holds for every achievable distance.
    Always,
    /// The predicate holds for no achievable distance.
    Never,
    /// Holds iff `d ≤ k`.
    AtMost(usize),
    /// Holds iff `d ≥ k`.
    AtLeast(usize),
}

impl EditCheck {
    /// Decides the check on raw strings with the bounded kernel: `O(k·min)`
    /// work instead of the full `O(n·m)` distance.
    pub(crate) fn eval_str(self, a: &str, b: &str) -> bool {
        match self {
            EditCheck::Always => true,
            EditCheck::Never => false,
            EditCheck::AtMost(k) => edit_distance_leq(a, b, k).is_some(),
            EditCheck::AtLeast(k) => k == 0 || edit_distance_leq(a, b, k - 1).is_none(),
        }
    }
}

/// Solves `holds(d as f64)` for an [`SimilarityFn::EditDistance`] predicate
/// into an exact [`EditCheck`].
pub(crate) fn edit_distance_check(threshold: f64, polarity: Polarity) -> EditCheck {
    // The exact comparison `Predicate::holds` performs on the raw distance
    // (EditDistance is the lower-is-similar function).
    let pred = |d: usize| match polarity {
        Polarity::Positive => (d as f64) <= threshold,
        Polarity::Negative => (d as f64) >= threshold,
    };
    let to_k = |g: f64| {
        if g >= usize::MAX as f64 {
            usize::MAX
        } else {
            g.max(0.0) as usize
        }
    };
    match polarity {
        Polarity::Positive => {
            // pred is non-increasing in d: find the largest d that holds.
            if !pred(0) {
                return EditCheck::Never; // threshold < 0 or NaN
            }
            let mut k = to_k(threshold.floor());
            while k < usize::MAX && pred(k + 1) {
                k += 1;
            }
            while k > 0 && !pred(k) {
                k -= 1;
            }
            EditCheck::AtMost(k)
        }
        Polarity::Negative => {
            // pred is non-decreasing in d: find the smallest d that holds.
            if pred(0) {
                return EditCheck::Always; // threshold ≤ 0
            }
            if threshold.is_nan() {
                return EditCheck::Never;
            }
            let mut k = to_k(threshold.ceil()).max(1);
            while k > 1 && pred(k - 1) {
                k -= 1;
            }
            while k < usize::MAX && !pred(k) {
                k += 1;
            }
            EditCheck::AtLeast(k)
        }
    }
}

/// Solves `holds(1 − d/max_len)` for an [`SimilarityFn::EditSimilarity`]
/// predicate into an exact [`EditCheck`]. `max_len` is the larger char
/// count of the pair and must be non-zero (the caller special-cases two
/// empty strings, whose similarity is defined as 1).
pub(crate) fn edit_similarity_check(
    threshold: f64,
    polarity: Polarity,
    max_len: usize,
) -> EditCheck {
    debug_assert!(max_len > 0);
    // The exact f64 the scalar path computes for distance d, and the exact
    // comparison `Predicate::holds` applies to it. d ranges over 0..=max_len.
    let sim = |d: usize| 1.0 - d as f64 / max_len as f64;
    let pred = |d: usize| match polarity {
        Polarity::Positive => sim(d) >= threshold,
        Polarity::Negative => sim(d) <= threshold,
    };
    match polarity {
        Polarity::Positive => {
            // sim is non-increasing in d, so pred is too.
            if !pred(0) {
                return EditCheck::Never;
            }
            if pred(max_len) {
                return EditCheck::Always;
            }
            let guess = ((1.0 - threshold) * max_len as f64).floor();
            let mut k = (guess.max(0.0) as usize).min(max_len);
            while k < max_len && pred(k + 1) {
                k += 1;
            }
            while k > 0 && !pred(k) {
                k -= 1;
            }
            EditCheck::AtMost(k)
        }
        Polarity::Negative => {
            // pred is non-decreasing in d.
            if pred(0) {
                return EditCheck::Always;
            }
            if !pred(max_len) {
                return EditCheck::Never;
            }
            let guess = ((1.0 - threshold) * max_len as f64).ceil();
            let mut k = (guess.max(1.0) as usize).min(max_len);
            while k > 1 && pred(k - 1) {
                k -= 1;
            }
            while k < max_len && !pred(k) {
                k += 1;
            }
            EditCheck::AtLeast(k)
        }
    }
}

/// The similarity functions DIME's predicates may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimilarityFn {
    /// `|a ∩ b|` over token sets (`f_ov` in the paper).
    Overlap,
    /// Jaccard over token sets (`f_j`).
    Jaccard,
    /// Dice coefficient over token sets.
    Dice,
    /// Cosine over binary token vectors.
    Cosine,
    /// Normalized edit similarity `1 − d/max(len)` over raw text.
    EditSimilarity,
    /// Raw Levenshtein distance over text — **lower is more similar**.
    EditDistance,
    /// Ontology similarity `2|LCA|/(|n|+|n′|)` (`f_on`).
    Ontology,
}

impl SimilarityFn {
    /// Whether larger values mean "more similar" (false only for
    /// [`SimilarityFn::EditDistance`]).
    pub fn higher_is_similar(self) -> bool {
        !matches!(self, SimilarityFn::EditDistance)
    }

    /// Short display name matching the paper's notation.
    pub fn symbol(self) -> &'static str {
        match self {
            SimilarityFn::Overlap => "f_ov",
            SimilarityFn::Jaccard => "f_j",
            SimilarityFn::Dice => "f_dice",
            SimilarityFn::Cosine => "f_cos",
            SimilarityFn::EditSimilarity => "f_es",
            SimilarityFn::EditDistance => "f_ed",
            SimilarityFn::Ontology => "f_on",
        }
    }
}

/// Whether a rule asserts similarity or dissimilarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// "Similar ⇒ same category" (`ϕ⁺`).
    Positive,
    /// "Dissimilar ⇒ different category" (`φ⁻`).
    Negative,
}

/// One predicate `f(A) ⊙ threshold` of a rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Index of the attribute in the group's schema.
    pub attr: usize,
    /// The similarity function applied to that attribute.
    pub func: SimilarityFn,
    /// The threshold (θ for positive rules, σ for negative rules).
    pub threshold: f64,
}

impl Predicate {
    /// Convenience constructor.
    pub fn new(attr: usize, func: SimilarityFn, threshold: f64) -> Self {
        Self { attr, func, threshold }
    }

    /// Computes the raw similarity (or distance) of this predicate's
    /// function on the two entities' values of this attribute.
    pub fn similarity(&self, group: &Group, a: &Entity, b: &Entity) -> f64 {
        let va = a.value(self.attr);
        let vb = b.value(self.attr);
        match self.func {
            SimilarityFn::Overlap => overlap(&va.tokens, &vb.tokens),
            SimilarityFn::Jaccard => jaccard(&va.tokens, &vb.tokens),
            SimilarityFn::Dice => dice(&va.tokens, &vb.tokens),
            SimilarityFn::Cosine => cosine(&va.tokens, &vb.tokens),
            SimilarityFn::EditSimilarity => edit_similarity(&va.text, &vb.text),
            SimilarityFn::EditDistance => edit_distance(&va.text, &vb.text) as f64,
            SimilarityFn::Ontology => match group.ontology(self.attr) {
                Some(ont) => ontology_similarity_opt(ont, va.node, vb.node),
                None => 0.0,
            },
        }
    }

    /// Whether the computed `value` satisfies this predicate under the given
    /// polarity (see the module docs for the direction table).
    pub fn holds(&self, value: f64, polarity: Polarity) -> bool {
        match (polarity, self.func.higher_is_similar()) {
            (Polarity::Positive, true) => value >= self.threshold,
            (Polarity::Positive, false) => value <= self.threshold,
            (Polarity::Negative, true) => value <= self.threshold,
            (Polarity::Negative, false) => value >= self.threshold,
        }
    }

    /// Evaluates the predicate on an entity pair.
    ///
    /// Edit predicates never compute the full distance here: the threshold
    /// comparison is collapsed to an exact integer bound ([`EditCheck`])
    /// and decided by the bounded kernel, so an adversarially long pair
    /// costs `O(θ·min)` instead of `O(n·m)` while the boolean stays
    /// identical to `holds(similarity(..))`.
    pub fn eval(&self, group: &Group, a: &Entity, b: &Entity, polarity: Polarity) -> bool {
        match self.func {
            SimilarityFn::EditDistance => {
                let (va, vb) = (a.value(self.attr), b.value(self.attr));
                edit_distance_check(self.threshold, polarity).eval_str(&va.text, &vb.text)
            }
            SimilarityFn::EditSimilarity => {
                let (va, vb) = (a.value(self.attr), b.value(self.attr));
                let max = va.char_len.max(vb.char_len) as usize;
                if max == 0 {
                    return self.holds(1.0, polarity);
                }
                edit_similarity_check(self.threshold, polarity, max).eval_str(&va.text, &vb.text)
            }
            _ => self.holds(self.similarity(group, a, b), polarity),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(A{}) ? {}", self.func.symbol(), self.attr, self.threshold)
    }
}

/// A conjunction of predicates with a polarity.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The conjunction; must be non-empty for a meaningful rule.
    pub predicates: Vec<Predicate>,
    /// Positive (`ϕ⁺`) or negative (`φ⁻`).
    pub polarity: Polarity,
}

impl Rule {
    /// Builds a positive rule from predicates.
    pub fn positive(predicates: Vec<Predicate>) -> Self {
        Self { predicates, polarity: Polarity::Positive }
    }

    /// Builds a negative rule from predicates.
    pub fn negative(predicates: Vec<Predicate>) -> Self {
        Self { predicates, polarity: Polarity::Negative }
    }

    /// Evaluates the conjunction on a pair of entities.
    ///
    /// Returns `true` when **all** predicates hold; `false` means
    /// "don't know".
    pub fn eval(&self, group: &Group, a: &Entity, b: &Entity) -> bool {
        self.predicates.iter().all(|p| p.eval(group, a, b, self.polarity))
    }

    /// Renders the rule in the textual DSL accepted by
    /// [`crate::parse_rule`], resolving attribute indices to names through
    /// `schema`. Round-trips: `parse_rule(&r.to_dsl(s), s) == r`.
    ///
    /// # Panics
    ///
    /// Panics if a predicate references an attribute outside the schema.
    pub fn to_dsl(&self, schema: &crate::entity::Schema) -> String {
        let polarity = match self.polarity {
            Polarity::Positive => "positive",
            Polarity::Negative => "negative",
        };
        let clauses: Vec<String> = self
            .predicates
            .iter()
            .map(|p| {
                let func = match p.func {
                    SimilarityFn::Overlap => "overlap",
                    SimilarityFn::Jaccard => "jaccard",
                    SimilarityFn::Dice => "dice",
                    SimilarityFn::Cosine => "cosine",
                    SimilarityFn::EditSimilarity => "edit_sim",
                    SimilarityFn::EditDistance => "edit_dist",
                    SimilarityFn::Ontology => "ontology",
                };
                let name = &schema.attrs()[p.attr].name;
                let op = match (self.polarity, p.func.higher_is_similar()) {
                    (Polarity::Positive, true) | (Polarity::Negative, false) => ">=",
                    _ => "<=",
                };
                format!("{func}({name}) {op} {}", p.threshold)
            })
            .collect();
        format!("{polarity}: {}", clauses.join(" and "))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match (self.polarity, true) {
            (Polarity::Positive, _) => "≥",
            (Polarity::Negative, _) => "≤",
        };
        let parts: Vec<String> = self
            .predicates
            .iter()
            .map(|p| {
                let op = if p.func.higher_is_similar() {
                    op
                } else if self.polarity == Polarity::Positive {
                    "≤"
                } else {
                    "≥"
                };
                format!("{}(A{}) {} {}", p.func.symbol(), p.attr, op, p.threshold)
            })
            .collect();
        let sign = match self.polarity {
            Polarity::Positive => "ϕ+",
            Polarity::Negative => "φ-",
        };
        write!(f, "{}: {}", sign, parts.join(" ∧ "))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::entity::{GroupBuilder, Schema};
    use dime_ontology::Ontology;
    use dime_text::TokenizerKind;
    use std::sync::Arc;

    /// Builds the six Google Scholar entities of paper Figure 1.
    pub(crate) fn figure1_group() -> Group {
        let schema = Schema::new([
            ("Title", TokenizerKind::Words),
            ("Authors", TokenizerKind::List(',')),
            ("Venue", TokenizerKind::Words),
        ]);
        let mut venues = Ontology::new("venue");
        venues.add_path(&["computer science", "system", "icpads"]);
        for v in ["sigmod", "vldb", "icde"] {
            venues.add_path(&["computer science", "database", v]);
        }
        venues.add_path(&["computer science", "information retrieval", "sigir"]);
        venues.add_path(&["chemical sciences", "chemical sciences (general)", "rsc advances"]);
        let mut b = GroupBuilder::new(schema);
        b.attach_ontology("Venue", Arc::new(venues));
        b.add_entity(&[
            "Win: an efficient data placement strategy for parallel xml databases",
            "Nan Tang, Guoren Wang, Jeffrey Xu Yu",
            "ICPADS 2005",
        ]);
        b.add_entity(&[
            "KATARA: A data cleaning system powered by knowledge bases and crowdsourcing",
            "Xu Chu, John Morcos, Ihab F. Ilyas, Mourad Ouzzani, Paolo Papotti, Nan Tang",
            "SIGMOD 2015",
        ]);
        b.add_entity(&[
            "NADEEF: A generalized data cleaning system",
            "Amr Ebaid, Ahmed Elmagarmid, Ihab F. Ilyas, Nan Tang",
            "VLDB 2013",
        ]);
        b.add_entity(&[
            "Hierarchical indexing approach to support xpath queries",
            "Nan Tang, Jeffrey Xu Yu, M. Tamer Ozsu, Kam-Fai Wong",
            "ICDE 2008",
        ]);
        b.add_entity(&[
            "Discriminative bi-term topic model for social news clustering",
            "Yunqing Xia, NJ Tang, Amir Hussain, Erik Cambria",
            "SIGIR 2005",
        ]);
        b.add_entity(&[
            "Extractive and oxidative desulfurization of model oil in polyethylene glycol",
            "Jianlong Wang, Rijie Zhao, Baixin Han, Nan Tang, Kaixi Li",
            "RSC Advances 1905",
        ]);
        b.build()
    }

    /// The paper's running rules over `figure1_group` (attr 1 = Authors,
    /// attr 2 = Venue).
    pub(crate) fn paper_rules() -> (Vec<Rule>, Vec<Rule>) {
        let pos = vec![
            Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)]),
            Rule::positive(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(2, SimilarityFn::Ontology, 0.75),
            ]),
        ];
        let neg = vec![
            Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)]),
            Rule::negative(vec![
                Predicate::new(1, SimilarityFn::Overlap, 1.0),
                Predicate::new(2, SimilarityFn::Ontology, 0.25),
            ]),
        ];
        (pos, neg)
    }

    #[test]
    fn example_2_rule_evaluations() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let e = |i: usize| g.entity(i);
        // KATARA (id 1) and NADEEF (id 2) share two authors (Ihab F. Ilyas
        // and Nan Tang) — ϕ1+ holds.
        assert!(pos[0].eval(&g, e(1), e(2)));
        // Win/ICPADS (id 0) and KATARA/SIGMOD (id 1): share only Nan Tang;
        // ontology sim of icpads vs sigmod is 2·2/(4+4) = 0.5 < 0.75 → ϕ2+
        // fails (they still connect transitively through id 3).
        assert!(!pos[1].eval(&g, e(0), e(1)));
        // KATARA/SIGMOD (id 1) vs Hierarchical/ICDE (id 3): share Nan Tang,
        // venues both under Database → 0.75 → ϕ2+ holds (paper Example 2).
        assert!(pos[1].eval(&g, e(1), e(3)));
        // id 4 (Discriminative, "NJ Tang") has no overlapping author with
        // id 1 → φ1- holds.
        assert!(neg[0].eval(&g, e(4), e(1)));
        // id 5 (chemistry paper) shares exactly one author with id 1 and its
        // venue RSC Advances (depth 4, field Chemical Sciences) has ontology
        // similarity 2·1/(4+4) = 0.25 ≤ 0.25 with SIGMOD → φ2- holds.
        assert!(neg[1].eval(&g, e(5), e(1)));
        // But φ1- does not: overlap is 1, not 0.
        assert!(!neg[0].eval(&g, e(5), e(1)));
    }

    #[test]
    fn edit_distance_polarity_is_inverted() {
        let p = Predicate::new(0, SimilarityFn::EditDistance, 2.0);
        assert!(p.holds(1.0, Polarity::Positive)); // d=1 ≤ 2 → similar
        assert!(!p.holds(3.0, Polarity::Positive));
        assert!(p.holds(3.0, Polarity::Negative)); // d=3 ≥ 2 → dissimilar
        assert!(!p.holds(1.0, Polarity::Negative));
    }

    #[test]
    fn missing_ontology_means_zero_similarity() {
        let g = figure1_group();
        // Attribute 0 (Title) has no ontology: similarity must be 0.
        let p = Predicate::new(0, SimilarityFn::Ontology, 0.5);
        let s = p.similarity(&g, g.entity(0), g.entity(1));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn rule_display_formats_directions() {
        let (pos, neg) = paper_rules();
        let s = format!("{}", pos[1]);
        assert!(s.contains("≥"), "{s}");
        let s = format!("{}", neg[1]);
        assert!(s.contains("≤"), "{s}");
    }

    #[test]
    fn edit_checks_solve_exact_cutoffs() {
        assert_eq!(edit_distance_check(2.0, Polarity::Positive), EditCheck::AtMost(2));
        assert_eq!(edit_distance_check(2.5, Polarity::Positive), EditCheck::AtMost(2));
        assert_eq!(edit_distance_check(-0.5, Polarity::Positive), EditCheck::Never);
        assert_eq!(edit_distance_check(f64::NAN, Polarity::Positive), EditCheck::Never);
        assert_eq!(edit_distance_check(0.0, Polarity::Negative), EditCheck::Always);
        assert_eq!(edit_distance_check(2.0, Polarity::Negative), EditCheck::AtLeast(2));
        assert_eq!(edit_distance_check(2.5, Polarity::Negative), EditCheck::AtLeast(3));
        assert_eq!(edit_distance_check(f64::NAN, Polarity::Negative), EditCheck::Never);
        // sim = 1 − d/8: `≥ 0.75` holds iff d ≤ 2, `≤ 0.75` iff d ≥ 2.
        assert_eq!(edit_similarity_check(0.75, Polarity::Positive, 8), EditCheck::AtMost(2));
        assert_eq!(edit_similarity_check(0.75, Polarity::Negative, 8), EditCheck::AtLeast(2));
        assert_eq!(edit_similarity_check(0.0, Polarity::Positive, 8), EditCheck::Always);
        assert_eq!(edit_similarity_check(1.0, Polarity::Negative, 8), EditCheck::Always);
        assert_eq!(edit_similarity_check(0.999, Polarity::Negative, 8), EditCheck::AtLeast(1));
        assert_eq!(edit_similarity_check(1.5, Polarity::Positive, 8), EditCheck::Never);
    }

    #[test]
    fn bounded_edit_eval_matches_unbounded_holds() {
        let schema = Schema::new([("Name", TokenizerKind::Words)]);
        let texts = ["", "a", "ab", "abc", "abcd", "ozsu", "özsu", "nan tang", "n j tang"];
        let mut gb = GroupBuilder::new(schema);
        for t in texts {
            gb.add_entity(&[t]);
        }
        let g = gb.build();
        let thresholds =
            [-1.0, 0.0, 0.2, 0.25, 0.4, 0.5, 0.75, 0.875, 1.0, 1.5, 2.0, 3.0, 8.0, f64::NAN];
        for func in [SimilarityFn::EditDistance, SimilarityFn::EditSimilarity] {
            for t in thresholds {
                let p = Predicate::new(0, func, t);
                for pol in [Polarity::Positive, Polarity::Negative] {
                    for i in 0..texts.len() {
                        for j in 0..texts.len() {
                            let (a, b) = (g.entity(i), g.entity(j));
                            assert_eq!(
                                p.eval(&g, a, b, pol),
                                p.holds(p.similarity(&g, a, b), pol),
                                "{func:?} θ={t} {pol:?} {:?} vs {:?}",
                                texts[i],
                                texts[j],
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn long_adversarial_pair_evaluates_bounded() {
        // Two 8000-char strings sharing nothing: `eval` must answer through
        // the banded `O(θ·min)` path, never the full O(n·m) table.
        let a = "ab".repeat(4000);
        let b = "cd".repeat(4000);
        let schema = Schema::new([("Name", TokenizerKind::Words)]);
        let mut gb = GroupBuilder::new(schema);
        gb.add_entity(&[&a]);
        gb.add_entity(&[&b]);
        let g = gb.build();
        let p = Predicate::new(0, SimilarityFn::EditDistance, 3.0);
        assert!(!p.eval(&g, g.entity(0), g.entity(1), Polarity::Positive));
        assert!(p.eval(&g, g.entity(0), g.entity(1), Polarity::Negative));
        let p = Predicate::new(0, SimilarityFn::EditSimilarity, 0.999);
        assert!(!p.eval(&g, g.entity(0), g.entity(1), Polarity::Positive));
        assert!(p.eval(&g, g.entity(0), g.entity(1), Polarity::Negative));
    }

    #[test]
    fn dsl_rendering_roundtrips() {
        use crate::parse::parse_rule;
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        for r in pos.iter().chain(neg.iter()) {
            let dsl = r.to_dsl(g.schema());
            let back = parse_rule(&dsl, g.schema()).unwrap_or_else(|e| panic!("{dsl}: {e}"));
            assert_eq!(&back, r, "{dsl}");
        }
    }

    #[test]
    fn empty_rule_is_vacuously_true() {
        let g = figure1_group();
        let r = Rule::positive(vec![]);
        assert!(r.eval(&g, g.entity(0), g.entity(5)));
    }
}
