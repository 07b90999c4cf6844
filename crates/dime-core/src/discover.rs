//! The DIME rule-based framework, Algorithm 1 (paper Section III), and the
//! shared discovery-result model.
//!
//! `DIME` is the naïve baseline: it evaluates every positive rule on every
//! entity pair to build the partition graph, takes connected components,
//! picks the largest as the pivot partition, and then evaluates every
//! negative rule on every (partition entity, pivot entity) pair.
//!
//! Negative rules are applied *cumulatively* — first `φ₁⁻`, then
//! `φ₁⁻ ∨ φ₂⁻`, and so on — yielding the monotone sequence of result sets
//! behind the paper's scrollbar GUI (Figure 3).

use crate::entity::Group;
use crate::rule::{Polarity, Rule};
use dime_index::UnionFind;
use std::collections::BTreeSet;

/// Why a partition was flagged: the first negative rule that fired and the
/// first entity pair that satisfied it (`entity` in the flagged partition,
/// `pivot_entity` in the pivot), in the order members and then pivot
/// entities ascend by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Index of the flagged partition in [`Discovery::partitions`].
    pub partition: usize,
    /// Index of the negative rule that fired (0-based).
    pub rule: usize,
    /// The flagged partition's entity of the witnessing pair.
    pub entity: usize,
    /// The pivot entity of the witnessing pair.
    pub pivot_entity: usize,
}

/// The result of running DIME (any variant) on a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discovery {
    /// The disjoint partitions computed by the positive rules; each is a
    /// sorted list of entity ids. Ordered by smallest member.
    pub partitions: Vec<Vec<usize>>,
    /// Index (into `partitions`) of the pivot partition — the largest one,
    /// ties broken toward the partition with the smallest entity id.
    pub pivot: usize,
    /// One step per negative rule: `steps[k]` holds the entities flagged by
    /// the disjunction `φ₁⁻ ∨ … ∨ φ_{k+1}⁻`. Monotone non-decreasing.
    pub steps: Vec<ScrollStep>,
    /// One witness per flagged partition, in partition order, for
    /// explaining results to users. Every engine walks the pairs in the
    /// same order, so every engine reports the same witnesses.
    pub witnesses: Vec<Witness>,
}

/// One scrollbar position: the cumulative output after enabling a prefix of
/// the negative rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrollStep {
    /// How many negative rules are enabled at this step (1-based).
    pub rules_applied: usize,
    /// The entity ids flagged as mis-categorized at this step.
    pub flagged: BTreeSet<usize>,
}

impl Discovery {
    /// The final mis-categorized entity set `G⁻` (all negative rules
    /// enabled). Empty when no negative rules were supplied.
    pub fn mis_categorized(&self) -> BTreeSet<usize> {
        self.steps.last().map(|s| s.flagged.clone()).unwrap_or_default()
    }

    /// The mis-categorized set at scrollbar position `k` (0-based: only
    /// rules `0..=k` enabled).
    pub fn at_step(&self, k: usize) -> Option<&BTreeSet<usize>> {
        self.steps.get(k).map(|s| &s.flagged)
    }

    /// The pivot partition's members.
    pub fn pivot_members(&self) -> &[usize] {
        &self.partitions[self.pivot]
    }

    /// Number of scrollbar steps (= number of negative rules applied).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The index (into [`Discovery::partitions`]) of the partition that
    /// contains `entity`, or `None` for an out-of-range id.
    pub fn partition_of(&self, entity: usize) -> Option<usize> {
        self.partitions.iter().position(|p| p.binary_search(&entity).is_ok())
    }

    /// Whether `entity` sits in the pivot partition.
    pub fn is_pivot_member(&self, entity: usize) -> bool {
        self.partitions[self.pivot].binary_search(&entity).is_ok()
    }

    /// The witness explaining why `entity`'s partition was flagged, if it
    /// was.
    pub fn witness_for(&self, entity: usize) -> Option<&Witness> {
        let p = self.partition_of(entity)?;
        self.witnesses.iter().find(|w| w.partition == p)
    }

    /// The entities each scrollbar step adds over the previous one — what
    /// the user reviews when dragging the scrollbar right by one rule.
    pub fn step_deltas(&self) -> Vec<Vec<usize>> {
        let empty: BTreeSet<usize> = BTreeSet::new();
        let mut prev = &empty;
        let mut out = Vec::with_capacity(self.steps.len());
        for s in &self.steps {
            out.push(s.flagged.difference(prev).copied().collect());
            prev = &s.flagged;
        }
        out
    }
}

/// Validates rule polarities once, so misuse fails loudly instead of
/// silently inverting comparisons.
pub(crate) fn check_polarities(positive: &[Rule], negative: &[Rule]) {
    assert!(
        positive.iter().all(|r| r.polarity == Polarity::Positive),
        "positive rule set contains a negative rule"
    );
    assert!(
        negative.iter().all(|r| r.polarity == Polarity::Negative),
        "negative rule set contains a positive rule"
    );
}

/// Selects the pivot partition: largest size, ties broken toward the
/// partition containing the smallest entity id.
///
/// The tie-break deliberately scans for the minimum member instead of
/// trusting `p[0]`: every engine must pick the same pivot even if a caller
/// hands partitions whose members are not sorted ascending.
pub(crate) fn pick_pivot(partitions: &[Vec<usize>]) -> usize {
    let min_member = |p: &[usize]| *p.iter().min().expect("partitions have at least one member");
    partitions
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.len().cmp(&b.len()).then_with(|| min_member(b).cmp(&min_member(a)))
        })
        .map(|(i, _)| i)
        .expect("non-empty group has at least one partition")
}

/// Runs DIME (Algorithm 1) — the naïve all-pairs variant.
///
/// Complexity: `O(n²·υ·(|Σ⁺| + |Σ⁻|))` where `υ` is the predicate
/// verification cost.
///
/// # Panics
///
/// Panics when rules are supplied with the wrong polarity.
///
/// # Examples
///
/// ```
/// use dime_core::{discover_naive, GroupBuilder, Predicate, Rule, Schema, SimilarityFn};
/// use dime_text::TokenizerKind;
///
/// let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
/// let mut b = GroupBuilder::new(schema);
/// b.add_entity(&["ann, bob"]);
/// b.add_entity(&["ann, bob, carol"]);
/// b.add_entity(&["zed"]);
/// let group = b.build();
///
/// let pos = vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 2.0)])];
/// let neg = vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])];
/// let d = discover_naive(&group, &pos, &neg);
/// assert_eq!(d.pivot_members(), &[0, 1]);
/// assert!(d.mis_categorized().contains(&2));
/// ```
pub fn discover_naive(group: &Group, positive: &[Rule], negative: &[Rule]) -> Discovery {
    check_polarities(positive, negative);
    let n = group.len();
    assert!(n > 0, "cannot discover in an empty group");

    // Step 1: positive rules as a disjunction over all pairs + transitivity.
    // Faithful to Algorithm 1, every pair is evaluated against the rules —
    // the constant-time "already connected" skip is a DIME⁺ optimization
    // (Section IV-C) and deliberately absent here.
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (group.entity(i), group.entity(j));
            if positive.iter().any(|r| r.eval(group, a, b)) {
                uf.union(i, j);
            }
        }
    }
    let partitions = uf.components();

    // Step 2: the pivot partition.
    let pivot = pick_pivot(&partitions);

    // Step 3: negative rules, cumulatively.
    let (steps, witnesses) = flag_partitions_naive(group, &partitions, pivot, negative);
    Discovery { partitions, pivot, steps, witnesses }
}

/// Shared step-3 logic: for each negative rule, decide per non-pivot
/// partition whether *some* pair `(e ∈ P, e* ∈ P*)` satisfies it, then fold
/// the per-rule flags into cumulative scroll steps.
fn flag_partitions_naive(
    group: &Group,
    partitions: &[Vec<usize>],
    pivot: usize,
    negative: &[Rule],
) -> (Vec<ScrollStep>, Vec<Witness>) {
    let pivot_members = &partitions[pivot];
    let mut per_rule: Vec<Vec<bool>> = vec![vec![false; partitions.len()]; negative.len()];
    let mut witnesses: Vec<Witness> = Vec::new();
    for (pi, part) in partitions.iter().enumerate() {
        if pi == pivot {
            continue;
        }
        let mut witnessed = false;
        for (ri, rule) in negative.iter().enumerate() {
            'pairs: for &e in part {
                for &p in pivot_members {
                    if rule.eval(group, group.entity(e), group.entity(p)) {
                        per_rule[ri][pi] = true;
                        if !witnessed {
                            witnesses.push(Witness {
                                partition: pi,
                                rule: ri,
                                entity: e,
                                pivot_entity: p,
                            });
                            witnessed = true;
                        }
                        break 'pairs;
                    }
                }
            }
        }
    }
    (cumulate_steps(partitions, &per_rule), witnesses)
}

/// Folds per-rule partition flags into the cumulative scrollbar steps.
pub(crate) fn cumulate_steps(
    partitions: &[Vec<usize>],
    per_rule_flags: &[Vec<bool>],
) -> Vec<ScrollStep> {
    let mut steps = Vec::with_capacity(per_rule_flags.len());
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for (ri, flags) in per_rule_flags.iter().enumerate() {
        for (pi, &on) in flags.iter().enumerate() {
            if on {
                flagged.extend(partitions[pi].iter().copied());
            }
        }
        steps.push(ScrollStep { rules_applied: ri + 1, flagged: flagged.clone() });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::tests::{figure1_group, paper_rules};

    #[test]
    fn paper_example_5_end_to_end() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_naive(&g, &pos, &neg);
        // Three partitions: {Win, KATARA, NADEEF, Hierarchical}, the
        // NJ-Tang SIGIR paper, and the chemistry paper.
        assert_eq!(d.partitions.len(), 3);
        assert_eq!(d.pivot_members(), &[0, 1, 2, 3]);
        // Scrollbar: φ1- alone finds the SIGIR paper (id 4); adding φ2-
        // also finds the chemistry paper (id 5) — paper Figure 3.
        assert_eq!(d.at_step(0).unwrap().iter().copied().collect::<Vec<_>>(), vec![4]);
        assert_eq!(d.at_step(1).unwrap().iter().copied().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(d.mis_categorized().len(), 2);
    }

    #[test]
    fn navigation_helpers() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_naive(&g, &pos, &neg);
        assert_eq!(d.step_count(), 2);
        assert_eq!(d.partition_of(0), Some(d.pivot));
        assert!(d.is_pivot_member(2));
        assert!(!d.is_pivot_member(4));
        assert_eq!(d.partition_of(99), None);
        let deltas = d.step_deltas();
        assert_eq!(deltas[0], vec![4]);
        assert_eq!(deltas[1], vec![5]);
    }

    #[test]
    fn witnesses_explain_flags() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_naive(&g, &pos, &neg);
        // Both flagged entities (4 and 5) have witnesses; pivot members none.
        let w4 = d.witness_for(4).expect("entity 4 flagged");
        assert_eq!(w4.rule, 0, "the SIGIR paper is caught by φ1-");
        assert_eq!(w4.entity, 4);
        assert!(d.pivot_members().contains(&w4.pivot_entity));
        let w5 = d.witness_for(5).expect("entity 5 flagged");
        assert_eq!(w5.rule, 1, "the chemistry paper needs φ2-");
        assert!(d.witness_for(0).is_none(), "pivot members have no witness");
        // The witness pair really satisfies the rule it names.
        assert!(neg[w5.rule].eval(&g, g.entity(w5.entity), g.entity(w5.pivot_entity)));
    }

    #[test]
    fn steps_are_monotone() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_naive(&g, &pos, &neg);
        for w in d.steps.windows(2) {
            assert!(w[0].flagged.is_subset(&w[1].flagged));
        }
    }

    #[test]
    fn no_negative_rules_flags_nothing() {
        let g = figure1_group();
        let (pos, _) = paper_rules();
        let d = discover_naive(&g, &pos, &[]);
        assert!(d.mis_categorized().is_empty());
        assert!(d.steps.is_empty());
    }

    #[test]
    fn no_positive_rules_yields_singletons() {
        let g = figure1_group();
        let (_, neg) = paper_rules();
        let d = discover_naive(&g, &[], &neg);
        assert_eq!(d.partitions.len(), g.len());
        // Pivot is a singleton; ties break to the smallest id.
        assert_eq!(d.pivot_members(), &[0]);
    }

    #[test]
    fn pivot_never_flagged() {
        let g = figure1_group();
        let (pos, neg) = paper_rules();
        let d = discover_naive(&g, &pos, &neg);
        let flagged = d.mis_categorized();
        assert!(d.pivot_members().iter().all(|e| !flagged.contains(e)));
    }

    #[test]
    fn pivot_tie_break_ignores_member_ordering() {
        // Two size-2 partitions tie; the one containing entity 1 wins no
        // matter how the members (or the partitions) are ordered.
        let sorted = vec![vec![1, 5], vec![2, 4], vec![3]];
        assert_eq!(pick_pivot(&sorted), 0);
        let shuffled = vec![vec![5, 1], vec![4, 2], vec![3]];
        assert_eq!(pick_pivot(&shuffled), 0);
        let reversed = vec![vec![4, 2], vec![5, 1], vec![3]];
        assert_eq!(pick_pivot(&reversed), 1);
        // Size still dominates the tie-break.
        assert_eq!(pick_pivot(&[vec![9], vec![3, 8, 7]]), 1);
    }

    #[test]
    #[should_panic(expected = "positive rule set contains")]
    fn wrong_polarity_panics() {
        let g = figure1_group();
        let (_, neg) = paper_rules();
        discover_naive(&g, &neg, &[]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_panics() {
        use crate::entity::{GroupBuilder, Schema};
        use dime_text::TokenizerKind;
        let g = GroupBuilder::new(Schema::new([("A", TokenizerKind::Words)])).build();
        discover_naive(&g, &[], &[]);
    }
}
