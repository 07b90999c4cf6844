//! `dime-core` — the rule-based framework of *Discovering Mis-Categorized
//! Entities* (Hao, Tang, Li, Feng — ICDE 2018).
//!
//! Given a [`Group`] of entities that an upstream system categorized
//! together, DIME finds the entities that do **not** belong:
//!
//! 1. positive rules ([`Rule::positive`]) partition the group (disjunction
//!    + transitivity → connected components);
//! 2. the largest partition becomes the *pivot*, assumed correct;
//! 3. negative rules ([`Rule::negative`]), applied cumulatively, flag
//!    partitions dissimilar to the pivot — the scrollbar of results.
//!
//! Two interchangeable engines are provided:
//!
//! * [`discover_naive`] — Algorithm 1, the `O(n²)` all-pairs baseline;
//! * DIME⁺ — Algorithm 2, the signature-based filter–verify engine with
//!   transitivity short-circuiting against a live union-find. It
//!   returns bit-identical results. There is one implementation: both
//!   phases are sharded across scoped worker threads over a lock-free
//!   union-find. [`discover_fast`] runs that body on one worker, inline
//!   on the calling thread; [`discover_parallel`] (or the `threads` knob
//!   on [`DimePlusConfig`]) runs it on several.
//!
//! ```
//! use dime_core::{discover_fast, GroupBuilder, Predicate, Rule, Schema, SimilarityFn};
//! use dime_text::TokenizerKind;
//!
//! let schema = Schema::new([("Authors", TokenizerKind::List(','))]);
//! let mut b = GroupBuilder::new(schema);
//! b.add_entity(&["ann, bob"]);
//! b.add_entity(&["bob, ann, carol"]);
//! b.add_entity(&["someone else"]);
//! let group = b.build();
//!
//! let positive = vec![Rule::positive(vec![Predicate::new(0, SimilarityFn::Overlap, 2.0)])];
//! let negative = vec![Rule::negative(vec![Predicate::new(0, SimilarityFn::Overlap, 0.0)])];
//! let d = discover_fast(&group, &positive, &negative);
//! assert_eq!(d.mis_categorized().into_iter().collect::<Vec<_>>(), vec![2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod diagnostics;
mod dime_plus;
mod discover;
mod entity;
mod incremental;
mod par;
mod parse;
mod review;
mod rule;
mod signature;
mod stats;

pub use diagnostics::{AttrStats, GroupStats};
pub use dime_plus::{
    discover_fast, discover_fast_traced, discover_fast_with, discover_parallel, DimePlusConfig,
};
pub use discover::{discover_naive, Discovery, ScrollStep, Witness};
pub use entity::{AttrDef, AttrValue, Entity, Group, GroupBuilder, Schema};
pub use incremental::IncrementalDime;
pub use parse::{parse_rule, parse_rules, ParseRuleError};
pub use review::{Decision, ReviewSession};
pub use rule::{Polarity, Predicate, Rule, SimilarityFn};
pub use stats::{BucketStats, PartitionStats};
