//! Property test crossing the persistence boundary: a random interleaving
//! of `add_entity` / `remove_entity` / `snapshot` / reopen-from-disk is
//! driven simultaneously against the WAL and an in-memory oracle, and at
//! every reopen — plus at the end — an engine rebuilt from the recovered
//! rows must agree with `discover_naive` on a batch group of the oracle's
//! rows, extending the incremental engine's own interleaving proptests
//! through a crash/restart cycle.

use dime_core::{
    discover_naive, GroupBuilder, IncrementalDime, Predicate, Rule, Schema, SimilarityFn,
};
use dime_store::wal::{recover, Recovery, SessionWal};
use dime_store::{FsyncPolicy, Row, SessionState, StoreStats, WalOp};
use dime_text::TokenizerKind;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dime-oracle-{}-{n}", std::process::id()))
}

fn schema() -> Schema {
    Schema::new([("Title", TokenizerKind::Words), ("Authors", TokenizerKind::List(','))])
}

fn rules() -> (Vec<Rule>, Vec<Rule>) {
    (
        vec![Rule::positive(vec![Predicate::new(1, SimilarityFn::Overlap, 2.0)])],
        vec![Rule::negative(vec![Predicate::new(1, SimilarityFn::Overlap, 0.0)])],
    )
}

/// Rebuilds an engine from recovered rows, the way `dime-serve` does.
fn engine_from_rows(rows: &[Row]) -> IncrementalDime {
    let (pos, neg) = rules();
    let persisted: Vec<_> = rows.iter().map(|r| (r.values.clone(), r.nodes.clone())).collect();
    IncrementalDime::reopen(GroupBuilder::new(schema()).build(), pos, neg, &persisted)
}

/// One generated step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    Add { title: usize, authors: Vec<u32> },
    Remove { pick: usize },
    Snapshot,
    Reopen,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0usize..3, proptest::collection::vec(0u32..8, 0..4))
            .prop_map(|(title, authors)| Step::Add { title, authors }),
        2 => (0usize..16).prop_map(|pick| Step::Remove { pick }),
        1 => Just(Step::Snapshot),
        1 => Just(Step::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_persisted_interleaving_matches_the_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..20),
    ) {
        let dir = temp_dir();
        let stats = Arc::new(StoreStats::default());
        let mut wal =
            SessionWal::create(&dir, FsyncPolicy::Never, Arc::clone(&stats)).expect("create");
        wal.append(&WalOp::Open { doc: "{}".into(), rules: "opaque".into() }).expect("open");
        let mut state = SessionState::new("{}", "opaque");
        // The oracle: plain rows, batch-rebuilt for every comparison.
        let mut oracle: Vec<(String, String)> = Vec::new();

        for step in &steps {
            match step {
                Step::Add { title, authors } => {
                    let t = format!("t{title}");
                    let a = authors.iter().map(|x| format!("a{x}"))
                        .collect::<Vec<_>>().join(", ");
                    let op = WalOp::AddEntity { values: vec![t.clone(), a.clone()] };
                    wal.append(&op).expect("append");
                    state.apply(&op);
                    oracle.push((t, a));
                }
                Step::Remove { pick } => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let id = pick % oracle.len();
                    let op = WalOp::RemoveEntity { entity: id as u64 };
                    wal.append(&op).expect("append");
                    state.apply(&op);
                    oracle.remove(id);
                }
                Step::Snapshot => wal.checkpoint(&state).expect("checkpoint"),
                Step::Reopen => {
                    drop(wal);
                    let rec = match recover(&dir, FsyncPolicy::Never, Arc::clone(&stats))
                        .expect("recover")
                    {
                        Recovery::Live(r) => *r,
                        _ => panic!("an open session must recover live"),
                    };
                    // The recovered mirror must be the oracle's rows.
                    let got: Vec<(String, String)> = rec.state.rows.iter()
                        .map(|r| (r.values[0].clone(), r.values[1].clone())).collect();
                    prop_assert_eq!(&got, &oracle, "rows diverged across reopen");
                    wal = rec.wal;
                    state = rec.state;
                }
            }
        }

        // Final crash + recovery, then the engine-level comparison.
        drop(wal);
        let rec = match recover(&dir, FsyncPolicy::Never, stats).expect("final recover") {
            Recovery::Live(r) => *r,
            _ => panic!("an open session must recover live"),
        };
        let engine = engine_from_rows(&rec.state.rows);
        if !oracle.is_empty() {
            let mut b = GroupBuilder::new(schema());
            for (t, a) in &oracle {
                b.add_entity(&[t.as_str(), a.as_str()]);
            }
            let batch = b.build();
            let (pos, neg) = rules();
            prop_assert_eq!(engine.discovery(), discover_naive(&batch, &pos, &neg));
        } else {
            prop_assert_eq!(engine.len(), 0);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
