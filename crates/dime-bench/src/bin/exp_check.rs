//! Self-verifying reproduction harness: asserts, programmatically, every
//! qualitative *shape* claim of the paper that EXPERIMENTS.md reports.
//! Exits non-zero with the first violated claim, so CI can guard the
//! reproduction against regressions.
//!
//! Checks (paper section → claim):
//!
//! 1.  §VI Exp-1 — DIME's best-scrollbar F beats CR's and k-means' on
//!     Scholar; k-means collapses.
//! 2.  §VI Exp-2 — DIME precision does not degrade as e% grows; recall
//!     does not improve.
//! 3.  §VI Exp-3 — scrollbar recall is monotone non-decreasing and mean
//!     precision declines from the first to the last negative rule.
//! 4.  §VI Exp-4 — ≥ 80% of injected errors land in partitions of size
//!     < 10 (the paper's Table I itself shows a few in `[10, 100)`); the
//!     pivot holds none.
//! 5.  §VI Exp-5 — DIME⁺ beats DIME on a DBGen group, with identical
//!     output.
//! 6.  §V  Exp-6 — greedy DIME-Rule ≥ SIFI on the Scholar CV page.
//!
//! Flags: `--seed S` (default 42). Runtime ≈ 1–2 minutes.
//!
//! `--smoke` runs only a seconds-scale engine-agreement check (the three
//! batch engines and the live engine, created, grown by adds, reopened,
//! and grown then shrunk by removes, on a tiny DBGen group, with a
//! generous wall-clock ceiling) — the CI
//! bench-smoke stage uses it to guard the engines on every push without
//! paying for the full reproduction suite.
//!
//! `--analyzer` times `dime-check`'s whole-workspace run (lexer → item
//! parser → call graph → every rule) over this repository and writes the
//! wall clock to `results/BENCH_check.json` (`--out PATH` overrides), so
//! the bench-json stage tracks analyzer cost the same way it tracks the
//! engines: a >2x regression against the committed baseline fails CI.

use dime_bench::arg_or;
use dime_bench::{
    run_cr_fixed, run_dime_best, run_kmeans, scrollbar_metrics, Dataset, CR_THRESHOLDS,
};
use dime_core::{
    discover_fast, discover_naive, discover_parallel, Discovery, Group, GroupBuilder,
    IncrementalDime, PartitionStats, Polarity, Rule, SimilarityFn,
};
use dime_data::{
    amazon_category, amazon_rules, dbgen_group, dbgen_rules, scholar_attr, scholar_page,
    scholar_rules, AmazonConfig, DbgenConfig, ExampleSet, ScholarConfig,
};
use dime_metrics::Prf;
use dime_ontology::NodeId;
use std::sync::Arc;
use std::time::Instant;

fn check(name: &str, ok: bool, detail: String) -> bool {
    println!("[{}] {name} — {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// The CI smoke check: the three batch engines and the live engine must
/// agree bit-for-bit on a tiny generated group, inside a generous time
/// ceiling (the run takes well under a second; the ceiling only catches
/// pathological slowdowns).
fn run_smoke(seed: u64) -> bool {
    const CEILING_SECS: f64 = 30.0;
    let (pos, neg) = dbgen_rules();
    let lg = dbgen_group(&DbgenConfig::new(600, seed));
    let t0 = Instant::now();
    let naive = discover_naive(&lg.group, &pos, &neg);
    let fast = discover_fast(&lg.group, &pos, &neg);
    let parallel = discover_parallel(&lg.group, &pos, &neg, 0);
    let [created, grown, reopened] = live_discoveries(&lg.group, &pos, &neg);
    let (shrunk, survivors) = live_shrunk(&lg.group, &pos, &neg);
    let wall = t0.elapsed().as_secs_f64();
    let mut ok = true;
    ok &= check("smoke naive == fast", naive == fast, "DBGen 600".into());
    ok &= check("smoke fast == parallel", fast == parallel, "DBGen 600".into());
    ok &= check("smoke live new == naive", created == naive, "DBGen 600".into());
    ok &= check("smoke live adds == naive", grown == naive, "DBGen 600, 600 adds".into());
    ok &= check("smoke live reopen == naive", reopened == naive, "DBGen 600".into());
    ok &= check(
        "smoke live removes == fast",
        shrunk == survivors,
        format!("DBGen 600, 600 adds, {SHRINK} removes"),
    );
    ok &= check(
        "smoke under time ceiling",
        wall <= CEILING_SECS,
        format!("{wall:.2}s (ceiling {CEILING_SECS}s)"),
    );
    ok
}

/// How many rows the smoke check's shrunk engine removes.
const SHRINK: usize = 40;

/// One persisted row per entity of `group`: its values and its nodes.
type Rows = Vec<(Vec<String>, Option<Vec<Option<NodeId>>>)>;

/// `group`'s schema and ontologies with no entities, and its rows.
fn split(group: &Group) -> (Group, Rows) {
    let mut empty = GroupBuilder::new(group.schema().clone());
    for (i, def) in group.schema().attrs().iter().enumerate() {
        if let Some(ont) = group.ontology(i) {
            empty.attach_ontology(&def.name, Arc::new(ont.clone()));
        }
    }
    let rows = group
        .entities()
        .iter()
        .map(|e| {
            let values = e.values.iter().map(|v| v.text.clone()).collect();
            (values, Some(e.values.iter().map(|v| v.node).collect()))
        })
        .collect();
    (empty.build(), rows)
}

/// A live engine grown from `empty` by one add per row.
fn grow(empty: Group, rows: &Rows, pos: &[Rule], neg: &[Rule]) -> IncrementalDime {
    let mut grown = IncrementalDime::new(empty, pos.to_vec(), neg.to_vec());
    for (values, nodes) in rows {
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        grown.add_entity_with_nodes(&refs, nodes.as_deref().expect("every row carries its nodes"));
    }
    grown
}

/// The live engine three ways over `group`'s rows, each engine's
/// discovery: created over the group, grown from an empty group by one add
/// per row (re-keying each time the session doubles, nine times over 600
/// rows), and reopened from those rows.
fn live_discoveries(group: &Group, pos: &[Rule], neg: &[Rule]) -> [Discovery; 3] {
    let (empty, rows) = split(group);
    let created = IncrementalDime::new(group.clone(), pos.to_vec(), neg.to_vec());
    let grown = grow(empty.clone(), &rows, pos, neg);
    let reopened = IncrementalDime::reopen(empty, pos.to_vec(), neg.to_vec(), &rows);
    [created.discovery(), grown.discovery(), reopened.discovery()]
}

/// The live engine grown over `group`'s rows, then shrunk by [`SHRINK`]
/// removes, each of a member of the current pivot or of a row spread over
/// the ids in turn; its discovery, and `discover_fast`'s on the surviving
/// rows.
fn live_shrunk(group: &Group, pos: &[Rule], neg: &[Rule]) -> (Discovery, Discovery) {
    let (mut kept, mut rows) = split(group);
    let mut shrunk = grow(kept.clone(), &rows, pos, neg);
    for k in 0..SHRINK {
        let id = if k % 2 == 0 {
            let d = shrunk.discovery();
            d.pivot_members()[k % d.pivot_members().len()]
        } else {
            k * 37 % rows.len()
        };
        assert!(shrunk.remove_entity(id), "id {id} is in range");
        rows.remove(id);
    }
    for (values, nodes) in &rows {
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        kept.push_entity_with_nodes(&refs, nodes.as_deref().expect("every row carries its nodes"));
    }
    (shrunk.discovery(), discover_fast(&kept, pos, neg))
}

/// The analyzer timing run: `dime_check::run_workspace` over this
/// repository, repeated a few times with the best wall kept (the metric
/// guards the analysis pipeline, not the page cache), plus the file and
/// finding counts so the JSON documents what the timing covered.
fn run_analyzer_bench(out: &str) {
    const RUNS: usize = 3;
    let root = dime_check::find_workspace_root().expect("locate workspace root");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let report = dime_check::run_workspace(&root).expect("analyze workspace");
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(report);
    }
    let report = last.expect("at least one run");
    assert_eq!(
        report.finding_count(),
        0,
        "the workspace must be clean before its analysis is worth timing"
    );
    let doc = serde_json::json!({
        "bench": "check",
        "analyzer": {
            "files_scanned": report.files_scanned,
            "findings": report.finding_count(),
            "suppressed": report.suppressed_count(),
            "runs": RUNS,
            "wall_seconds": best,
        }
    });
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out, serde_json::to_string_pretty(&doc).expect("serialize"))
        .expect("write BENCH_check.json");
    println!(
        "analyzer: {} files in {best:.3}s (best of {RUNS}); wrote {out}",
        report.files_scanned
    );
}

fn main() {
    let seed: u64 = arg_or("seed", 42);
    if std::env::args().any(|a| a == "--analyzer") {
        let out: String = arg_or("out", "results/BENCH_check.json".to_string());
        run_analyzer_bench(&out);
        return;
    }
    if std::env::args().any(|a| a == "--smoke") {
        if run_smoke(seed) {
            println!("\nsmoke checks passed");
            return;
        }
        println!("\nSMOKE CHECKS FAILED");
        std::process::exit(1);
    }
    let mut all_ok = true;

    // ---- 1. Scholar: DIME > CR, DIME >> k-means ---------------------------
    {
        let (pos, neg) = scholar_rules();
        let pages: Vec<_> = (0..8)
            .map(|i| scholar_page("chk", &ScholarConfig::default_page(seed + i * 131)))
            .collect();
        let mean = |ms: &[Prf]| ms.iter().map(|m| m.f_measure).sum::<f64>() / ms.len() as f64;
        let dime: Vec<Prf> = pages.iter().map(|lg| run_dime_best(lg, &pos, &neg).metrics).collect();
        let cr_best = CR_THRESHOLDS
            .iter()
            .map(|&t| {
                let ms: Vec<Prf> =
                    pages.iter().map(|lg| run_cr_fixed(lg, Dataset::Scholar, t).metrics).collect();
                mean(&ms)
            })
            .fold(0.0f64, f64::max);
        let km: Vec<Prf> =
            pages.iter().map(|lg| run_kmeans(lg, Dataset::Scholar).metrics).collect();
        let (df, kf) = (mean(&dime), mean(&km));
        all_ok &= check(
            "Exp-1 DIME ≥ CR (Scholar F)",
            df >= cr_best - 0.02,
            format!("DIME {df:.2} vs CR {cr_best:.2}"),
        );
        all_ok &= check(
            "Exp-1 k-means collapses",
            kf < df - 0.3,
            format!("k-means {kf:.2} vs DIME {df:.2}"),
        );
    }

    // ---- 2. Amazon: precision ↑, recall ↓ with e% -------------------------
    {
        let (pos, neg) = amazon_rules();
        let run = |e: f64| {
            let ms: Vec<Prf> = (0..4)
                .map(|i| {
                    let lg = amazon_category(&AmazonConfig::new(i, 150, e, seed + i as u64));
                    run_dime_best(&lg, &pos, &neg).metrics
                })
                .collect();
            Prf::mean(&ms)
        };
        let (lo, hi) = (run(0.1), run(0.4));
        all_ok &= check(
            "Exp-2 precision does not degrade with e%",
            hi.precision >= lo.precision - 0.05,
            format!("{:.2} → {:.2}", lo.precision, hi.precision),
        );
        all_ok &= check(
            "Exp-2 recall does not improve with e%",
            hi.recall <= lo.recall + 0.05,
            format!("{:.2} → {:.2}", lo.recall, hi.recall),
        );
    }

    // ---- 3. Scrollbar monotonicity ----------------------------------------
    {
        let (pos, neg) = scholar_rules();
        let mut recall_monotone = true;
        let mut per_step: Vec<Vec<Prf>> = vec![Vec::new(); neg.len()];
        for i in 0..6u64 {
            let lg = scholar_page("scroll", &ScholarConfig::default_page(seed ^ (0x5c + i)));
            let d = discover_fast(&lg.group, &pos, &neg);
            let ms = scrollbar_metrics(&lg, &d);
            recall_monotone &= ms.windows(2).all(|w| w[1].recall >= w[0].recall - 1e-12);
            for (k, m) in ms.into_iter().enumerate() {
                per_step[k].push(m);
            }
        }
        let means: Vec<Prf> = per_step.iter().map(|v| Prf::mean(v)).collect();
        // Page-averaged: the first rule beats the last on precision (an
        // individual page can see a transient bump when a middle rule adds
        // many true positives at once — the paper's Fig. 8 shows the same).
        let precision_declines =
            means.last().map(|l| means[0].precision >= l.precision - 1e-9).unwrap_or(true);
        all_ok &= check("Exp-3 recall monotone along scrollbar", recall_monotone, "6 pages".into());
        all_ok &= check(
            "Exp-3 precision declines NR1 → NR_last (mean)",
            precision_declines,
            format!(
                "{:.2} → {:.2}",
                means[0].precision,
                means.last().map(|m| m.precision).unwrap_or(0.0)
            ),
        );
    }

    // ---- 4. Errors isolate in small partitions ----------------------------
    {
        let (pos, _) = scholar_rules();
        let mut fracs = Vec::new();
        let mut pivot_clean = true;
        for i in 0..4u64 {
            let lg = scholar_page("tbl", &ScholarConfig::default_page(seed + 1000 + i));
            let d = discover_fast(&lg.group, &pos, &[]);
            let truth: std::collections::HashSet<usize> = lg.truth.iter().copied().collect();
            let stats = PartitionStats::compute(&d.partitions, &truth);
            fracs.push(stats.small_partition_error_fraction());
            pivot_clean &= d.pivot_members().iter().all(|e| !truth.contains(e));
        }
        let avg = fracs.iter().sum::<f64>() / fracs.len() as f64;
        // The paper's own Table I shows a few errors in [10, 100)
        // partitions (Divyakant: 21); allow the same leeway.
        all_ok &= check("Exp-4 ≥80% errors in partitions < 10", avg >= 0.8, format!("{avg:.2}"));
        all_ok &= check("Exp-4 pivot holds no errors", pivot_clean, "checked 4 pages".into());
    }

    // ---- 5. DIME⁺ faster and identical on DBGen ---------------------------
    {
        let (pos, neg) = dbgen_rules();
        let lg = dbgen_group(&DbgenConfig::new(10_000, seed));
        let t0 = Instant::now();
        let fast = discover_fast(&lg.group, &pos, &neg);
        let fast_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let naive = discover_naive(&lg.group, &pos, &neg);
        let naive_s = t0.elapsed().as_secs_f64();
        all_ok &= check("Exp-5 engines identical", fast == naive, "DBGen 10k".into());
        all_ok &= check(
            "Exp-5 DIME⁺ ≥ 2× faster (DBGen 10k)",
            naive_s / fast_s >= 2.0,
            format!("{:.1}×", naive_s / fast_s),
        );
    }

    // ---- 6. DIME-Rule ≥ SIFI on CV examples -------------------------------
    {
        use dime_baselines::{sifi_optimize, RuleStructure};
        use dime_rulegen::{generate_positive_rules, rules_cover, FunctionLibrary, GreedyConfig};
        let mut cfg = ScholarConfig::default_page(seed);
        cfg.err_near_field = 10;
        let lg = scholar_page("cv", &cfg);
        let ex = ExampleSet::from_labeled(&lg, 120, 120);
        let lib = FunctionLibrary::new(vec![
            (scholar_attr::AUTHORS, SimilarityFn::Overlap),
            (scholar_attr::VENUE, SimilarityFn::Ontology),
            (scholar_attr::TITLE, SimilarityFn::Ontology),
        ]);
        let structures: Vec<RuleStructure> = vec![
            vec![(scholar_attr::VENUE, SimilarityFn::Ontology)],
            vec![
                (scholar_attr::AUTHORS, SimilarityFn::Overlap),
                (scholar_attr::VENUE, SimilarityFn::Ontology),
            ],
        ];
        let f_of = |rules: &[dime_core::Rule]| {
            let preds: Vec<(bool, bool)> = ex
                .positive
                .iter()
                .map(|&p| (rules_cover(&lg.group, rules, p), true))
                .chain(ex.negative.iter().map(|&p| (rules_cover(&lg.group, rules, p), false)))
                .collect();
            let tp = preds.iter().filter(|&&(p, t)| p && t).count();
            let fp = preds.iter().filter(|&&(p, t)| p && !t).count();
            let fnn = preds.iter().filter(|&&(p, t)| !p && t).count();
            Prf::from_counts(tp, fp, fnn).f_measure
        };
        let greedy = generate_positive_rules(
            &lg.group,
            &ex.positive,
            &ex.negative,
            &lib,
            &GreedyConfig::default(),
        );
        let sifi =
            sifi_optimize(&lg.group, &structures, &ex.positive, &ex.negative, Polarity::Positive);
        let (gf, sf) = (f_of(&greedy), f_of(&sifi));
        all_ok &= check("Exp-6 DIME-Rule ≥ SIFI", gf >= sf - 0.02, format!("{gf:.2} vs {sf:.2}"));
    }

    if all_ok {
        println!("\nall reproduction shape checks passed");
    } else {
        println!("\nSOME CHECKS FAILED");
        std::process::exit(1);
    }
}
