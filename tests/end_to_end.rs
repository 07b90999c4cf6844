//! Cross-crate integration tests: generators → rules → both discovery
//! engines → metrics, exercising the whole public API surface the way the
//! experiment binaries do.

use dime::core::{
    discover_fast, discover_fast_with, discover_naive, DimePlusConfig, PartitionStats,
};
use dime::data::{
    amazon_category, amazon_rules, dbgen_group, dbgen_rules, scholar_page, scholar_rules,
    AmazonConfig, DbgenConfig, ScholarConfig,
};
use dime::metrics::evaluate_sets;
use std::collections::HashSet;

#[test]
fn scholar_pipeline_fast_equals_naive() {
    let lg = scholar_page("it", &ScholarConfig::small(17));
    let (pos, neg) = scholar_rules();
    let fast = discover_fast(&lg.group, &pos, &neg);
    let naive = discover_naive(&lg.group, &pos, &neg);
    assert_eq!(fast, naive);
}

#[test]
fn amazon_pipeline_fast_equals_naive() {
    let lg = amazon_category(&AmazonConfig::new(1, 60, 0.2, 23));
    let (pos, neg) = amazon_rules();
    assert_eq!(discover_fast(&lg.group, &pos, &neg), discover_naive(&lg.group, &pos, &neg));
}

#[test]
fn dbgen_pipeline_fast_equals_naive() {
    let lg = dbgen_group(&DbgenConfig::new(250, 31));
    let (pos, neg) = dbgen_rules();
    assert_eq!(discover_fast(&lg.group, &pos, &neg), discover_naive(&lg.group, &pos, &neg));
}

#[test]
fn every_engine_config_agrees_on_scholar() {
    let lg = scholar_page("cfg", &ScholarConfig::small(5));
    let (pos, neg) = scholar_rules();
    let reference = discover_naive(&lg.group, &pos, &neg);
    for transitivity_skip in [false, true] {
        for threads in [1, 4] {
            let cfg = DimePlusConfig { transitivity_skip, threads };
            assert_eq!(
                discover_fast_with(&lg.group, &pos, &neg, cfg),
                reference,
                "{cfg:?} diverged from Algorithm 1"
            );
        }
    }
}

#[test]
fn parallel_engine_matches_naive_on_generators() {
    use dime::core::discover_parallel;
    let lg = dbgen_group(&DbgenConfig::new(400, 11));
    let (pos, neg) = dbgen_rules();
    let reference = discover_naive(&lg.group, &pos, &neg);
    for threads in [0, 1, 2, 3, 8] {
        assert_eq!(
            discover_parallel(&lg.group, &pos, &neg, threads),
            reference,
            "parallel engine diverged at threads={threads}"
        );
    }
    let lg = scholar_page("par", &ScholarConfig::small(41));
    let (pos, neg) = scholar_rules();
    let reference = discover_naive(&lg.group, &pos, &neg);
    for threads in [2, 8] {
        assert_eq!(discover_parallel(&lg.group, &pos, &neg, threads), reference);
    }
}

#[test]
fn scholar_quality_meets_floor() {
    // Average over a few pages: F of the best scrollbar step must clear a
    // quality floor well above chance.
    let (pos, neg) = scholar_rules();
    let mut fs = Vec::new();
    for seed in [1u64, 2, 3] {
        let lg = scholar_page("q", &ScholarConfig::default_page(seed));
        let d = discover_fast(&lg.group, &pos, &neg);
        let best = d
            .steps
            .iter()
            .map(|s| evaluate_sets(s.flagged.iter(), lg.truth.iter()).f_measure)
            .fold(0.0f64, f64::max);
        fs.push(best);
    }
    let avg = fs.iter().sum::<f64>() / fs.len() as f64;
    assert!(avg > 0.6, "average best-step F too low: {avg} ({fs:?})");
}

#[test]
fn scrollbar_recall_monotone_precision_tradeoff() {
    let (pos, neg) = scholar_rules();
    let lg = scholar_page("mono", &ScholarConfig::default_page(8));
    let d = discover_fast(&lg.group, &pos, &neg);
    let metrics: Vec<_> =
        d.steps.iter().map(|s| evaluate_sets(s.flagged.iter(), lg.truth.iter())).collect();
    for w in metrics.windows(2) {
        assert!(w[1].recall >= w[0].recall - 1e-12, "recall must not drop along the scrollbar");
    }
    // The first rule is the most conservative: its precision is the best.
    let p0 = metrics[0].precision;
    assert!(
        metrics.iter().skip(1).all(|m| m.precision <= p0 + 0.15),
        "NR1 should be (near-)best precision: {metrics:?}"
    );
}

#[test]
fn errors_isolate_in_small_partitions() {
    // Table I's headline: positive rules never absorb injected errors into
    // big partitions.
    let (pos, _) = scholar_rules();
    let mut fractions = Vec::new();
    for seed in [12u64, 13, 14] {
        let lg = scholar_page("tbl1", &ScholarConfig::default_page(seed));
        let d = discover_fast(&lg.group, &pos, &[]);
        let truth: HashSet<usize> = lg.truth.iter().copied().collect();
        let stats = PartitionStats::compute(&d.partitions, &truth);
        fractions.push(stats.small_partition_error_fraction());
        // The pivot contains none of them (an occasional same-subfield
        // namesake may land in a mid-sized side-project partition, exactly
        // like the paper's Divyakant row — but never in the pivot).
        assert!(d.pivot_members().iter().all(|e| !truth.contains(e)));
    }
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    assert!(avg >= 0.85, "errors must concentrate in partitions of size < 10: {fractions:?}");
}

#[test]
fn amazon_precision_improves_with_error_rate() {
    let (pos, neg) = amazon_rules();
    let prec = |e: f64| {
        let mut ps = Vec::new();
        for seed in [5u64, 6, 7] {
            let lg = amazon_category(&AmazonConfig::new(0, 150, e, seed));
            let d = discover_fast(&lg.group, &pos, &neg);
            let m = evaluate_sets(d.mis_categorized().iter(), lg.truth.iter());
            ps.push(m.precision);
        }
        ps.iter().sum::<f64>() / ps.len() as f64
    };
    let low = prec(0.1);
    let high = prec(0.4);
    assert!(high >= low - 0.05, "precision should not degrade with e%: {low} → {high}");
}

#[test]
fn pivot_is_never_flagged() {
    for seed in [3u64, 9] {
        let lg = amazon_category(&AmazonConfig::new(2, 80, 0.3, seed));
        let (pos, neg) = amazon_rules();
        let d = discover_fast(&lg.group, &pos, &neg);
        let flagged = d.mis_categorized();
        assert!(d.pivot_members().iter().all(|e| !flagged.contains(e)));
    }
}

#[test]
fn incremental_matches_batch_on_scholar_stream() {
    use dime::core::IncrementalDime;
    // Re-play a generated page into the incremental engine one entity at a
    // time and compare against a from-scratch batch run at several cuts.
    let lg = scholar_page("stream", &ScholarConfig::small(29));
    let (pos, neg) = scholar_rules();

    // An empty group sharing the page's schema + ontologies: rebuild via a
    // builder with the same attachments.
    let mut builder = dime::core::GroupBuilder::new(dime::data::scholar_schema());
    builder.attach_ontology("Venue", std::sync::Arc::new(dime::data::venue_ontology()));
    let empty = builder.build();
    let mut inc = IncrementalDime::new(empty, pos.clone(), neg.clone());

    let attrs = lg.group.schema().len();
    for id in 0..lg.group.len() {
        let e = lg.group.entity(id);
        let values: Vec<&str> = (0..attrs).map(|a| e.value(a).text.as_str()).collect();
        let nodes: Vec<Option<dime::ontology::NodeId>> = (0..attrs)
            .map(|a| {
                // Title nodes come from the page's own theme model whose
                // ontology we did not attach — drop them on both sides by
                // keeping venue nodes only (venue ontology node ids are
                // identical because `venue_ontology()` is deterministic).
                if a == dime::data::scholar_attr::VENUE {
                    e.value(a).node
                } else {
                    None
                }
            })
            .collect();
        inc.add_entity_with_nodes(&values, &nodes);

        if id > 0 && id % 17 == 0 {
            let d = inc.discovery();
            let batch = dime::core::discover_naive(inc.group(), &pos, &neg);
            assert_eq!(d, batch, "diverged after {} entities", id + 1);
        }
    }
    let d = inc.discovery();
    assert_eq!(d, dime::core::discover_naive(inc.group(), &pos, &neg));
}

/// A live session's counted work, pinned. A seeded 300-row Scholar page is
/// replayed into `IncrementalDime`, then grows by 40 adds of 4 rows with a
/// discovery after each (the shape of a `dime-serve` curation session),
/// then loses one pivot member. `pairs_verified` is a golden value: a
/// change to *how* the engine verifies a pair must not change *which*
/// pairs it verifies.
#[test]
fn live_session_work_is_pinned_on_a_scholar_page() {
    use dime::core::{GroupBuilder, IncrementalDime};
    use std::sync::Arc;
    let lg = scholar_page("live", &ScholarConfig::scaled_to(470, 1101));
    assert!(lg.group.len() >= 460, "page too small: {}", lg.group.len());
    let (pos, neg) = scholar_rules();

    let schema = lg.group.schema();
    let mut builder = GroupBuilder::new(schema.clone());
    for (i, def) in schema.attrs().iter().enumerate() {
        if let Some(ont) = lg.group.ontology(i) {
            builder.attach_ontology(&def.name, Arc::new(ont.clone()));
        }
    }
    let mut inc = IncrementalDime::new(builder.build(), pos.clone(), neg.clone());
    let replay = |inc: &mut IncrementalDime, id: usize| {
        let e = lg.group.entity(id);
        let values: Vec<&str> = e.values.iter().map(|v| v.text.as_str()).collect();
        let nodes: Vec<_> = e.values.iter().map(|v| v.node).collect();
        inc.add_entity_with_nodes(&values, &nodes);
    };
    for id in 0..300 {
        replay(&mut inc, id);
    }
    for add in 0..40 {
        for id in 300 + 4 * add..304 + 4 * add {
            replay(&mut inc, id);
        }
        let _ = inc.discovery();
    }
    let victim = inc.discovery().pivot_members()[0];
    assert!(inc.remove_entity(victim));

    assert_eq!(inc.pairs_verified(), 1_120);
    assert_eq!(inc.discovery(), discover_fast(inc.group(), &pos, &neg));
}
