//! Differential pin for the rulespec DSL: a rule set written in rulespec
//! syntax must be indistinguishable from the same rules written as Rust
//! structs — bit-identical compiled predicates, and identical discovery
//! reports and verification counters on DBGen groups across every engine
//! (fast, parallel, incremental). This is the contract that makes a
//! live-installed `.rulespec` file trustworthy: nothing about going
//! through the parser changes what the engines compute.

use dime::core::{discover_fast, discover_parallel, IncrementalDime};
use dime::data::{dbgen_group, dbgen_rules, discovery_to_json, DbgenConfig};
use dime::rulespec::{compile_str, render_rules};

/// The DBGen entity-matching rule set of `dbgen_rules()`, hand-written in
/// rulespec syntax (not rendered from the structs, so the test exercises
/// the parser's own path through numbers, conjunctions, and both
/// polarities).
const DBGEN_SPEC: &str = "\
same(X, Y) :- jaccard(Name) >= 0.5, jaccard(Address) >= 0.4.
same(X, Y) :- edit_sim(Name) >= 0.8, jaccard(City) >= 1.0.
diff(X, Y) :- overlap(Name) <= 0.
diff(X, Y) :- jaccard(Name) <= 0.2, overlap(Address) <= 0.
";

#[test]
fn dsl_compiles_to_bit_identical_rules() {
    let lg = dbgen_group(&DbgenConfig::new(200, 11));
    let schema = lg.group.schema();
    let (pos, neg) = dbgen_rules();
    let compiled = compile_str("dbgen.rulespec", DBGEN_SPEC, schema).expect("spec compiles");
    assert_eq!(compiled.positive, pos, "positive rules must match predicate-for-predicate");
    assert_eq!(compiled.negative, neg, "negative rules must match predicate-for-predicate");

    // And the rendered canonical form closes the loop: render → compile
    // is the identity on the native structs.
    let rendered = render_rules(&pos, &neg, schema).expect("native rules render");
    let reparsed = compile_str("rendered.rulespec", &rendered, schema).expect("render reparses");
    assert_eq!(reparsed.positive, pos);
    assert_eq!(reparsed.negative, neg);
}

#[test]
fn dsl_rules_discover_identically_on_dbgen_across_engines() {
    let (pos, neg) = dbgen_rules();
    for seed in [3, 91] {
        let lg = dbgen_group(&DbgenConfig::new(600, seed));
        let compiled =
            compile_str("dbgen.rulespec", DBGEN_SPEC, lg.group.schema()).expect("spec compiles");

        // Fast engine: the full report (partitions, steps, witnesses)
        // must be byte-identical through the JSON serialization.
        let native = discovery_to_json(&lg.group, &discover_fast(&lg.group, &pos, &neg));
        let dsl = discovery_to_json(
            &lg.group,
            &discover_fast(&lg.group, &compiled.positive, &compiled.negative),
        );
        assert_eq!(dsl, native, "fast engine diverged on seed {seed}");

        // Parallel engine: sharded filter–verify must agree too.
        let par_native = discovery_to_json(&lg.group, &discover_parallel(&lg.group, &pos, &neg, 4));
        let par_dsl = discovery_to_json(
            &lg.group,
            &discover_parallel(&lg.group, &compiled.positive, &compiled.negative, 4),
        );
        assert_eq!(par_dsl, par_native, "parallel engine diverged on seed {seed}");
        assert_eq!(par_native, native, "parallel engine diverged from fast on seed {seed}");

        // Incremental engine: same discovery *and* the same number of
        // verified pairs — the DSL path must not change what gets
        // verified, only how the rules were written down.
        let inc_native = IncrementalDime::new(lg.group.clone(), pos.clone(), neg.clone());
        let inc_dsl = IncrementalDime::new(lg.group.clone(), compiled.positive, compiled.negative);
        assert_eq!(
            discovery_to_json(&lg.group, &inc_dsl.discovery()),
            discovery_to_json(&lg.group, &inc_native.discovery()),
            "incremental engine diverged on seed {seed}"
        );
        assert_eq!(
            inc_dsl.pairs_verified(),
            inc_native.pairs_verified(),
            "verification counters diverged on seed {seed}"
        );
    }
}

#[test]
fn installed_spec_matches_struct_rules_through_set_rules() {
    // The live-install path: an engine whose rules are replaced via
    // `set_rules` with DSL-compiled rules must answer exactly like an
    // engine constructed with the equivalent structs.
    let (pos, neg) = dbgen_rules();
    let lg = dbgen_group(&DbgenConfig::new(300, 17));
    let compiled =
        compile_str("dbgen.rulespec", DBGEN_SPEC, lg.group.schema()).expect("spec compiles");

    // Start from a deliberately different rule set, then install.
    let seed_pos = vec![pos[0].clone()];
    let seed_neg = vec![neg[0].clone()];
    let mut installed = IncrementalDime::new(lg.group.clone(), seed_pos, seed_neg);
    installed.set_rules(compiled.positive, compiled.negative);

    let native = IncrementalDime::new(lg.group.clone(), pos, neg);
    assert_eq!(
        discovery_to_json(&lg.group, &installed.discovery()),
        discovery_to_json(&lg.group, &native.discovery()),
        "set_rules with DSL-compiled rules must be indistinguishable from construction"
    );
}
