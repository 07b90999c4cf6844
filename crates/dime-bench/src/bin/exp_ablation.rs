//! Ablation table for DIME⁺'s verification optimizations (DESIGN.md §5).
//!
//! Switches off the union-find transitivity short-circuit, and fans the
//! engine out over eight workers, on a Scholar page and a DBGen group.
//! Every configuration runs `REPS` times; each repetition rotates which
//! configuration goes first, so warm-up and drift fall on every one in
//! turn. The table reports the median wall-clock with its interquartile
//! range and the ratio of medians against the full configuration.
//! Results are asserted identical across configurations.
//!
//! Flags: `--scholar N` (default 2000), `--dbgen N` (default 5000),
//! `--seed S`.

use dime_bench::{arg_or, Table};
use dime_core::{discover_fast_with, DimePlusConfig};
use dime_data::{
    dbgen_group, dbgen_rules, scholar_page, scholar_rules, DbgenConfig, ScholarConfig,
};
use std::time::Instant;

/// Timed repetitions of every configuration.
const REPS: usize = 5;

/// The `p`-quantile of ascending `v`, interpolated between ranks.
fn quantile(v: &[f64], p: f64) -> f64 {
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `[q1, median, q3]` of `v`, in milliseconds.
fn quartiles_ms(v: &[f64]) -> [f64; 3] {
    let mut v: Vec<f64> = v.iter().map(|s| s * 1e3).collect();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| quantile(&v, p))
}

fn main() {
    let scholar_n: usize = arg_or("scholar", 2000);
    let dbgen_n: usize = arg_or("dbgen", 5000);
    let seed: u64 = arg_or("seed", 42);

    let full = DimePlusConfig::default();
    let configs = [
        ("full (DIME+)", full),
        ("no transitivity", DimePlusConfig { transitivity_skip: false, ..full }),
        ("parallel x8", DimePlusConfig { threads: 8, ..full }),
    ];

    println!("== Ablation: DIME+ verification optimizations ({REPS} runs each, rotated) ==");
    let scholar = scholar_page("ablate", &ScholarConfig::scaled_to(scholar_n, seed));
    let (spos, sneg) = scholar_rules();
    let dbgen = dbgen_group(&DbgenConfig::new(dbgen_n, seed));
    let (dpos, dneg) = dbgen_rules();

    let reference = (
        discover_fast_with(&scholar.group, &spos, &sneg, full),
        discover_fast_with(&dbgen.group, &dpos, &dneg, full),
    );
    // Per configuration: scholar and dbgen wall-clock seconds per run.
    let mut walls = vec![(Vec::new(), Vec::new()); configs.len()];
    for rep in 0..REPS {
        for k in 0..configs.len() {
            let c = (rep + k) % configs.len();
            let (name, cfg) = configs[c];
            let t0 = Instant::now();
            let ds = discover_fast_with(&scholar.group, &spos, &sneg, cfg);
            walls[c].0.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let dd = discover_fast_with(&dbgen.group, &dpos, &dneg, cfg);
            walls[c].1.push(t0.elapsed().as_secs_f64());
            assert_eq!(ds, reference.0, "{name} changed the scholar result");
            assert_eq!(dd, reference.1, "{name} changed the dbgen result");
        }
    }

    let mut t =
        Table::new(&["config", "scholar ms", "IQR", "vs full", "dbgen ms", "IQR", "vs full"]);
    let base = (quartiles_ms(&walls[0].0)[1], quartiles_ms(&walls[0].1)[1]);
    for ((name, _), (s, d)) in configs.iter().zip(&walls) {
        let (s, d) = (quartiles_ms(s), quartiles_ms(d));
        t.row(vec![
            (*name).into(),
            format!("{:.1}", s[1]),
            format!("{:.1}–{:.1}", s[0], s[2]),
            format!("{:.2}x", s[1] / base.0),
            format!("{:.1}", d[1]),
            format!("{:.1}–{:.1}", d[0], d[2]),
            format!("{:.2}x", d[1] / base.1),
        ]);
    }
    t.print();
    println!("\n(all configurations produce identical discoveries — asserted)");
}
