//! `dime` — command-line discovery of mis-categorized entities.
//!
//! ```text
//! dime discover --group <group.json> --rules <rules.txt> [--engine fast|naive] [--json] [--explain] [--trace]
//! dime learn    --group <group.json> --truth <ids.json>
//! dime demo     <scholar|amazon> [--seed N] [--json]
//! dime check-rules --group <group.json> --rules <rules.txt>
//! dime stats    --group <group.json>
//! dime serve    [--addr H:P] [--workers N] [--max-frame-bytes N] [--max-entities N] [--max-sessions N]
//!               [--queue-capacity N]
//!               [--data-dir DIR] [--fsync always|never|interval[:ms]] [--snapshot-every N]
//! dime client   --addr H:P <op> [op args]
//! dime rules    check --spec <file.rulespec> --group <group.json>
//! dime rules    <install|list|ablate|feedback> --addr H:P --session ID [action args]
//! dime cluster-shard  --data-dir DIR [--addr H:P] [--replicate-to H:P] [serve knobs]
//! dime cluster-shard  --follower --data-dir DIR [--repl-addr H:P] [--serve-addr H:P] [--workers N]
//! dime cluster-router --shard H:P[,FOLLOWER_H:P] ... [--addr H:P] [--pool N] [--vnodes N]
//!                     [--probe-interval-ms N] [--fail-threshold N]
//!                     [--probe-timeout-ms N] [--promote-timeout-ms N]
//! ```
//!
//! `discover` loads a JSON group document (see `dime_data::load_group_json`
//! for the format) and a rule file in the textual DSL
//! (`dime_core::parse_rules`), runs DIME⁺ (or Algorithm 1 with
//! `--engine naive`), and prints a human-readable report — or the full JSON
//! report with `--json`. `--trace` records the engine's phase spans and
//! counters through a `dime-trace` recorder and appends the per-phase
//! breakdown (a table, or a `"trace"` object under `--json`).
//!
//! `demo` generates a synthetic Scholar page or Amazon category with known
//! ground truth and reports precision/recall per scrollbar step.
//!
//! `serve` hosts live groups over the incremental engine behind the
//! JSON-lines TCP protocol of the `dime-serve` crate, and `client` sends
//! one protocol request to a running server (see the README's "Running as
//! a service" section for the protocol reference).
//!
//! `rules` works with rulespec programs (the declarative rule DSL of the
//! `dime-rulespec` crate): `check` compiles a `.rulespec` file against a
//! group's schema locally and prints the canonical form, while `install`,
//! `list`, `ablate`, and `feedback` drive a live session's rule set over
//! the wire.

use dime::cluster::{
    Follower, FollowerConfig, FollowerLink, HealthConfig, Router, RouterConfig, ShardSpec,
};
use dime::core::{
    discover_fast, discover_fast_traced, discover_naive, parse_rules, DimePlusConfig, Discovery,
    Group, GroupStats, Polarity, Rule,
};
use dime::data::{
    amazon_category, amazon_rules, discovery_to_json, load_group_json, scholar_page, scholar_rules,
    AmazonConfig, LabeledGroup, ScholarConfig,
};
use dime::serve::metrics::trace_report_to_value;
use dime::serve::{Client, ClientError, Request, ServeConfig, Server, WalTapHandle};
use dime::store::{FsyncPolicy, StoreConfig};
use dime::trace::{Recorder, TraceReport};
use serde_json::{json, Value};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("discover") => cmd_discover(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("check-rules") => cmd_check_rules(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("learn") => cmd_learn(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("rules") => cmd_rules(&args[1..]),
        Some("cluster-shard") => cmd_cluster_shard(&args[1..]),
        Some("cluster-router") => cmd_cluster_router(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "dime — discover mis-categorized entities (ICDE 2018)\n\n\
         USAGE:\n\
         \x20 dime discover --group <group.json> --rules <rules.txt> [--engine fast|naive] [--json] [--trace]\n\
         \x20 dime demo <scholar|amazon> [--seed N] [--json]\n\
         \x20 dime check-rules --group <group.json> --rules <rules.txt>\n\
         \x20 dime stats --group <group.json>\n\
         \x20 dime learn --group <group.json> --truth <ids.json>\n\
         \x20 dime serve [--addr H:P] [--workers N] [--max-frame-bytes N] [--max-entities N] [--max-sessions N]\n\
         \x20            [--queue-capacity N]\n\
         \x20            [--data-dir DIR] [--fsync always|never|interval[:ms]] [--snapshot-every N]\n\
         \x20 dime client --addr H:P <ping|create|add|remove|discovery|scrollbar|stats|trace|close|shutdown> [op args]\n\
         \x20 dime rules check --spec <file.rulespec> --group <group.json>\n\
         \x20 dime rules install --addr H:P --session ID --spec <file.rulespec> [--strict]\n\
         \x20 dime rules list --addr H:P --session ID\n\
         \x20 dime rules ablate --addr H:P --session ID --polarity positive|negative --index N\n\
         \x20 dime rules feedback --addr H:P --session ID --labels <labels.json> [--apply]\n\
         \x20 dime cluster-shard --data-dir DIR [--addr H:P] [--replicate-to H:P] [serve knobs]\n\
         \x20 dime cluster-shard --follower --data-dir DIR [--repl-addr H:P] [--serve-addr H:P] [--workers N]\n\
         \x20 dime cluster-router --shard H:P[,FOLLOWER_H:P] ... [--addr H:P] [--pool N] [--vnodes N]\n\
         \x20                     [--probe-interval-ms N] [--fail-threshold N]\n\
         \x20                     [--probe-timeout-ms N] [--promote-timeout-ms N]\n\n\
         Rule file format (one rule per line, '#' comments):\n\
         \x20 positive: overlap(Authors) >= 2\n\
         \x20 positive: overlap(Authors) >= 1 and ontology(Venue) >= 0.75\n\
         \x20 negative: overlap(Authors) <= 0"
    );
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn has_flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == key)
}

/// Writes a JSON value to stdout (pretty-printed, newline-terminated)
/// without panicking: a broken pipe (`dime … --json | head`) exits as a
/// clean success, and serialization or write failures become error exits
/// instead of unwinding through `println!`.
fn emit_json(value: &Value) -> ExitCode {
    let text = match serde_json::to_string_pretty(value) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: failed to serialize the report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout().lock();
    let written = out
        .write_all(text.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush());
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: failed to write the report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_inputs(args: &[String]) -> Result<(Group, Vec<Rule>, Vec<Rule>), String> {
    let group_path = flag_value(args, "--group").ok_or("missing --group <file>")?;
    let rules_path = flag_value(args, "--rules").ok_or("missing --rules <file>")?;
    let group_text =
        std::fs::read_to_string(group_path).map_err(|e| format!("{group_path}: {e}"))?;
    let rules_text =
        std::fs::read_to_string(rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
    let group = load_group_json(&group_text).map_err(|e| e.to_string())?;
    let rules = parse_rules(&rules_text, group.schema()).map_err(|e| e.to_string())?;
    let (pos, neg): (Vec<_>, Vec<_>) =
        rules.into_iter().partition(|r| r.polarity == Polarity::Positive);
    if pos.is_empty() {
        return Err("rule file contains no positive rules".into());
    }
    if neg.is_empty() {
        return Err("rule file contains no negative rules".into());
    }
    Ok((group, pos, neg))
}

fn cmd_discover(args: &[String]) -> ExitCode {
    let (group, pos, neg) = match load_inputs(args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if group.is_empty() {
        eprintln!("error: the group is empty");
        return ExitCode::FAILURE;
    }
    let trace = has_flag(args, "--trace");
    let recorder = Recorder::new();
    let start = Instant::now();
    let discovery = match flag_value(args, "--engine") {
        Some("naive") => {
            if trace {
                eprintln!("error: --trace needs the fast engine (naive is not instrumented)");
                return ExitCode::FAILURE;
            }
            discover_naive(&group, &pos, &neg)
        }
        Some("fast") | None => {
            if trace {
                discover_fast_traced(&group, &pos, &neg, DimePlusConfig::default(), &recorder)
            } else {
                discover_fast(&group, &pos, &neg)
            }
        }
        Some(other) => {
            eprintln!("error: unknown engine {other:?} (use 'fast' or 'naive')");
            return ExitCode::FAILURE;
        }
    };
    let wall = start.elapsed();
    if has_flag(args, "--json") {
        let mut v = discovery_to_json(&group, &discovery);
        if trace {
            let mut t = trace_report_to_value(&recorder.snapshot());
            if let Some(obj) = t.as_object_mut() {
                obj.insert(
                    "wall_ns".into(),
                    json!(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX)),
                );
            }
            if let Some(obj) = v.as_object_mut() {
                obj.insert("trace".into(), t);
            }
        }
        return emit_json(&v);
    }
    print_report(&group, &discovery, has_flag(args, "--explain"), &neg);
    if trace {
        print_trace(&recorder.snapshot(), wall);
    }
    ExitCode::SUCCESS
}

/// The five top-level engine phases tile a discovery run: they never nest
/// among themselves, so their summed durations approximate wall-clock
/// (worker spans nest inside `verify` and are reported but not summed).
const TILING_PHASES: [&str; 5] = ["signature_build", "index_probe", "verify", "union", "flag"];

/// Prints the `--trace` breakdown: phase table with wall-clock share,
/// engine counters, and per-rule hit counts.
fn print_trace(report: &TraceReport, wall: Duration) {
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX).max(1);
    println!(
        "\ntrace: wall {:.3} ms, {} span(s) recorded ({} dropped)",
        wall_ns as f64 / 1e6,
        report.spans.len(),
        report.dropped_spans
    );
    println!("  {:<18} {:>7} {:>12} {:>8}", "phase", "count", "total ms", "% wall");
    let mut tiled_ns = 0u64;
    for p in &report.phases {
        let nested = if TILING_PHASES.contains(&p.name.as_str()) {
            tiled_ns += p.total_ns;
            ""
        } else {
            "  (nested)"
        };
        println!(
            "  {:<18} {:>7} {:>12.3} {:>7.1}%{nested}",
            p.name,
            p.count,
            p.total_ns as f64 / 1e6,
            p.total_ns as f64 * 100.0 / wall_ns as f64
        );
    }
    println!(
        "  phases cover {:.3} ms = {:.1}% of wall-clock",
        tiled_ns as f64 / 1e6,
        tiled_ns as f64 * 100.0 / wall_ns as f64
    );
    if !report.counters.is_empty() {
        println!("\ncounters:");
        for (name, value) in &report.counters {
            println!("  {name:<28} {value}");
        }
    }
    if !report.rule_hits.is_empty() {
        println!("\nrule hits:");
        for r in &report.rule_hits {
            println!("  {} rule #{}: {} hit(s)", r.kind.label(), r.rule + 1, r.hits);
        }
    }
}

fn print_report(group: &Group, discovery: &Discovery, explain: bool, negative: &[Rule]) {
    println!(
        "{} entities → {} partitions (pivot: {} entities)",
        group.len(),
        discovery.partitions.len(),
        discovery.pivot_members().len()
    );
    for step in &discovery.steps {
        println!("  with {} negative rule(s): {} flagged", step.rules_applied, step.flagged.len());
    }
    let flagged = discovery.mis_categorized();
    if flagged.is_empty() {
        println!("\nno mis-categorized entities discovered");
        return;
    }
    println!("\nmis-categorized entities:");
    let names: Vec<&str> = group.schema().attrs().iter().map(|a| a.name.as_str()).collect();
    for id in flagged {
        let e = group.entity(id);
        let summary: Vec<String> = names
            .iter()
            .enumerate()
            .filter(|(k, _)| !e.value(*k).text.is_empty())
            .take(3)
            .map(|(k, n)| format!("{n}: {}", e.value(k).text))
            .collect();
        println!("  [{id}] {}", summary.join(" | "));
        if explain {
            if let Some(w) = discovery.witness_for(id) {
                println!(
                    "        flagged by negative rule #{}: {}",
                    w.rule + 1,
                    negative[w.rule].to_dsl(group.schema())
                );
                let p = group.entity(w.pivot_entity);
                let first = names.first().copied().unwrap_or("?");
                println!(
                    "        witness pair: [{}] vs pivot [{}] ({}: {})",
                    w.entity,
                    w.pivot_entity,
                    first,
                    p.value(0).text
                );
            }
        }
    }
}

/// `dime learn`: derive positive/negative rules from a labeled group.
///
/// `--truth` is a JSON array of mis-categorized entity ids. Prints a rule
/// file (the DSL) learned by the greedy DIME-Rule algorithm, ready for
/// `dime discover --rules`.
fn cmd_learn(args: &[String]) -> ExitCode {
    use dime::data::{ExampleSet, LabeledGroup};
    use dime::rulegen::{
        generate_negative_rules, generate_positive_rules, FunctionLibrary, GreedyConfig,
    };
    let (Some(group_path), Some(truth_path)) =
        (flag_value(args, "--group"), flag_value(args, "--truth"))
    else {
        eprintln!("error: learn needs --group <group.json> and --truth <ids.json>");
        return ExitCode::FAILURE;
    };
    let group_text = match std::fs::read_to_string(group_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {group_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let group = match load_group_json(&group_text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let truth_text = match std::fs::read_to_string(truth_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {truth_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let truth_ids: Vec<usize> = match serde_json::from_str(&truth_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: --truth must be a JSON array of entity ids: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(&bad) = truth_ids.iter().find(|&&id| id >= group.len()) {
        eprintln!("error: truth id {bad} out of range (group has {} entities)", group.len());
        return ExitCode::FAILURE;
    }
    let schema = group.schema().clone();
    let lg = LabeledGroup {
        name: group_path.to_string(),
        group,
        truth: truth_ids.into_iter().collect(),
    };
    let ex = ExampleSet::from_labeled(&lg, 250, 250);
    if ex.positive.is_empty() || ex.negative.is_empty() {
        eprintln!("error: need both correct and mis-categorized entities to learn from");
        return ExitCode::FAILURE;
    }
    let library = FunctionLibrary::default_for(&lg.group);
    let cfg = GreedyConfig::default();
    let pos = generate_positive_rules(&lg.group, &ex.positive, &ex.negative, &library, &cfg);
    let neg = generate_negative_rules(&lg.group, &ex.positive, &ex.negative, &library, &cfg);
    if pos.is_empty() || neg.is_empty() {
        eprintln!("error: no discriminating rules found — check the labels");
        return ExitCode::FAILURE;
    }
    println!(
        "# learned from {} positive / {} negative examples",
        ex.positive.len(),
        ex.negative.len()
    );
    for r in pos.iter().chain(neg.iter()) {
        println!("{}", r.to_dsl(&schema));
    }
    ExitCode::SUCCESS
}

fn cmd_demo(args: &[String]) -> ExitCode {
    let seed: u64 = flag_value(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let (lg, pos, neg): (LabeledGroup, _, _) = match args.first().map(String::as_str) {
        Some("scholar") => {
            let lg = scholar_page("demo", &ScholarConfig::default_page(seed));
            let (p, n) = scholar_rules();
            (lg, p, n)
        }
        Some("amazon") => {
            let lg = amazon_category(&AmazonConfig::new(0, 200, 0.2, seed));
            let (p, n) = amazon_rules();
            (lg, p, n)
        }
        _ => {
            eprintln!("error: demo needs a dataset: scholar | amazon");
            return ExitCode::FAILURE;
        }
    };
    let discovery = discover_fast(&lg.group, &pos, &neg);
    if has_flag(args, "--json") {
        return emit_json(&discovery_to_json(&lg.group, &discovery));
    }
    println!(
        "synthetic {} group: {} entities, {} truly mis-categorized\n",
        lg.name,
        lg.group.len(),
        lg.truth.len()
    );
    for step in &discovery.steps {
        let m = dime::metrics::evaluate_sets(step.flagged.iter(), lg.truth.iter());
        println!(
            "  with {} negative rule(s): {:3} flagged | precision {:.2} recall {:.2} F {:.2}",
            step.rules_applied,
            step.flagged.len(),
            m.precision,
            m.recall,
            m.f_measure
        );
    }
    ExitCode::SUCCESS
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let Some(group_path) = flag_value(args, "--group") else {
        eprintln!("error: missing --group <file>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(group_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {group_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match load_group_json(&text) {
        Ok(group) => {
            print!("{}", GroupStats::compute(&group));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses an optional numeric flag, distinguishing "absent" from
/// "unparsable" so typos fail loudly instead of silently using a default.
fn numeric_flag<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    match flag_value(args, key) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("{key} needs a number, got {v:?}")),
    }
}

/// The [`ServeConfig`] of `dime serve`'s flags, shared with
/// `dime cluster-shard`: `--addr` (default `default_addr`), the numeric
/// knobs, and `--data-dir` with its `--fsync` / `--snapshot-every`.
fn serve_config_from_flags(args: &[String], default_addr: &str) -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        addr: flag_value(args, "--addr").unwrap_or(default_addr).to_string(),
        ..ServeConfig::default()
    };
    let knobs: [(&str, &mut usize); 5] = [
        ("--workers", &mut config.workers),
        ("--max-frame-bytes", &mut config.max_frame_bytes),
        ("--max-entities", &mut config.max_entities_per_request),
        ("--max-sessions", &mut config.max_sessions),
        ("--queue-capacity", &mut config.queue_capacity),
    ];
    for (key, slot) in knobs {
        if let Some(n) = numeric_flag(args, key)? {
            *slot = n;
        }
    }
    if let Some(dir) = flag_value(args, "--data-dir") {
        let mut store = StoreConfig::new(dir);
        if let Some(policy) = flag_value(args, "--fsync") {
            store.fsync = FsyncPolicy::parse(policy).map_err(|e| format!("--fsync: {e}"))?;
        }
        if let Some(n) = numeric_flag(args, "--snapshot-every")? {
            store.snapshot_every = n;
        }
        config.store = Some(store);
    } else if flag_value(args, "--fsync").is_some()
        || flag_value(args, "--snapshot-every").is_some()
    {
        return Err("--fsync and --snapshot-every need --data-dir".into());
    }
    Ok(config)
}

/// Binds `config`, announces `"{role} listening on <addr>"` on stdout
/// (scripts parse the address off the end of the line; port 0 picks a
/// free port), and serves until a `shutdown` request has drained.
fn bind_and_serve(config: ServeConfig, role: &str) -> ExitCode {
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{role} listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            eprintln!("{role} drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {role} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dime serve`: host live groups behind the `dime-serve` TCP protocol.
/// Runs until a client sends `{"op": "shutdown"}`, then drains and exits.
fn cmd_serve(args: &[String]) -> ExitCode {
    match serve_config_from_flags(args, "127.0.0.1:7878") {
        Ok(config) => bind_and_serve(config, "dime-serve"),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dime client`: send one protocol request to a running server and print
/// the JSON payload of the response.
fn cmd_client(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("error: client needs --addr <host:port>");
        return ExitCode::FAILURE;
    };
    let req = match build_client_request(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: failed to connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.call(&req) {
        Ok(payload) => emit_json(&payload),
        Err(ClientError::Server { code, message }) => {
            eprintln!("server error {code}: {message}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the protocol request described by `dime client` operands.
fn build_client_request(args: &[String]) -> Result<Request, String> {
    let session = || -> Result<u64, String> {
        numeric_flag(args, "--session")?.ok_or_else(|| "missing --session <id>".to_string())
    };
    // The op is the first positional argument — skip every flag together
    // with its value so `--addr 1.2.3.4:7 stats --session 5` parses
    // regardless of ordering.
    const VALUED_FLAGS: [&str; 7] =
        ["--addr", "--session", "--entity", "--step", "--group", "--rules", "--entities"];
    let mut op = None;
    let mut i = 0;
    while i < args.len() {
        if VALUED_FLAGS.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            op = Some(args[i].as_str());
            break;
        }
    }
    let op = op.ok_or_else(|| {
        "client needs an operation: ping | create | add | remove | discovery | scrollbar | stats | trace | close | shutdown"
            .to_string()
    })?;
    match op {
        "ping" => Ok(Request::Ping),
        "create" => {
            let group_path =
                flag_value(args, "--group").ok_or("create needs --group <group.json>")?;
            let rules_path =
                flag_value(args, "--rules").ok_or("create needs --rules <rules.txt>")?;
            let group_text =
                std::fs::read_to_string(group_path).map_err(|e| format!("{group_path}: {e}"))?;
            let rules =
                std::fs::read_to_string(rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
            let group: Value = serde_json::from_str(&group_text)
                .map_err(|e| format!("{group_path}: invalid JSON: {e}"))?;
            Ok(Request::CreateSession { group, rules })
        }
        "add" => {
            let rows_path =
                flag_value(args, "--entities").ok_or("add needs --entities <rows.json>")?;
            let text =
                std::fs::read_to_string(rows_path).map_err(|e| format!("{rows_path}: {e}"))?;
            let rows: Value = serde_json::from_str(&text)
                .map_err(|e| format!("{rows_path}: invalid JSON: {e}"))?;
            let entities = rows
                .as_array()
                .cloned()
                .ok_or_else(|| format!("{rows_path}: expected a JSON array of rows"))?;
            Ok(Request::AddEntities { session: session()?, entities })
        }
        "remove" => {
            let entity = numeric_flag(args, "--entity")?.ok_or("remove needs --entity <id>")?;
            Ok(Request::RemoveEntity { session: session()?, entity })
        }
        "discovery" => Ok(Request::Discovery { session: session()? }),
        "scrollbar" => {
            let step = numeric_flag(args, "--step")?.ok_or("scrollbar needs --step <n>")?;
            Ok(Request::Scrollbar { session: session()?, step })
        }
        "stats" => Ok(Request::Stats { session: numeric_flag(args, "--session")? }),
        "trace" => Ok(Request::Trace),
        "close" => Ok(Request::CloseSession { session: session()? }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown client operation {other:?}")),
    }
}

/// `dime rules`: compile and manage rulespec programs. `check` runs
/// entirely locally (compile + canonical pretty-print, no server); the
/// other actions drive a live session's rule set over the wire.
fn cmd_rules(args: &[String]) -> ExitCode {
    // The action is the first positional argument; skip flags with values
    // so ordering doesn't matter (same discipline as `dime client`).
    const VALUED_FLAGS: [&str; 7] =
        ["--addr", "--session", "--spec", "--group", "--polarity", "--index", "--labels"];
    let mut action = None;
    let mut i = 0;
    while i < args.len() {
        if VALUED_FLAGS.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            action = Some(args[i].as_str());
            break;
        }
    }
    let Some(action) = action else {
        eprintln!("error: rules needs an action: check | install | list | ablate | feedback");
        return ExitCode::FAILURE;
    };
    if action == "check" {
        return cmd_rules_check(args);
    }
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("error: rules {action} needs --addr <host:port>");
        return ExitCode::FAILURE;
    };
    let session = match numeric_flag::<u64>(args, "--session") {
        Ok(Some(s)) => s,
        Ok(None) => {
            eprintln!("error: rules {action} needs --session <id>");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: failed to connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match action {
        "install" => {
            let Some(spec_path) = flag_value(args, "--spec") else {
                eprintln!("error: rules install needs --spec <file.rulespec>");
                return ExitCode::FAILURE;
            };
            let spec = match std::fs::read_to_string(spec_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {spec_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            client.rules_install_opts(session, &spec, has_flag(args, "--strict"))
        }
        "list" => client.rules_list(session),
        "ablate" => {
            let polarity = match flag_value(args, "--polarity") {
                Some("positive") => Polarity::Positive,
                Some("negative") => Polarity::Negative,
                Some(other) => {
                    eprintln!("error: --polarity must be 'positive' or 'negative', got {other:?}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("error: rules ablate needs --polarity positive|negative");
                    return ExitCode::FAILURE;
                }
            };
            let index = match numeric_flag::<usize>(args, "--index") {
                Ok(Some(n)) => n,
                Ok(None) => {
                    eprintln!("error: rules ablate needs --index <n>");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            client.rules_ablate(session, polarity, index)
        }
        "feedback" => {
            let Some(labels_path) = flag_value(args, "--labels") else {
                eprintln!("error: rules feedback needs --labels <labels.json>");
                return ExitCode::FAILURE;
            };
            let labels = match read_labels(labels_path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            client.feedback(session, &labels, has_flag(args, "--apply"))
        }
        other => {
            eprintln!("error: unknown rules action {other:?} (check | install | list | ablate | feedback)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(payload) => emit_json(&payload),
        Err(ClientError::Server { code, message }) => {
            eprintln!("server error {code}: {message}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dime rules check`: compile a rulespec file against a group's schema
/// and print the canonical form — the offline half of an install, with
/// the same `file:line:col` diagnostics a server rejection would carry.
fn cmd_rules_check(args: &[String]) -> ExitCode {
    let (Some(spec_path), Some(group_path)) =
        (flag_value(args, "--spec"), flag_value(args, "--group"))
    else {
        eprintln!("error: rules check needs --spec <file.rulespec> and --group <group.json>");
        return ExitCode::FAILURE;
    };
    let spec_text = match std::fs::read_to_string(spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let group_text = match std::fs::read_to_string(group_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {group_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let group = match load_group_json(&group_text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match dime::rulespec::compile_str(spec_path, &spec_text, group.schema()) {
        Ok(c) => c,
        Err(d) => {
            eprintln!("error: {d}");
            return ExitCode::FAILURE;
        }
    };
    let canonical = match dime::rulespec::render_rules(
        &compiled.positive,
        &compiled.negative,
        group.schema(),
    ) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: failed to render the compiled spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} positive / {} negative rule(s) compile cleanly against {}",
        compiled.positive.len(),
        compiled.negative.len(),
        group_path
    );
    print!("{canonical}");
    // The same semantic pass a server runs at install: warnings here,
    // `rule_rejected` under `dime rules install --strict`.
    let findings = dime::rulespec::semck_spec(&compiled, group.schema());
    for f in &findings {
        eprintln!("warning[{}]: {}", f.kind.tag(), f.message);
    }
    if !findings.is_empty() {
        eprintln!(
            "# {} semantic warning(s); `rules install --strict` would reject this spec",
            findings.len()
        );
    }
    ExitCode::SUCCESS
}

/// Reads a feedback label file: a JSON array of `[entity_id, belongs]`
/// pairs, the same shape the wire op carries.
fn read_labels(path: &str) -> Result<Vec<(usize, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let arr = value
        .as_array()
        .ok_or_else(|| format!("{path}: expected a JSON array of [entity, belongs] pairs"))?;
    let mut labels = Vec::with_capacity(arr.len());
    for (i, pair) in arr.iter().enumerate() {
        let cells = pair
            .as_array()
            .ok_or_else(|| format!("{path}: label {i} is not a [entity, belongs] pair"))?;
        let (Some(entity), Some(belongs)) =
            (cells.first().and_then(Value::as_u64), cells.get(1).and_then(Value::as_bool))
        else {
            return Err(format!("{path}: label {i} must be [non-negative integer, boolean]"));
        };
        labels.push((entity as usize, belongs));
    }
    Ok(labels)
}

/// Every value of a repeatable flag, in order (`--shard a --shard b`).
fn flag_values<'a>(args: &'a [String], key: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == key {
            if let Some(v) = args.get(i + 1) {
                out.push(v.as_str());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// `dime cluster-shard`: one shard of a dime cluster. Without
/// `--follower`, a persistent `dime serve` whose committed WAL records
/// are optionally streamed to a follower (`--replicate-to`). With
/// `--follower`, the warm replica itself: it mirrors a primary's log and
/// promotes into a full server when the router asks.
fn cmd_cluster_shard(args: &[String]) -> ExitCode {
    if has_flag(args, "--follower") {
        return cmd_cluster_follower(args);
    }
    if flag_value(args, "--data-dir").is_none() {
        eprintln!("error: cluster-shard needs --data-dir (shards are persistent)");
        return ExitCode::FAILURE;
    }
    let mut config = match serve_config_from_flags(args, "127.0.0.1:0") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(follower) = flag_value(args, "--replicate-to") {
        let link = FollowerLink::new(follower.to_string(), Duration::from_secs(5));
        config.replication = Some(WalTapHandle::new(std::sync::Arc::new(link)));
    }
    bind_and_serve(config, "dime-cluster shard")
}

/// The `--follower` form of `cluster-shard`: mirror a primary's WAL
/// stream, ack by sequence number, serve after promotion.
fn cmd_cluster_follower(args: &[String]) -> ExitCode {
    let Some(dir) = flag_value(args, "--data-dir") else {
        eprintln!("error: cluster-shard --follower needs --data-dir");
        return ExitCode::FAILURE;
    };
    let mut config = FollowerConfig { data_dir: dir.into(), ..FollowerConfig::default() };
    if let Some(addr) = flag_value(args, "--repl-addr") {
        config.addr = addr.to_string();
    }
    if let Some(addr) = flag_value(args, "--serve-addr") {
        config.serve_addr = addr.to_string();
    }
    match numeric_flag(args, "--workers") {
        Ok(None) => {}
        Ok(Some(n)) => config.workers = n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(policy) = flag_value(args, "--fsync") {
        match FsyncPolicy::parse(policy) {
            Ok(p) => config.fsync = p,
            Err(e) => {
                eprintln!("error: --fsync: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match numeric_flag(args, "--snapshot-every") {
        Ok(None) => {}
        Ok(Some(n)) => config.snapshot_every = n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let follower = match Follower::bind(config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("dime-cluster follower replicating on {}", follower.local_addr());
    let _ = std::io::stdout().flush();
    match follower.run() {
        Ok(()) => {
            eprintln!("dime-cluster follower stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: follower failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dime cluster-router`: place sessions on shards by consistent
/// hashing, proxy requests, probe shard health, promote followers.
fn cmd_cluster_router(args: &[String]) -> ExitCode {
    let specs = flag_values(args, "--shard");
    if specs.is_empty() {
        eprintln!("error: cluster-router needs at least one --shard <addr>[,<follower-repl-addr>]");
        return ExitCode::FAILURE;
    }
    let shards = specs
        .iter()
        .map(|spec| {
            let (addr, follower) = match spec.split_once(',') {
                Some((a, f)) => (a, Some(f.to_string())),
                None => (*spec, None),
            };
            ShardSpec { addr: addr.to_string(), follower }
        })
        .collect();
    let mut health = HealthConfig::default();
    let millis: [(&str, &mut Duration); 3] = [
        ("--probe-interval-ms", &mut health.interval),
        ("--probe-timeout-ms", &mut health.connect_timeout),
        ("--promote-timeout-ms", &mut health.promote_timeout),
    ];
    for (key, slot) in millis {
        match numeric_flag::<u64>(args, key) {
            Ok(None) => {}
            Ok(Some(n)) => *slot = Duration::from_millis(n),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match numeric_flag::<u32>(args, "--fail-threshold") {
        Ok(None) => {}
        Ok(Some(n)) => health.fail_threshold = n.max(1),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut config = RouterConfig {
        addr: flag_value(args, "--addr").unwrap_or("127.0.0.1:0").to_string(),
        shards,
        health: Some(health),
        ..RouterConfig::default()
    };
    let knobs: [(&str, &mut usize); 2] =
        [("--pool", &mut config.pool_per_shard), ("--vnodes", &mut config.vnodes)];
    for (key, slot) in knobs {
        match numeric_flag(args, key) {
            Ok(None) => {}
            Ok(Some(n)) => *slot = n,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let router = match Router::bind(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("dime-cluster router listening on {}", router.local_addr());
    let _ = std::io::stdout().flush();
    match router.run() {
        Ok(()) => {
            eprintln!("dime-cluster router drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: router failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check_rules(args: &[String]) -> ExitCode {
    match load_inputs(args) {
        Ok((_, pos, neg)) => {
            println!("{} positive rule(s):", pos.len());
            for r in &pos {
                println!("  {r}");
            }
            println!("{} negative rule(s):", neg.len());
            for r in &neg {
                println!("  {r}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
