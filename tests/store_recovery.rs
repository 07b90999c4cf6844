//! Crash recovery end-to-end: a real `dime serve --data-dir` process is
//! killed with SIGKILL mid-session and restarted on the same directory.
//! The recovered session must serve a discovery bit-identical to the one
//! the dead process served, keep accepting writes, and survive a second
//! kill; a session closed before the crash must stay closed.

use dime::core::{discover_fast, parse_rules, GroupBuilder, Polarity, Schema};
use dime::data::discovery_to_json;
use dime::serve::{Client, ClientError, ErrorCode};
use dime::text::TokenizerKind;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dime-recovery-{tag}-{}", std::process::id()))
}

/// Spawns `dime serve` persisting to `dir` and returns the child plus its
/// announced address. `--fsync always` makes every acknowledged write
/// durable, so SIGKILL loses nothing the server confirmed.
fn spawn_server(dir: &std::path::Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dime"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .arg("--data-dir")
        .arg(dir)
        .args(["--fsync", "always", "--snapshot-every", "5"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dime serve");
    let mut announce = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout"))
        .read_line(&mut announce)
        .expect("read announce line");
    let addr = announce.trim().rsplit(' ').next().expect("address in announce");
    (child, addr.parse().expect("parse address"))
}

/// The reference: `discover_fast` on a batch group of exactly `rows`,
/// serialized like the server serializes.
fn reference_report(rows: &[(String, String)]) -> Value {
    let schema =
        Schema::new([("Title", TokenizerKind::Words), ("Authors", TokenizerKind::List(','))]);
    let mut b = GroupBuilder::new(schema);
    for (t, a) in rows {
        b.add_entity(&[t.as_str(), a.as_str()]);
    }
    let group = b.build();
    let rules = parse_rules(RULES, group.schema()).expect("rules parse");
    let (pos, neg): (Vec<_>, Vec<_>) =
        rules.into_iter().partition(|r| r.polarity == Polarity::Positive);
    discovery_to_json(&group, &discover_fast(&group, &pos, &neg))
}

fn row(t: &str, a: &str) -> (String, String) {
    (t.to_string(), a.to_string())
}

#[test]
fn sigkill_and_restart_recover_bit_identical_sessions() {
    let dir = temp_dir("kill");
    let _ = std::fs::remove_dir_all(&dir);

    // ---- First incarnation: build state, then die without warning.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).expect("connect");
    let doc = json!({
        "schema": [
            {"name": "Title", "tokenizer": "words"},
            {"name": "Authors", "tokenizer": {"list": ","}}
        ],
        "entities": [["seed paper", "ann, bob"]]
    });
    let session = client.create_session(&doc, RULES).expect("create");
    let mut rows = vec![row("seed paper", "ann, bob")];
    let batch = [
        ("data cleaning", "ann, bob"),
        ("data quality", "ann, bob, carl"),
        ("entity matching", "bob, carl"),
        ("organic synthesis", "dora"),
        ("doomed", "zed"),
        ("crowdsourcing", "ann, carl"),
    ];
    client
        .add_entities(session, &batch.iter().map(|(t, a)| json!([t, a])).collect::<Vec<_>>())
        .expect("add");
    rows.extend(batch.iter().map(|(t, a)| row(t, a)));
    client.remove_entity(session, 5).expect("remove");
    rows.remove(5);

    // A second session closed before the crash: it must not come back.
    let closed = client.create_session(&doc, RULES).expect("create closed");
    client.close_session(closed).expect("close");

    let before = client.discovery(session).expect("discovery");
    assert_eq!(before, reference_report(&rows), "sanity: live server serves batch");
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // ---- Second incarnation: same directory, recovered state.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).expect("reconnect");
    let after = client.discovery(session).expect("recovered discovery");
    assert_eq!(after, before, "recovery must serve a bit-identical discovery");

    let stats = client.stats(None).expect("stats");
    assert_eq!(stats["store"]["sessions_recovered"], 1, "exactly the live session recovers");
    match client.discovery(closed) {
        Err(ClientError::Server { code: ErrorCode::NoSuchSession, .. }) => {}
        other => panic!("closed session must stay closed, got {other:?}"),
    }

    // The recovered session keeps persisting: write more, kill again.
    client.add_entities(session, &[json!(["late arrival", "ann, bob"])]).expect("add late");
    rows.push(row("late arrival", "ann, bob"));
    client.remove_entity(session, 0).expect("remove seed");
    rows.remove(0);
    let before = client.discovery(session).expect("discovery");
    assert_eq!(before, reference_report(&rows));
    child.kill().expect("second SIGKILL");
    child.wait().expect("reap");

    // ---- Third incarnation: still identical, then a clean shutdown.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = Client::connect(addr).expect("reconnect again");
    assert_eq!(client.discovery(session).expect("discovery"), before);
    client.shutdown().expect("shutdown");
    child.wait().expect("drain");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
