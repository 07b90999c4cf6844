//! End-to-end tests of the discovery service: many concurrent clients
//! driving live sessions over real TCP, with every served discovery
//! checked against a from-scratch `discover_fast` run on the same final
//! group, and graceful shutdown draining every in-flight request.

use dime::core::{discover_fast, parse_rules, GroupBuilder, Polarity, Schema};
use dime::data::discovery_to_json;
use dime::serve::{
    encode_frame, Client, ClientError, ErrorCode, Frame, FrameReader, Request, ServeConfig, Server,
};
use dime::text::TokenizerKind;
use serde_json::{json, Value};
use std::io::{BufReader, Write};
use std::net::TcpStream;

const RULES: &str = "positive: overlap(Authors) >= 2\nnegative: overlap(Authors) <= 0";

fn group_doc() -> Value {
    json!({
        "schema": [
            {"name": "Title", "tokenizer": "words"},
            {"name": "Authors", "tokenizer": {"list": ","}}
        ],
        "entities": []
    })
}

/// The reference result: `discover_fast` on a batch-built group holding
/// exactly `rows`, serialized the same way the server serializes.
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
    let d = discover_fast(&group, &pos, &neg);
    discovery_to_json(&group, &d)
}

/// Eight concurrent clients, each driving its own session over one
/// persistent connection with mixed traffic — batched adds, removals,
/// scrollbar reads, stats, error probes — asserting that every discovery
/// the server returns matches `discover_fast` on the same final group.
#[test]
fn concurrent_clients_see_batch_identical_discoveries() {
    const CLIENTS: usize = 8;
    let server = Server::bind(ServeConfig {
        // Well above the client count: each persistent connection owns a
        // worker for its lifetime, and auto-resolve on a small CI box
        // could starve them.
        workers: CLIENTS + 4,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                let session = client.create_session(&group_doc(), RULES).expect("create");
                let mut rows: Vec<(String, String)> = Vec::new();

                // Three linked papers, one outlier, then a client-specific
                // tail; author pools are disjoint across clients so any
                // cross-session bleed would change the result.
                let base = [
                    ("entity matching", format!("a{c}x, a{c}y")),
                    ("entity matching redux", format!("a{c}x, a{c}y, a{c}z")),
                    ("entity matching again", format!("a{c}y, a{c}z")),
                    ("organic synthesis", format!("q{c}")),
                ];
                let batch: Vec<Value> = base.iter().map(|(t, a)| json!([t, a])).collect();
                let ids = client.add_entities(session, &batch).expect("add");
                assert_eq!(ids, vec![0, 1, 2, 3]);
                rows.extend(base.iter().map(|(t, a)| (t.to_string(), a.clone())));

                for i in 0..6 {
                    let title = format!("tail paper {i}");
                    let authors = format!("a{c}x, a{c}t{i}");
                    client.add_entities(session, &[json!([title, authors])]).expect("tail add");
                    rows.push((title, authors));

                    if i % 2 == 0 {
                        // Remove the bridge of the moment and mirror the
                        // id compaction locally.
                        let victim = i % rows.len();
                        client.remove_entity(session, victim).expect("remove");
                        rows.remove(victim);
                    }

                    let report = client.discovery(session).expect("discovery");
                    assert_eq!(report, reference_report(&rows), "client {c}, round {i}");

                    // The scrollbar step must mirror the full report.
                    let step = client.scrollbar(session, 0).expect("scrollbar");
                    assert_eq!(step["flagged"], report["steps"][0]["flagged"]);
                }

                // Error probes on the live connection must not disturb it.
                assert!(client.discovery(session + 10_000).is_err());
                assert!(client.remove_entity(session, 9_999).is_err());

                let stats = client.stats(Some(session)).expect("stats");
                assert_eq!(stats["entities"].as_u64().unwrap() as usize, rows.len());
                assert!(stats["pairs_verified"].as_u64().unwrap() > 0);
                assert!(stats["flag_latency"]["count"].as_u64().unwrap() >= 6);

                let report = client.discovery(session).expect("final discovery");
                assert_eq!(report, reference_report(&rows));
                client.close_session(session).expect("close");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // All sessions closed; global counters saw every client.
    let mut client = Client::connect(addr).expect("stats connect");
    let stats = client.stats(None).expect("global stats");
    assert_eq!(stats["sessions"]["live"], 0);
    assert_eq!(stats["sessions"]["created"], CLIENTS);
    assert_eq!(stats["sessions"]["closed"], CLIENTS);
    assert!(stats["requests"].as_u64().unwrap() > (CLIENTS * 10) as u64);
    drop(client);

    handle.shutdown();
    runner.join().expect("server thread").expect("server run");
}

/// Removing an entity that does not exist must come back through the
/// client as a typed `no_such_entity` server error — not a dropped
/// connection, not a generic failure — and must leave the session fully
/// serviceable.
#[test]
fn removing_a_nonexistent_entity_is_a_structured_error() {
    let server = Server::bind(ServeConfig { workers: 2, ..ServeConfig::default() }).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let session = client.create_session(&group_doc(), RULES).expect("create");
    client
        .add_entities(session, &[json!(["t", "ann, bob"]), json!(["t", "ann, bob"])])
        .expect("seed");

    match client.remove_entity(session, 99) {
        Err(ClientError::Server { code: ErrorCode::NoSuchEntity, message }) => {
            assert!(message.contains("99"), "message should name the entity: {message}");
            assert!(message.contains('2'), "message should name the range: {message}");
        }
        other => panic!("expected a typed no_such_entity error, got {other:?}"),
    }
    // The error left no half-applied state behind.
    let report = client.discovery(session).expect("session still serves");
    assert_eq!(
        report,
        reference_report(&[("t".into(), "ann, bob".into()), ("t".into(), "ann, bob".into()),])
    );

    handle.shutdown();
    runner.join().expect("server thread").expect("server run");
}

/// Graceful shutdown must drain: requests already written to the server
/// — including connections still queued for a worker — all get their
/// response, and `run` returns only after every worker exits.
#[test]
fn shutdown_drains_every_inflight_request() {
    const PENDING: usize = 8;
    let server = Server::bind(ServeConfig {
        // Fewer workers than pending connections, so the drain must also
        // empty the accept queue, not just finish busy workers.
        workers: 3,
        poll_interval: std::time::Duration::from_millis(10),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    // Seed a session for the pending requests to hit.
    let session = {
        let mut client = Client::connect(addr).expect("setup connect");
        let session = client.create_session(&group_doc(), RULES).expect("create");
        client
            .add_entities(
                session,
                &[json!(["t", "ann, bob"]), json!(["t", "ann, bob, carl"]), json!(["t", "dora"])],
            )
            .expect("seed");
        session
    };

    // Write one discovery request per connection and deliberately do not
    // read anything yet.
    let mut pending: Vec<TcpStream> = (0..PENDING)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("pending connect");
            let frame = format!("{{\"op\": \"discovery\", \"session\": {session}}}\n");
            s.write_all(frame.as_bytes()).expect("write pending");
            s.flush().expect("flush pending");
            s
        })
        .collect();

    // Let the accept loop take them all in, then pull the plug.
    std::thread::sleep(std::time::Duration::from_millis(300));
    handle.shutdown();

    // Every single request written before shutdown must get its response.
    let expected = reference_report(&[
        ("t".into(), "ann, bob".into()),
        ("t".into(), "ann, bob, carl".into()),
        ("t".into(), "dora".into()),
    ]);
    for stream in pending.drain(..) {
        let mut reader = FrameReader::new(BufReader::new(stream), 1 << 20);
        match reader.read_frame().expect("drained read") {
            Frame::Line(line) => {
                let v: Value = serde_json::from_str(&line).expect("response JSON");
                let report = v.get("ok").cloned().expect("ok response");
                assert_eq!(report, expected);
            }
            other => panic!("dropped in-flight response: {other:?}"),
        }
    }
    runner.join().expect("server thread").expect("server run");
}

/// Several adds to one session in flight at once: 32 `add_entities`
/// frames of two rows each, written on one connection before any reply is
/// read. Every reply comes back in order, and each add lands atomically:
/// its two ids are consecutive and its `entities` count is the session
/// size right after it. With one worker the adds also apply in arrival
/// order, so ids and counts run densely across the replies; with several,
/// two in-flight adds may apply in either order, so the replies' ids only
/// partition the new range. Either way the session's discovery equals
/// `discover_fast` over the rows in id order.
#[test]
fn pipelined_adds_to_one_session_answer_in_order() {
    const ADDS: usize = 32;
    for workers in [1, 4] {
        let server = Server::bind(ServeConfig { workers, ..ServeConfig::default() }).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        let session = seed_session(addr);
        let mut by_id: Vec<Option<(String, String)>> = vec![
            Some(("t".into(), "ann, bob".into())),
            Some(("t".into(), "ann, bob, carl".into())),
            Some(("t".into(), "dora".into())),
        ];
        let base = by_id.len();

        let adds: Vec<[(String, String); 2]> = (0..ADDS)
            .map(|i| {
                let row =
                    |j: usize| (format!("paper {i} {j}"), format!("p{}, p{}", i % 5, j + i % 3));
                [row(0), row(1)]
            })
            .collect();
        let mut s = TcpStream::connect(addr).expect("connect");
        let burst: String = adds
            .iter()
            .map(|rows| {
                let entities = rows.iter().map(|(t, a)| json!([t, a])).collect();
                encode_frame(&Request::AddEntities { session, entities }.to_value())
            })
            .collect();
        s.write_all(burst.as_bytes()).expect("write burst");
        s.flush().expect("flush burst");

        by_id.resize(base + 2 * ADDS, None);
        let mut reader = FrameReader::new(BufReader::new(s), 1 << 20);
        for (i, rows) in adds.into_iter().enumerate() {
            let Frame::Line(line) = reader.read_frame().expect("read reply") else {
                panic!("reply {i} dropped")
            };
            let v: Value = serde_json::from_str(&line).expect("reply JSON");
            let ok = v.get("ok").unwrap_or_else(|| panic!("add {i} failed: {line}"));
            let ids: Vec<usize> = ok["ids"]
                .as_array()
                .unwrap()
                .iter()
                .map(|id| id.as_u64().unwrap() as usize)
                .collect();
            assert_eq!(ids.len(), 2, "workers={workers}, reply {i}: {line}");
            assert_eq!(ids[1], ids[0] + 1, "workers={workers}: one add's ids are consecutive");
            assert_eq!(ok["entities"], ids[1] + 1, "workers={workers}: count after the add");
            if workers == 1 {
                assert_eq!(ids[0], base + 2 * i, "one worker applies adds in arrival order");
            }
            for (id, row) in ids.into_iter().zip(rows) {
                assert!(by_id[id].replace(row).is_none(), "workers={workers}: id {id} reused");
            }
        }

        let rows: Vec<(String, String)> =
            by_id.into_iter().map(|r| r.expect("every new id assigned")).collect();
        let mut client = Client::connect(addr).expect("connect");
        let report = client.discovery(session).expect("discovery");
        assert_eq!(report, reference_report(&rows), "workers={workers}");
        drop(client);
        handle.shutdown();
        runner.join().expect("server thread").expect("server run");
    }
}

/// Seeds a session with three entities over a throwaway client and
/// returns its id.
fn seed_session(addr: std::net::SocketAddr) -> u64 {
    let mut client = Client::connect(addr).expect("setup connect");
    let session = client.create_session(&group_doc(), RULES).expect("create");
    client
        .add_entities(
            session,
            &[json!(["t", "ann, bob"]), json!(["t", "ann, bob, carl"]), json!(["t", "dora"])],
        )
        .expect("seed");
    session
}

/// Writes `n` pipelined discovery frames in one burst and reads exactly
/// `n` responses back, returning `(ok, overloaded)` counts. Panics on any
/// other response shape — backpressure must be a typed, retryable error,
/// never a dropped request or a closed connection.
fn burst_discoveries(addr: std::net::SocketAddr, session: u64, n: usize) -> (usize, usize) {
    let mut s = TcpStream::connect(addr).expect("burst connect");
    let frame = format!("{{\"op\": \"discovery\", \"session\": {session}}}\n");
    let burst = frame.repeat(n);
    s.write_all(burst.as_bytes()).expect("write burst");
    s.flush().expect("flush burst");

    let (mut ok, mut overloaded) = (0usize, 0usize);
    let mut reader = FrameReader::new(BufReader::new(s), 1 << 20);
    for i in 0..n {
        match reader.read_frame().expect("burst read") {
            Frame::Line(line) => {
                let v: Value = serde_json::from_str(&line).expect("response JSON");
                if v.get("ok").is_some() {
                    ok += 1;
                } else {
                    let code = v["err"]["code"].as_str().unwrap_or("?");
                    assert_eq!(code, "overloaded", "response {i}: unexpected error: {line}");
                    overloaded += 1;
                }
            }
            other => panic!("response {i} of {n} dropped: {other:?}"),
        }
    }
    (ok, overloaded)
}

/// A tiny verify queue under a pipelined burst: every admitted request is
/// answered — the overflow as the typed, retryable `overloaded` error —
/// and a `with_retry` client rides out the pressure without surfacing it.
#[test]
fn queue_overflow_is_a_retryable_overloaded_error() {
    const BURST: usize = 200;
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        poll_interval: std::time::Duration::from_millis(5),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    let session = seed_session(addr);

    let (ok, overloaded) = burst_discoveries(addr, session, BURST);
    assert_eq!(ok + overloaded, BURST, "every request is answered exactly once");
    assert!(ok >= 1, "the queue keeps serving under pressure");
    assert!(
        overloaded >= 1,
        "a single-slot queue cannot absorb a {BURST}-deep pipelined burst without shedding"
    );

    // A retrying client sustains service while a fresh burst keeps the
    // queue saturated: overloaded responses are absorbed by backoff.
    let pressure = std::thread::spawn(move || burst_discoveries(addr, session, BURST));
    let mut client = Client::connect(addr).expect("retry connect").with_retry(8, 1);
    for _ in 0..5 {
        client.discovery(session).expect("retrying discovery must outlast the burst");
    }
    pressure.join().expect("pressure thread");

    handle.shutdown();
    runner.join().expect("server thread").expect("server run");
}

/// Shutdown while the verify queue is saturated: the drain must flush
/// every op that was admitted — queued or shed — with a response on its
/// own connection before the socket closes, on every connection at once.
#[test]
fn shutdown_under_queue_pressure_answers_every_accepted_op() {
    const CONNS: usize = 4;
    const OPS: usize = 25;
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        poll_interval: std::time::Duration::from_millis(5),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    let session = seed_session(addr);

    // Saturate from several connections, then pull the plug while the
    // queue is still working through the backlog. Reads happen in
    // parallel threads so one connection's backlog cannot stall another
    // past its write window.
    let readers: Vec<_> = (0..CONNS)
        .map(|_| std::thread::spawn(move || burst_discoveries(addr, session, OPS)))
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(50));
    handle.shutdown();

    for reader in readers {
        let (ok, overloaded) = reader.join().expect("reader thread");
        assert_eq!(ok + overloaded, OPS, "drain must answer every admitted op");
    }
    runner.join().expect("server thread").expect("server run");
}
