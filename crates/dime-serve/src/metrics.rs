//! Observability counters: lock-free global counters shared by every
//! worker, histogram-backed latency aggregates, and per-session counters
//! mutated under the session lock.
//!
//! Everything surfaces through the `stats` operation — `{"op": "stats"}`
//! returns the global view, `{"op": "stats", "session": id}` one
//! session's view — and the engine-level trace through `{"op": "trace"}`.
//!
//! Session-scoped counters follow one uniform banking rule: the global
//! figure is the [`SessionTotals`] banked from *closed* sessions plus the
//! same totals summed over the *live* sessions, both folded through
//! [`SessionTotals::absorb`]. Closing a session therefore never loses any
//! of its counters — verified pairs, added entities, latency samples, all
//! of them move from the live sum into the bank atomically with the close.

use dime_trace::{Histogram, HistogramSnapshot, TraceReport, BUCKETS};
use serde_json::{json, Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A latency aggregate backed by a [`Histogram`] of microseconds:
/// lock-free recording, mergeable, with count/total/max plus p50/p95/p99
/// quantile snapshots (quantiles are bucket upper bounds, so they never
/// under-report; see `dime_trace::Histogram`).
#[derive(Debug, Default, Clone)]
pub struct LatencyStat {
    hist: Histogram,
}

impl LatencyStat {
    /// Records one measured duration.
    pub fn record(&self, elapsed: Duration) {
        self.hist.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Folds another aggregate into this one (bucket-wise addition; every
    /// derived figure is monotone under the merge).
    pub fn merge(&self, other: &LatencyStat) {
        self.hist.merge(&other.hist);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Snapshot as `{count, total_micros, max_micros, mean_micros,
    /// p50_micros, p95_micros, p99_micros, buckets}` — see
    /// [`histogram_to_value`].
    pub fn to_value(&self) -> Value {
        histogram_to_value(&self.hist.snapshot(), MICROS)
    }
}

/// Key suffix of a latency histogram's unit-bearing fields
/// (`total_micros`, `p99_micros`, ...). Trace histograms use `""`.
pub const MICROS: &str = "_micros";

/// The histogram wire codec, encode half: `{count, total, max, mean, p50,
/// p95, p99, buckets}`, every key but `count` and `buckets` carrying
/// `suffix`. `buckets` holds the raw cells as sparse `[index, count]`
/// pairs — compact (latency histograms populate a handful of the 64
/// buckets) and loss-free, so a cluster router re-merges aggregates from
/// many shards with exactly [`Histogram::merge`]'s fidelity.
pub fn histogram_to_value(s: &HistogramSnapshot, suffix: &str) -> Value {
    let buckets: Vec<Value> =
        s.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| json!([i, n])).collect();
    let mut v = json!({"count": s.count, "buckets": buckets});
    if let Some(obj) = v.as_object_mut() {
        for (name, n) in [
            ("total", s.total),
            ("max", s.max),
            ("mean", s.mean()),
            ("p50", s.p50),
            ("p95", s.p95),
            ("p99", s.p99),
        ] {
            obj.insert(format!("{name}{suffix}"), json!(n));
        }
    }
    v
}

/// The histogram wire codec, decode half: rebuilds the snapshot of a
/// [`histogram_to_value`] object, with the key suffix it was written
/// under ([`MICROS`] when `total_micros` is present, else `""`). `None`
/// when `v` is not a histogram object (no `count` or no `buckets`
/// array). Quantiles come back as 0: they are derived figures, and a
/// merge recomputes them from the buckets.
pub fn histogram_from_value(v: &Value) -> Option<(HistogramSnapshot, &'static str)> {
    let cells = v.get("buckets")?.as_array()?;
    let count = v.get("count")?.as_u64().unwrap_or(0);
    let suffix = if v.get("total_micros").is_some() { MICROS } else { "" };
    let field = |name: &str| v.get(&format!("{name}{suffix}")).and_then(Value::as_u64).unwrap_or(0);
    let mut buckets = [0u64; BUCKETS];
    for pair in cells.iter().filter_map(Value::as_array) {
        let (Some(i), Some(n)) =
            (pair.first().and_then(Value::as_u64), pair.get(1).and_then(Value::as_u64))
        else {
            continue;
        };
        if let Some(cell) = usize::try_from(i).ok().and_then(|i| buckets.get_mut(i)) {
            *cell = n;
        }
    }
    let snapshot = HistogramSnapshot {
        count,
        total: field("total"),
        max: field("max"),
        p50: 0,
        p95: 0,
        p99: 0,
        buckets,
    };
    Some((snapshot, suffix))
}

/// The session-scoped counters in aggregate, atomic form. One instance
/// banks the totals of closed sessions; another accumulates the live sum
/// for a stats snapshot. Both are filled through [`SessionTotals::absorb`]
/// — a single code path, so no counter can be banked and live-summed
/// inconsistently.
#[derive(Debug, Default)]
pub struct SessionTotals {
    /// Requests routed to sessions.
    pub requests: AtomicU64,
    /// Entities added (initial group rows included).
    pub entities_added: AtomicU64,
    /// Entities removed.
    pub entities_removed: AtomicU64,
    /// Discovery/scrollbar runs.
    pub discoveries: AtomicU64,
    /// Candidate pairs verified by the engines.
    pub pairs_verified: AtomicU64,
    /// Latency of discovery/scrollbar runs (the flagging pipeline).
    pub flag_latency: LatencyStat,
}

impl SessionTotals {
    /// Folds one session's counters — plus its engine's verified-pair
    /// count, which lives in the engine rather than in [`SessionMetrics`]
    /// — into the totals.
    pub fn absorb(&self, m: &SessionMetrics, pairs_verified: u64) {
        self.requests.fetch_add(m.requests, Ordering::Relaxed); // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        self.entities_added.fetch_add(m.entities_added, Ordering::Relaxed); // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        self.entities_removed.fetch_add(m.entities_removed, Ordering::Relaxed); // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        self.discoveries.fetch_add(m.discoveries, Ordering::Relaxed); // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        self.pairs_verified.fetch_add(pairs_verified, Ordering::Relaxed); // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
        self.flag_latency.merge(&m.flag_latency);
    }
}

/// Admission-layer counters of one serving front end — a server or a
/// cluster router — bumped by its poll loop and worker pool.
#[derive(Debug, Default)]
pub struct AdmissionMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests handled (including ones answered with an error).
    pub requests: AtomicU64,
    /// Requests answered with an error response.
    pub errors: AtomicU64,
    /// Frames dropped for exceeding the size cap.
    pub oversized_frames: AtomicU64,
    /// Requests rejected at admission with the retryable `overloaded`
    /// error because the op queue was full.
    pub overloaded: AtomicU64,
}

impl AdmissionMetrics {
    /// Writes every counter into `obj` under its field name: a server's
    /// global `stats` carries them at the top level, a router's in its
    /// `cluster` object.
    pub fn write_into(&self, obj: &mut Map<String, Value>) {
        for (key, counter) in [
            ("connections", &self.connections),
            ("requests", &self.requests),
            ("errors", &self.errors),
            ("oversized_frames", &self.oversized_frames),
            ("overloaded", &self.overloaded),
        ] {
            // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
            obj.insert(key.into(), json!(counter.load(Ordering::Relaxed)));
        }
    }
}

/// Server-wide session counters, updated lock-free by every worker.
#[derive(Debug, Default)]
pub struct GlobalMetrics {
    /// Sessions created over the server's lifetime.
    pub sessions_created: AtomicU64,
    /// Sessions closed over the server's lifetime.
    pub sessions_closed: AtomicU64,
    /// Session-scoped counters banked from closed sessions; the global
    /// stats view adds the live-session sum on top, so closing a session
    /// never loses any of its counters from the totals.
    pub closed: SessionTotals,
}

impl GlobalMetrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed); // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
    }

    /// Snapshot of every counter. `sessions_live` and `live` (the live
    /// sessions' summed totals) are supplied by the caller — they live in
    /// the session store, not here. Every session-scoped figure is
    /// reported as banked-from-closed plus live.
    pub fn to_value(&self, sessions_live: u64, live: &SessionTotals) -> Value {
        let total = |closed: &AtomicU64, live: &AtomicU64| {
            // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
            closed.load(Ordering::Relaxed).saturating_add(live.load(Ordering::Relaxed))
        };
        let flag_latency = self.closed.flag_latency.clone();
        flag_latency.merge(&live.flag_latency);
        json!({
            "sessions": {
                "created": self.sessions_created.load(Ordering::Relaxed), // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
                "closed": self.sessions_closed.load(Ordering::Relaxed), // dime-check: allow(atomic-ordering) — statistics counter; readers tolerate stale values
                "live": sessions_live,
            },
            "session_requests": total(&self.closed.requests, &live.requests),
            "entities_added": total(&self.closed.entities_added, &live.entities_added),
            "entities_removed": total(&self.closed.entities_removed, &live.entities_removed),
            "discoveries": total(&self.closed.discoveries, &live.discoveries),
            "pairs_verified": total(&self.closed.pairs_verified, &live.pairs_verified),
            "flag_latency": flag_latency.to_value(),
        })
    }
}

/// Per-session counters; mutated only under the owning session's lock, so
/// plain integers suffice (the latency histogram is atomic-backed either
/// way).
#[derive(Debug, Default, Clone)]
pub struct SessionMetrics {
    /// Requests routed to this session.
    pub requests: u64,
    /// Entities added to this session (initial group rows included).
    pub entities_added: u64,
    /// Entities removed from this session.
    pub entities_removed: u64,
    /// Discovery/scrollbar runs on this session.
    pub discoveries: u64,
    /// Latency of this session's discovery/scrollbar runs.
    pub flag_latency: LatencyStat,
}

impl SessionMetrics {
    /// Records one discovery latency sample.
    pub fn record_flag_latency(&mut self, elapsed: Duration) {
        self.flag_latency.record(elapsed);
    }

    /// Snapshot, with the live-entity count and the engine's verified-pair
    /// counter supplied by the caller.
    pub fn to_value(&self, entities: usize, pairs_verified: u64) -> Value {
        json!({
            "requests": self.requests,
            "entities": entities,
            "entities_added": self.entities_added,
            "entities_removed": self.entities_removed,
            "discoveries": self.discoveries,
            "pairs_verified": pairs_verified,
            "flag_latency": self.flag_latency.to_value(),
        })
    }
}

/// Serializes a [`TraceReport`] for the `trace` protocol op and the CLI's
/// `--trace --json` output: per-phase aggregates, named counters (as one
/// object), per-rule hit counts, histogram snapshots, and the raw-span
/// tally (span *records* are deliberately not shipped — a long-lived
/// server holds up to the recorder cap of them, and the aggregates carry
/// the signal).
pub fn trace_report_to_value(report: &TraceReport) -> Value {
    let phases: Vec<Value> = report
        .phases
        .iter()
        .map(|p| json!({"name": p.name, "count": p.count, "total_ns": p.total_ns}))
        .collect();
    let mut counters = Map::new();
    for (name, value) in &report.counters {
        counters.insert(name.clone(), json!(value));
    }
    let rule_hits: Vec<Value> = report
        .rule_hits
        .iter()
        .map(|r| json!({"kind": r.kind.label(), "rule": r.rule, "hits": r.hits}))
        .collect();
    let histograms: Vec<Value> = report
        .histograms
        .iter()
        .map(|(name, s)| {
            let mut v = histogram_to_value(s, "");
            if let Some(obj) = v.as_object_mut() {
                obj.insert("name".into(), json!(name));
            }
            v
        })
        .collect();
    json!({
        "phases": phases,
        "counters": counters,
        "rule_hits": rule_hits,
        "histograms": histograms,
        "spans": report.spans.len(),
        "dropped_spans": report.dropped_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stat_aggregates() {
        let s = LatencyStat::default();
        s.record(Duration::from_micros(10));
        s.record(Duration::from_micros(30));
        let v = s.to_value();
        assert_eq!(v["count"], 2);
        assert_eq!(v["total_micros"], 40);
        assert_eq!(v["max_micros"], 30);
        assert_eq!(v["mean_micros"], 20);
        // 30µs lands in [16, 32): the upper tail reports the bucket top.
        assert_eq!(v["p99_micros"], 31);
        assert!(v["p50_micros"].as_u64().unwrap() >= 10);
        // 10µs → bucket 4 ([8,16)), 30µs → bucket 5 ([16,32)).
        assert_eq!(v["buckets"], serde_json::json!([[4, 1], [5, 1]]));
    }

    #[test]
    fn latency_stat_merge_is_additive() {
        let a = LatencyStat::default();
        let b = LatencyStat::default();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(500));
        a.merge(&b);
        let v = a.to_value();
        assert_eq!(v["count"], 2);
        assert_eq!(v["total_micros"], 505);
        assert_eq!(v["max_micros"], 500);
    }

    #[test]
    fn histogram_codec_round_trips_both_key_forms() {
        let h = Histogram::new();
        for v in [3, 10, 30, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        for suffix in [MICROS, ""] {
            let v = histogram_to_value(&s, suffix);
            assert_eq!(v[format!("p99{suffix}").as_str()], s.p99);
            let (back, found) = histogram_from_value(&v).expect("a histogram object");
            assert_eq!(found, suffix);
            assert_eq!((back.count, back.total, back.max), (s.count, s.total, s.max));
            assert_eq!(back.buckets, s.buckets);
        }
        assert!(histogram_from_value(&json!({"count": 1})).is_none(), "no buckets array");
    }

    #[test]
    fn admission_metrics_write_every_counter() {
        let a = AdmissionMetrics::default();
        GlobalMetrics::bump(&a.overloaded);
        let mut obj = Map::new();
        a.write_into(&mut obj);
        assert_eq!(obj.len(), 5);
        assert_eq!(obj["overloaded"], 1);
        assert_eq!(obj["connections"], 0);
    }

    #[test]
    fn session_metrics_snapshot() {
        let mut m = SessionMetrics { requests: 3, ..Default::default() };
        m.record_flag_latency(Duration::from_micros(8));
        let v = m.to_value(5, 17);
        assert_eq!(v["requests"], 3);
        assert_eq!(v["entities"], 5);
        assert_eq!(v["pairs_verified"], 17);
        assert_eq!(v["flag_latency"]["count"], 1);
    }

    #[test]
    fn global_metrics_snapshot_includes_gauges() {
        let g = GlobalMetrics::default();
        GlobalMetrics::bump(&g.sessions_created);
        let live = SessionTotals::default();
        let m = SessionMetrics { entities_added: 4, ..Default::default() };
        live.absorb(&m, 9);
        let v = g.to_value(2, &live);
        assert_eq!(v["sessions"]["created"], 1);
        assert_eq!(v["entities_added"], 4);
        assert_eq!(v["sessions"]["live"], 2);
        assert_eq!(v["pairs_verified"], 9);
    }

    #[test]
    fn closed_sessions_fold_into_every_global_total() {
        // Banking at close and live summing go through the same absorb
        // path, so every counter — not just pairs — survives a close.
        let g = GlobalMetrics::default();
        let mut m = SessionMetrics {
            requests: 2,
            entities_added: 5,
            entities_removed: 1,
            discoveries: 3,
            ..Default::default()
        };
        m.record_flag_latency(Duration::from_micros(40));
        g.closed.absorb(&m, 7);

        let live = SessionTotals::default();
        let mut live_m = SessionMetrics { entities_added: 2, ..Default::default() };
        live_m.record_flag_latency(Duration::from_micros(10));
        live.absorb(&live_m, 2);

        let v = g.to_value(1, &live);
        assert_eq!(v["entities_added"], 7);
        assert_eq!(v["entities_removed"], 1);
        assert_eq!(v["discoveries"], 3);
        assert_eq!(v["pairs_verified"], 9);
        assert_eq!(v["session_requests"], 2);
        assert_eq!(v["flag_latency"]["count"], 2);
        assert_eq!(v["flag_latency"]["total_micros"], 50);
    }

    #[test]
    fn trace_report_serializes_aggregates() {
        use dime_trace::{Recorder, RuleKind, TraceSink};
        let rec = Recorder::new();
        rec.add("pairs_verified", 12);
        rec.rule_hits(RuleKind::Positive, 0, 4);
        rec.latency("flag_micros", 100);
        let v = trace_report_to_value(&rec.snapshot());
        assert_eq!(v["counters"]["pairs_verified"], 12);
        assert_eq!(v["rule_hits"][0]["kind"], "positive");
        assert_eq!(v["rule_hits"][0]["hits"], 4);
        assert_eq!(v["histograms"][0]["name"], "flag_micros");
        assert_eq!(v["histograms"][0]["count"], 1);
        assert_eq!(v["spans"], 0);
        assert_eq!(v["dropped_spans"], 0);
    }
}
