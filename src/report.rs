//! `qsyn report` / `qsyn check-metrics` — turning metrics snapshots and
//! trace streams into human tables, and validating snapshot invariants.
//!
//! Two input shapes are accepted (sniffed, not flagged):
//!
//! * a **metrics snapshot**: the JSON written by `qsyn serve
//!   --metrics-file`, or a `status: metrics` poll row (the snapshot is
//!   pulled out of its `metrics` field);
//! * a **trace stream**: `--trace` JSONL, one pass event per line — the
//!   report rebuilds the per-pass and per-strategy latency histograms
//!   from the events, so the same table works without a daemon.
//!
//! `check_snapshot` verifies what the metrics layer promises by
//! construction, so a violation means a corrupted file or a bug:
//! histogram counts equal their bucket sums, bucket indices are valid
//! and ascending, cache `hits + misses (+ quarantines) == lookups`, and
//! a drained daemon snapshot (`requests == ok + error` rows) has an
//! empty queue.

use qsyn_trace::metrics::{
    bucket_bounds, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, BUCKETS, SCHEMA,
};
use qsyn_trace::{json, PassEvent};

/// How a report input file was interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportSource {
    /// A metrics snapshot document (possibly unwrapped from a poll row).
    Snapshot,
    /// A `--trace` JSONL stream of pass events.
    Trace,
}

/// Parses report input: a snapshot document, a `status: metrics` poll
/// row, or a trace JSONL stream (in that sniffing order).
///
/// Trace streams are converted to a snapshot by replaying every event
/// through [`MetricsRegistry::record_pass`] — the same mapping live
/// metrics use, so compile-cache replays add no `pass.<name>_us` or
/// `route.<strategy>_us` sample — and counting events into
/// `trace.events` / `trace.cache_hit_events`.
pub fn load(text: &str) -> Result<(MetricsSnapshot, ReportSource), String> {
    if let Ok(v) = json::parse(text.trim()) {
        if v.get("schema").is_some() {
            return MetricsSnapshot::from_json(&v).map(|s| (s, ReportSource::Snapshot));
        }
        if let Some(inner) = v.get("metrics") {
            if inner.get("schema").is_some() {
                return MetricsSnapshot::from_json(inner).map(|s| (s, ReportSource::Snapshot));
            }
        }
    }
    // Not a snapshot: require every non-blank line to be a pass event.
    let mut events = Vec::new();
    for (k, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line)
            .ok()
            .and_then(|v| PassEvent::from_json(&v));
        match parsed {
            Some(e) => events.push(e),
            None => {
                return Err(format!(
                    "line {}: neither a metrics snapshot nor a well-formed pass event",
                    k + 1
                ))
            }
        }
    }
    if events.is_empty() {
        return Err("input holds no metrics snapshot and no pass events".to_string());
    }
    Ok((snapshot_from_events(&events), ReportSource::Trace))
}

/// Replays trace events into a registry-shaped snapshot so the snapshot
/// renderer below serves both input kinds.
fn snapshot_from_events(events: &[PassEvent]) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    let total = reg.counter("trace.events");
    let cache_hits = reg.counter("trace.cache_hit_events");
    for e in events {
        total.inc();
        if e.counter("cache_hit") == Some(1.0) {
            cache_hits.inc();
        }
        reg.record_pass(e);
    }
    reg.snapshot()
}

fn fmt_quantile(h: &HistogramSnapshot, q: f64) -> String {
    h.quantile(q)
        .map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Renders the human report: latency histograms with count / mean /
/// p50 / p95 / p99 (microseconds), cache hit rates, then the raw
/// counters and gauges.
pub fn render(snap: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let name_w = snap
        .histograms
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.counters.iter().map(|(n, _)| n.len()))
        .chain(snap.gauges.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0)
        .max(16);
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<name_w$} {:>10} {:>12} {:>9} {:>9} {:>9}",
            "histogram (us)", "count", "mean", "p50", "p95", "p99"
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>10} {:>12} {:>9} {:>9} {:>9}",
                name,
                h.count,
                h.mean()
                    .map_or_else(|| "-".to_string(), |m| format!("{m:.1}")),
                fmt_quantile(h, 0.50),
                fmt_quantile(h, 0.95),
                fmt_quantile(h, 0.99),
            );
        }
        out.push('\n');
    }
    // Cache layers expose `<layer>.lookups` + `<layer>.hits`; every such
    // pair earns a hit-rate line (the disk tier counts quarantined loads
    // as neither hit nor miss, so the rate is hits over lookups).
    let mut rates = Vec::new();
    for (name, lookups) in &snap.counters {
        let Some(layer) = name.strip_suffix(".lookups") else {
            continue;
        };
        let hits = snap.counter(&format!("{layer}.hits")).unwrap_or(0);
        let pct = if *lookups > 0 {
            100.0 * hits as f64 / *lookups as f64
        } else {
            0.0
        };
        rates.push(format!(
            "{:<name_w$} {pct:>9.1}% ({hits} hits / {lookups} lookups)",
            layer
        ));
    }
    if !rates.is_empty() {
        let _ = writeln!(out, "cache hit rates");
        for r in rates {
            let _ = writeln!(out, "{r}");
        }
        out.push('\n');
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name:<name_w$} {v:>10}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "gauges");
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name:<name_w$} {v:>10}");
        }
    }
    out
}

/// Validates the invariants a well-formed snapshot upholds by
/// construction. Returns the list of checks performed (for reporting)
/// or the list of violations.
///
/// The checks are safe on *live* snapshots too (a poll of a busy
/// daemon): inequalities only tighten to equalities when the daemon has
/// drained, and the queue-empty check fires only once
/// `serve.requests == serve.responses_ok + serve.responses_error`,
/// which the coordinator thread makes true only with nothing in flight.
pub fn check_snapshot(snap: &MetricsSnapshot) -> Result<Vec<String>, Vec<String>> {
    let mut passed = Vec::new();
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if ok {
            passed.push(what);
        } else {
            violations.push(what);
        }
    };

    for (name, h) in &snap.histograms {
        let sum: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        check(
            h.count == sum,
            format!("{name}: count {} == bucket-count sum {sum}", h.count),
        );
        let ascending = h.buckets.windows(2).all(|w| w[0].0 < w[1].0);
        let in_range = h.buckets.iter().all(|&(i, _)| (i as usize) < BUCKETS);
        let positive = h.buckets.iter().all(|&(_, c)| c > 0);
        check(
            ascending && in_range && positive,
            format!("{name}: bucket indices ascending, < {BUCKETS}, counts positive"),
        );
        // The recorded sum must be reachable from the bucket bounds:
        // each sample lies within its bucket, so the total lies within
        // the per-bucket [lower, upper] envelope (upper saturates at
        // u64::MAX for the overflow bucket).
        let lo: u64 = h
            .buckets
            .iter()
            .map(|&(i, c)| bucket_bounds(i as usize).0.saturating_mul(c))
            .fold(0u64, u64::saturating_add);
        let hi: u64 = h
            .buckets
            .iter()
            .map(|&(i, c)| bucket_bounds(i as usize).1.saturating_mul(c))
            .fold(0u64, u64::saturating_add);
        check(
            h.sum >= lo && h.sum <= hi,
            format!("{name}: sum {} within bucket envelope [{lo}, {hi}]", h.sum),
        );
    }

    // Cache-layer accounting: every lookup resolves as a hit, a miss,
    // or (disk tier only) a quarantine.
    for (name, lookups) in &snap.counters {
        let Some(layer) = name.strip_suffix(".lookups") else {
            continue;
        };
        let resolved = snap.counter(&format!("{layer}.hits")).unwrap_or(0)
            + snap.counter(&format!("{layer}.misses")).unwrap_or(0)
            + snap.counter(&format!("{layer}.quarantines")).unwrap_or(0);
        check(
            resolved == *lookups,
            format!("{layer}: hits + misses (+ quarantines) {resolved} == lookups {lookups}"),
        );
    }

    // Streaming-verify accounting (only when a stream ran): every
    // window miter check records one `stream.verify_us` sample, and
    // each non-rejecting check lands in exactly one of the outcome
    // counters — the histogram can only exceed their sum by rejected
    // windows, which abort the stream they occur in.
    if let Some(h) = snap.histogram("stream.verify_us") {
        let outcomes = snap.counter("stream.windows_verified").unwrap_or(0)
            + snap.counter("stream.windows_unverified").unwrap_or(0);
        check(
            outcomes <= h.count,
            format!(
                "stream: verified + unverified windows {outcomes} <= verify samples {}",
                h.count
            ),
        );
    }

    // Serve accounting (only when the daemon counters are present).
    if let Some(requests) = snap.counter("serve.requests") {
        let answered = snap.counter("serve.responses_ok").unwrap_or(0)
            + snap.counter("serve.responses_error").unwrap_or(0);
        check(
            answered <= requests,
            format!("serve: responses {answered} <= requests {requests}"),
        );
        let depth = snap.gauge("serve.queue_depth").unwrap_or(0);
        check(depth >= 0, format!("serve: queue depth {depth} >= 0"));
        if answered == requests {
            check(
                depth == 0,
                format!("serve: drained (responses == requests) with queue depth {depth}"),
            );
        }
        let overloaded = snap.counter("serve.overloaded").unwrap_or(0);
        check(
            overloaded <= snap.counter("serve.responses_error").unwrap_or(0),
            format!("serve: overloaded {overloaded} <= error rows"),
        );
    }

    if violations.is_empty() {
        Ok(passed)
    } else {
        Err(violations)
    }
}

/// The schema tag `check-metrics` insists on; re-exported so the CLI can
/// name it in error messages.
pub const METRICS_SCHEMA: &str = SCHEMA;

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_trace::Pass;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("cache.compile.lookups").add(10);
        reg.counter("cache.compile.hits").add(4);
        reg.counter("cache.compile.misses").add(6);
        reg.counter("serve.requests").add(3);
        reg.counter("serve.responses_ok").add(2);
        reg.counter("serve.responses_error").add(1);
        reg.gauge("serve.queue_depth").set(0);
        let h = reg.histogram("serve.latency_us");
        for v in [3, 100, 1000, 50_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn load_sniffs_snapshot_and_poll_row() {
        let snap = sample_registry().snapshot();
        let bare = snap.to_json().to_string();
        let (loaded, src) = load(&bare).expect("bare snapshot loads");
        assert_eq!(src, ReportSource::Snapshot);
        assert_eq!(loaded.counter("serve.requests"), Some(3));

        let row = format!("{{\"id\":\"m\",\"job\":7,\"status\":\"metrics\",\"metrics\":{bare}}}");
        let (loaded, src) = load(&row).expect("poll row loads");
        assert_eq!(src, ReportSource::Snapshot);
        assert_eq!(loaded.counter("serve.responses_ok"), Some(2));
    }

    #[test]
    fn check_accepts_consistent_and_rejects_corrupt() {
        let snap = sample_registry().snapshot();
        let checks = check_snapshot(&snap).expect("consistent snapshot passes");
        assert!(checks.iter().any(|c| c.contains("cache.compile")));
        assert!(checks.iter().any(|c| c.contains("drained")));

        let mut broken = snap.clone();
        for (n, v) in &mut broken.counters {
            if n == "cache.compile.hits" {
                *v += 1; // hits + misses no longer equals lookups
            }
        }
        let violations = check_snapshot(&broken).expect_err("corrupt snapshot fails");
        assert!(violations.iter().any(|v| v.contains("cache.compile")));

        let mut torn = snap.clone();
        torn.histograms[0].1.count += 5; // count != bucket sum
        assert!(check_snapshot(&torn).is_err());
    }

    #[test]
    fn stream_verify_accounting_is_checked() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("stream.verify_us");
        for v in [120, 340, 560] {
            h.record(v);
        }
        reg.counter("stream.windows_verified").add(2);
        reg.counter("stream.windows_unverified").add(1);
        let checks = check_snapshot(&reg.snapshot()).expect("balanced stream accounting passes");
        assert!(checks.iter().any(|c| c.contains("verify samples")));

        // More counted outcomes than recorded samples is impossible by
        // construction: every outcome came from a timed check.
        reg.counter("stream.windows_verified").add(5);
        let violations = check_snapshot(&reg.snapshot()).expect_err("overcounted outcomes fail");
        assert!(
            violations.iter().any(|v| v.contains("verify samples")),
            "{violations:?}"
        );
    }

    #[test]
    fn drained_snapshot_with_nonzero_queue_is_a_violation() {
        let reg = sample_registry();
        reg.gauge("serve.queue_depth").set(2);
        let violations = check_snapshot(&reg.snapshot()).expect_err("stuck queue flagged");
        assert!(violations.iter().any(|v| v.contains("queue depth 2")));
    }

    #[test]
    fn render_includes_percentiles_and_hit_rates() {
        let text = render(&sample_registry().snapshot());
        assert!(text.contains("serve.latency_us"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("cache hit rates"), "{text}");
        assert!(text.contains("cache.compile"), "{text}");
        assert!(text.contains("40.0%"), "{text}");
    }

    #[test]
    fn trace_jsonl_is_replayed_into_histograms() {
        // Running the whole compiler here would be heavy, so events are
        // synthesized and serialized through the real JSONL shape.
        let stage = qsyn_trace::StageSnapshot::default();
        let mut lines = String::new();
        for (k, pass) in Pass::FIG2_ORDER.into_iter().enumerate() {
            let e = PassEvent {
                pass,
                job: None,
                seconds: 0.001 * (k + 1) as f64,
                input: stage,
                output: stage,
                cost_in: 1.0,
                cost_out: 1.0,
                counters: Vec::new(),
            };
            lines.push_str(&e.to_json().to_string());
            lines.push('\n');
        }
        let (snap, src) = load(&lines).expect("trace loads");
        assert_eq!(src, ReportSource::Trace);
        assert_eq!(snap.counter("trace.events"), Some(5));
        let h = snap.histogram("pass.route_us").expect("route histogram");
        assert_eq!(h.count, 1);
    }
}
