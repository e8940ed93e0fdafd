//! Canonical counter names — and an internal-consistency validator — for
//! the aggregate route event a streaming compile emits.
//!
//! A streaming compile (gate-window by gate-window, bounded resident
//! circuit) produces ONE [`Pass::Route`] event summarizing every window
//! instead of a per-window event stream. The emitter (`qsyn-core`) and the
//! consumers (`qsyn check-trace`, the bench harness) share this module so
//! the counter names cannot drift apart.

use crate::{Pass, PassEvent};

/// Marker counter: `1.0` on the aggregate route event of a streaming
/// compile, absent (or `0.0`) on ordinary whole-circuit route events.
pub const STREAMING: &str = "streaming";
/// Number of gate windows the stream was split into (>= 1).
pub const WINDOWS: &str = "windows";
/// The window size cap: at most this many input gates per window.
pub const WINDOW_GATES_CAP: &str = "window_gates_cap";
/// Total SWAPs inserted across all windows.
pub const SWAPS_INSERTED: &str = "swaps_inserted";
/// The largest per-window SWAP count observed.
pub const MAX_WINDOW_SWAPS: &str = "max_window_swaps";
/// The per-window SWAP budget, when one was configured. A trace whose
/// [`MAX_WINDOW_SWAPS`] exceeds this cap is self-contradictory.
pub const WINDOW_SWAP_CAP: &str = "window_swap_cap";
/// Distance-oracle memo hits accumulated over the stream (sparse lookup
/// path only).
pub const ORACLE_HITS: &str = "oracle_hits";
/// Distance-oracle memo misses (Dijkstra/search runs) over the stream.
pub const ORACLE_MISSES: &str = "oracle_misses";
/// Windows whose equivalence check succeeded, by either step.
pub const VERIFIED_WINDOWS: &str = "verified_windows";
/// Of the [`VERIFIED_WINDOWS`], those the structural CNOT+phase step
/// decided (equal parity matrices and equal reduced phase polynomials)
/// without building a QMDD. Never more than [`VERIFIED_WINDOWS`].
pub const STRUCTURAL_WINDOWS: &str = "structural_windows";
/// Windows whose check exhausted its QMDD node budget (degraded mode).
pub const UNVERIFIED_WINDOWS: &str = "unverified_windows";
/// High-water mark of gates resident in memory at once.
pub const PEAK_RESIDENT_GATES: &str = "peak_resident_gates";
/// The widest per-window miter support: how many device lines any single
/// window's spec and routed output actually touched. Support-restricted
/// verification builds each window's miter on that many qubits.
pub const MAX_WINDOW_SUPPORT: &str = "max_window_support";
/// CPU seconds spent in window miter checks, summed across verify
/// workers (may exceed the event's wall-clock when workers > 1).
pub const VERIFY_SECONDS_TOTAL: &str = "verify_seconds_total";
/// Verify workers used: the pool size for parallel verification, 1 for
/// inline verification, 0 when verification was disabled.
pub const VERIFY_JOBS: &str = "verify_jobs";
/// QMDD compute-table lookups summed over every window check, exhausted
/// ones included: a check that ran out of nodes adds the lookups it made
/// before it aborted. Windows the structural step decided add none.
pub const VERIFY_LOOKUPS: &str = "verify_lookups";
/// The largest QMDD peak node count of any completed window check.
pub const VERIFY_PEAK_NODES: &str = "verify_peak_nodes";
/// Seconds spent in the optimize stage, summed over all windows.
pub const OPTIMIZE_SECONDS_TOTAL: &str = "optimize_seconds_total";
/// Improvement rounds the optimizer kept, summed over all windows.
pub const OPTIMIZE_ROUNDS: &str = "optimize_rounds";
/// Gates the optimizer removed, summed over all windows.
pub const GATES_REMOVED: &str = "gates_removed";

/// Validates the streaming counters of a route event.
///
/// Returns `Ok(None)` when the event is not a streaming route event (not
/// [`Pass::Route`], or no [`STREAMING`] marker), and `Ok(Some(windows))`
/// with the [`WINDOWS`] count when the event is internally consistent:
///
/// * the [`STREAMING`] marker is boolean;
/// * [`WINDOWS`] is present and >= 1;
/// * [`VERIFIED_WINDOWS`] + [`UNVERIFIED_WINDOWS`] accounts for every
///   window;
/// * [`STRUCTURAL_WINDOWS`], when present, is no larger than
///   [`VERIFIED_WINDOWS`];
/// * oracle hit/miss counters, when present, are non-negative;
/// * [`MAX_WINDOW_SWAPS`] does not exceed [`WINDOW_SWAP_CAP`] when a cap
///   was recorded — a completed stream reporting a blown per-window cap
///   is corrupt;
/// * [`MAX_WINDOW_SUPPORT`], [`VERIFY_SECONDS_TOTAL`],
///   [`OPTIMIZE_SECONDS_TOTAL`] and [`VERIFY_JOBS`], when present, are
///   non-negative, and a stream that verified at least one window reports
///   `verify_jobs >= 1`;
/// * [`OPTIMIZE_ROUNDS`], [`GATES_REMOVED`], [`VERIFY_LOOKUPS`],
///   [`VERIFY_PEAK_NODES`] and [`STRUCTURAL_WINDOWS`], when present, are
///   non-negative integers.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn validate_streaming_route_event(e: &PassEvent) -> Result<Option<f64>, String> {
    if e.pass != Pass::Route {
        return Ok(None);
    }
    match e.counter(STREAMING) {
        None | Some(0.0) => return Ok(None),
        Some(1.0) => {}
        Some(v) => return Err(format!("`{STREAMING}` marker must be 0 or 1, got {v}")),
    }
    let windows = e
        .counter(WINDOWS)
        .ok_or_else(|| format!("streaming route event is missing `{WINDOWS}`"))?;
    if windows.is_nan() || windows < 1.0 {
        return Err(format!("`{WINDOWS}` must be >= 1, got {windows}"));
    }
    let verified = e.counter(VERIFIED_WINDOWS).unwrap_or(0.0);
    let unverified = e.counter(UNVERIFIED_WINDOWS).unwrap_or(0.0);
    if verified + unverified > windows {
        return Err(format!(
            "`{VERIFIED_WINDOWS}` ({verified}) + `{UNVERIFIED_WINDOWS}` ({unverified}) \
             exceeds `{WINDOWS}` ({windows})"
        ));
    }
    for name in [ORACLE_HITS, ORACLE_MISSES] {
        if let Some(v) = e.counter(name) {
            if v.is_nan() || v < 0.0 {
                return Err(format!("`{name}` must be non-negative, got {v}"));
            }
        }
    }
    let max_window_swaps = e.counter(MAX_WINDOW_SWAPS).unwrap_or(0.0);
    if let Some(cap) = e.counter(WINDOW_SWAP_CAP) {
        if max_window_swaps > cap {
            return Err(format!(
                "`{MAX_WINDOW_SWAPS}` ({max_window_swaps}) exceeds the per-window \
                 SWAP cap {cap} recorded in the same event"
            ));
        }
    }
    for name in [
        MAX_WINDOW_SUPPORT,
        VERIFY_SECONDS_TOTAL,
        OPTIMIZE_SECONDS_TOTAL,
        VERIFY_JOBS,
    ] {
        if let Some(v) = e.counter(name) {
            if v.is_nan() || v < 0.0 {
                return Err(format!("`{name}` must be non-negative, got {v}"));
            }
        }
    }
    for name in [
        OPTIMIZE_ROUNDS,
        GATES_REMOVED,
        VERIFY_LOOKUPS,
        VERIFY_PEAK_NODES,
        STRUCTURAL_WINDOWS,
    ] {
        if let Some(v) = e.counter(name) {
            if !(v >= 0.0 && v.fract() == 0.0) {
                return Err(format!("`{name}` must be a non-negative integer, got {v}"));
            }
        }
    }
    if let Some(structural) = e.counter(STRUCTURAL_WINDOWS) {
        if structural > verified {
            return Err(format!(
                "`{STRUCTURAL_WINDOWS}` ({structural}) exceeds `{VERIFIED_WINDOWS}` ({verified})"
            ));
        }
    }
    if let Some(verify_jobs) = e.counter(VERIFY_JOBS) {
        if verified + unverified > 0.0 && verify_jobs < 1.0 {
            return Err(format!(
                "stream verified {verified} window(s) but reports `{VERIFY_JOBS}` = {verify_jobs}"
            ));
        }
    }
    Ok(Some(windows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, StageSnapshot};

    fn event(counters: &[(&str, f64)]) -> PassEvent {
        let mut span = Span::new(Pass::Route);
        for &(k, v) in counters {
            span.counter(k, v);
        }
        let snap = StageSnapshot::default();
        span.finish(0.0, snap, snap, 0.0, 0.0)
    }

    #[test]
    fn non_streaming_events_pass_through() {
        assert_eq!(validate_streaming_route_event(&event(&[])), Ok(None));
        assert_eq!(
            validate_streaming_route_event(&event(&[(STREAMING, 0.0)])),
            Ok(None)
        );
        let mut verify = Span::new(Pass::Verify);
        verify.counter(STREAMING, 1.0);
        let snap = StageSnapshot::default();
        let verify = verify.finish(0.0, snap, snap, 0.0, 0.0);
        assert_eq!(validate_streaming_route_event(&verify), Ok(None));
    }

    #[test]
    fn consistent_streaming_event_yields_its_window_count() {
        let e = event(&[
            (STREAMING, 1.0),
            (WINDOWS, 4.0),
            (VERIFIED_WINDOWS, 3.0),
            (STRUCTURAL_WINDOWS, 2.0),
            (UNVERIFIED_WINDOWS, 1.0),
            (MAX_WINDOW_SWAPS, 7.0),
            (WINDOW_SWAP_CAP, 16.0),
            (ORACLE_HITS, 100.0),
            (ORACLE_MISSES, 12.0),
            (MAX_WINDOW_SUPPORT, 9.0),
            (VERIFY_SECONDS_TOTAL, 0.25),
            (VERIFY_JOBS, 4.0),
            (VERIFY_LOOKUPS, 5120.0),
            (VERIFY_PEAK_NODES, 48.0),
            (OPTIMIZE_SECONDS_TOTAL, 0.125),
            (OPTIMIZE_ROUNDS, 6.0),
            (GATES_REMOVED, 31.0),
        ]);
        assert_eq!(validate_streaming_route_event(&e), Ok(Some(4.0)));
    }

    #[test]
    fn count_counters_must_be_non_negative_integers() {
        for name in [
            OPTIMIZE_ROUNDS,
            GATES_REMOVED,
            VERIFY_LOOKUPS,
            VERIFY_PEAK_NODES,
            STRUCTURAL_WINDOWS,
        ] {
            for bad in [-1.0, 2.5, f64::NAN, f64::INFINITY] {
                let e = event(&[(STREAMING, 1.0), (WINDOWS, 2.0), (name, bad)]);
                assert!(
                    validate_streaming_route_event(&e).is_err(),
                    "{name} = {bad} must be rejected"
                );
            }
            let e = event(&[(STREAMING, 1.0), (WINDOWS, 2.0), (name, 0.0)]);
            assert_eq!(validate_streaming_route_event(&e), Ok(Some(2.0)));
        }
        let e = event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (OPTIMIZE_SECONDS_TOTAL, -0.5),
        ]);
        assert!(validate_streaming_route_event(&e).is_err());
    }

    #[test]
    fn verify_counters_are_validated() {
        // Negative verify time is corrupt.
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (VERIFY_SECONDS_TOTAL, -0.5),
        ]))
        .is_err());
        // Verified windows with zero recorded workers is contradictory...
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (VERIFIED_WINDOWS, 2.0),
            (VERIFY_JOBS, 0.0),
        ]))
        .is_err());
        // ...but an event omitting the counter entirely (pre-support-
        // restriction traces) still validates.
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (VERIFIED_WINDOWS, 2.0),
        ]))
        .unwrap()
        .is_some());
    }

    #[test]
    fn violations_are_rejected() {
        assert!(validate_streaming_route_event(&event(&[(STREAMING, 1.0)])).is_err());
        assert!(
            validate_streaming_route_event(&event(&[(STREAMING, 1.0), (WINDOWS, 0.0),])).is_err()
        );
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (VERIFIED_WINDOWS, 2.0),
            (UNVERIFIED_WINDOWS, 1.0),
        ]))
        .is_err());
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 4.0),
            (VERIFIED_WINDOWS, 3.0),
            (STRUCTURAL_WINDOWS, 4.0),
        ]))
        .is_err());
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (ORACLE_HITS, -1.0),
        ]))
        .is_err());
        assert!(validate_streaming_route_event(&event(&[
            (STREAMING, 1.0),
            (WINDOWS, 2.0),
            (MAX_WINDOW_SWAPS, 9.0),
            (WINDOW_SWAP_CAP, 8.0),
        ]))
        .is_err());
    }
}
