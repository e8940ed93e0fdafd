//! The structured event model: passes, per-pass snapshots and events, the
//! [`Span`] event builder, and the aggregate [`CompileMetrics`].

use crate::json::{self, Value};
use qsyn_circuit::{depth, t_depth, Circuit, CircuitStats};
use std::fmt::Write as _;

/// One stage of the compiler's Fig. 2 back-end pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Logical-to-physical placement.
    Place,
    /// Generalized-Toffoli and Clifford+T lowering (Barenco, Nielsen &
    /// Chuang).
    Decompose,
    /// CNOT legalization against the coupling map (Fig. 6 reversal, CTR
    /// reroute or persistent-layout routing).
    Route,
    /// Local cost-function optimization.
    Optimize,
    /// QMDD formal verification of the output against the specification.
    Verify,
}

impl Pass {
    /// Every pass, in the paper's Fig. 2 pipeline order.
    pub const FIG2_ORDER: [Pass; 5] = [
        Pass::Place,
        Pass::Decompose,
        Pass::Route,
        Pass::Optimize,
        Pass::Verify,
    ];

    /// Stable lowercase identifier used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Place => "place",
            Pass::Decompose => "decompose",
            Pass::Route => "route",
            Pass::Optimize => "optimize",
            Pass::Verify => "verify",
        }
    }

    /// Inverse of [`Pass::name`].
    pub fn from_name(name: &str) -> Option<Pass> {
        Pass::FIG2_ORDER.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Routing-strategy names in numeric-tag order: the route pass stamps its
/// event with a `strategy` counter holding the index into this table, and
/// `qsyn check-trace` resolves it back via [`route_strategy_name`].
///
/// Counters are numeric by design (see [`PassEvent::counters`]), so the
/// strategy travels as a small integer; this table is the single shared
/// registry both the emitting and the validating side use.
///
/// Tags are never reused: tag 2 names the retired `lazy-synth` skeleton,
/// which no current build emits, so traces written while it existed
/// still decode truthfully.
pub const ROUTE_STRATEGY_NAMES: [&str; 4] = ["ctr", "lookahead", "lazy-synth", "persistent"];

/// The routing-strategy name behind a route event's `strategy` counter
/// value, or `None` when the value is not an exact known tag.
pub fn route_strategy_name(tag: f64) -> Option<&'static str> {
    route_strategy_index(tag).map(|i| ROUTE_STRATEGY_NAMES[i])
}

/// The index into [`ROUTE_STRATEGY_NAMES`] a `strategy` counter value
/// names, or `None` when the value is not an exact known tag.
pub(crate) fn route_strategy_index(tag: f64) -> Option<usize> {
    (0..ROUTE_STRATEGY_NAMES.len()).find(|&i| tag == i as f64)
}

/// Inverse of [`route_strategy_name`]: the numeric tag a strategy name is
/// recorded under.
pub fn route_strategy_tag(name: &str) -> Option<f64> {
    ROUTE_STRATEGY_NAMES
        .iter()
        .position(|&n| n == name)
        .map(|i| i as f64)
}

/// Circuit shape at a pass boundary: gate statistics plus the two depth
/// metrics every report table of the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// Register width.
    pub qubits: usize,
    /// Aggregate gate counts (T, CNOT, volume, ...).
    pub stats: CircuitStats,
    /// Critical-path depth.
    pub depth: usize,
    /// T-depth (fault-tolerance latency).
    pub t_depth: usize,
}

impl StageSnapshot {
    /// Captures a circuit's statistics and depths.
    pub fn of(circuit: &Circuit) -> Self {
        StageSnapshot {
            qubits: circuit.n_qubits(),
            stats: circuit.stats(),
            depth: depth(circuit),
            t_depth: t_depth(circuit),
        }
    }

    fn to_json(self) -> Value {
        let n = |v: usize| Value::Num(v as f64);
        Value::Obj(vec![
            ("qubits".into(), n(self.qubits)),
            ("gates".into(), n(self.stats.volume)),
            ("t".into(), n(self.stats.t_count)),
            ("cnot".into(), n(self.stats.cnot_count)),
            ("other_single".into(), n(self.stats.other_single_count)),
            ("unmapped_multi".into(), n(self.stats.unmapped_multi_count)),
            ("max_mct_controls".into(), n(self.stats.max_mct_controls)),
            ("depth".into(), n(self.depth)),
            ("t_depth".into(), n(self.t_depth)),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let n = |key: &str| v.get(key).and_then(Value::as_usize);
        Some(StageSnapshot {
            qubits: n("qubits")?,
            stats: CircuitStats {
                volume: n("gates")?,
                t_count: n("t")?,
                cnot_count: n("cnot")?,
                other_single_count: n("other_single")?,
                unmapped_multi_count: n("unmapped_multi")?,
                max_mct_controls: n("max_mct_controls")?,
            },
            depth: n("depth")?,
            t_depth: n("t_depth")?,
        })
    }
}

/// One completed pipeline pass: what went in, what came out, how long it
/// took, what it cost (paper Eqn. 2 under the compiler's active cost
/// model), and backend-specific counters (SWAPs inserted, optimizer
/// rounds, QMDD node/cache figures, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct PassEvent {
    /// Which pass ran.
    pub pass: Pass,
    /// Identifier of the compilation job this event belongs to. `None` for
    /// single-compile traces; parallel sweeps stamp every event with its
    /// (circuit x device) job index so interleaved JSONL streams can be
    /// grouped back into per-job pass sequences.
    pub job: Option<u64>,
    /// Wall-clock time of the pass in seconds.
    pub seconds: f64,
    /// Circuit shape entering the pass.
    pub input: StageSnapshot,
    /// Circuit shape leaving the pass.
    pub output: StageSnapshot,
    /// Cost of the input under the compiler's cost model.
    pub cost_in: f64,
    /// Cost of the output under the compiler's cost model.
    pub cost_out: f64,
    /// Backend-specific counters, e.g. `("swaps_inserted", 4.0)`.
    pub counters: Vec<(String, f64)>,
}

impl PassEvent {
    /// Cost improvement of the pass (positive when the pass cheapened the
    /// circuit; decomposition and routing are normally negative).
    pub fn cost_delta(&self) -> f64 {
        self.cost_in - self.cost_out
    }

    /// Looks up a backend counter by name.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the event as one JSON object (the JSONL line format).
    /// The `job` key is present only for stamped (sweep) events, so
    /// single-compile traces keep their original shape.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![("pass".to_string(), Value::Str(self.pass.name().into()))];
        if let Some(job) = self.job {
            pairs.push(("job".into(), Value::Num(job as f64)));
        }
        pairs.extend([
            ("seconds".to_string(), Value::Num(self.seconds)),
            ("input".into(), self.input.to_json()),
            ("output".into(), self.output.to_json()),
            ("cost_in".into(), Value::Num(self.cost_in)),
            ("cost_out".into(), Value::Num(self.cost_out)),
            ("cost_delta".into(), Value::Num(self.cost_delta())),
            (
                "counters".into(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
        ]);
        Value::Obj(pairs)
    }

    /// Deserializes an event produced by [`PassEvent::to_json`].
    pub fn from_json(v: &Value) -> Option<Self> {
        let counters = match v.get("counters")? {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(k, val)| Some((k.clone(), val.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(PassEvent {
            pass: Pass::from_name(v.get("pass")?.as_str()?)?,
            // Optional for backward compatibility with pre-sweep traces.
            job: v.get("job").and_then(Value::as_f64).map(|n| n as u64),
            seconds: v.get("seconds")?.as_f64()?,
            input: StageSnapshot::from_json(v.get("input")?)?,
            output: StageSnapshot::from_json(v.get("output")?)?,
            cost_in: v.get("cost_in")?.as_f64()?,
            cost_out: v.get("cost_out")?.as_f64()?,
            counters,
        })
    }
}

/// A pass event under construction: attach counters as they become
/// known, then finish it with the seconds the caller measured for exactly
/// the pass's own work.
///
/// A span keeps no clock: the caller times the work it names, so the
/// event never includes time spent building the event itself.
#[derive(Debug)]
pub struct Span {
    pass: Pass,
    counters: Vec<(String, f64)>,
}

impl Span {
    /// Starts collecting counters for a pass.
    pub fn new(pass: Pass) -> Self {
        Span {
            pass,
            counters: Vec::new(),
        }
    }

    /// Attaches a backend-specific counter.
    pub fn counter(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.counters.push((name.into(), value));
        self
    }

    /// Produces the event, taking the pass's measured wall-clock
    /// `seconds`.
    pub fn finish(
        self,
        seconds: f64,
        input: StageSnapshot,
        output: StageSnapshot,
        cost_in: f64,
        cost_out: f64,
    ) -> PassEvent {
        PassEvent {
            pass: self.pass,
            job: None,
            seconds,
            input,
            output,
            cost_in,
            cost_out,
            counters: self.counters,
        }
    }
}

/// Final verification outcome of a compile, including the graceful-
/// degradation ladder's explicit "gave up" state.
///
/// `Unverified` is a first-class outcome, never a silent pass: it records
/// that every rung of the verification ladder exhausted its resource budget
/// before reaching a verdict, so the output is *unknown*, not known-good.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Equivalence established by the named strategy (`"canonical"`,
    /// `"canonical+gc"`, `"miter"`, ...).
    Verified {
        /// The strategy that produced the verdict.
        method: String,
    },
    /// The check ran to completion and the output does **not** implement
    /// the specification.
    Failed {
        /// The strategy that produced the verdict.
        method: String,
    },
    /// Verification was disabled.
    #[default]
    Skipped,
    /// Every ladder rung ran out of budget; no verdict was reached.
    Unverified {
        /// Why the ladder gave up (e.g. the budget that was exhausted).
        reason: String,
    },
}

impl Verdict {
    /// The legacy boolean view: `Some(true)` for verified, `Some(false)`
    /// for failed, `None` for skipped *and* unverified (no verdict).
    pub fn as_verified(&self) -> Option<bool> {
        match self {
            Verdict::Verified { .. } => Some(true),
            Verdict::Failed { .. } => Some(false),
            Verdict::Skipped | Verdict::Unverified { .. } => None,
        }
    }

    /// Whether the ladder gave up without a verdict.
    pub fn is_unverified(&self) -> bool {
        matches!(self, Verdict::Unverified { .. })
    }

    /// Reconstructs a verdict from the legacy `verified` field of
    /// pre-ladder traces (the strategy was not recorded back then).
    pub fn from_legacy(verified: Option<bool>) -> Verdict {
        match verified {
            Some(true) => Verdict::Verified {
                method: "unknown".into(),
            },
            Some(false) => Verdict::Failed {
                method: "unknown".into(),
            },
            None => Verdict::Skipped,
        }
    }

    /// Stable lowercase status identifier used in JSON output.
    pub fn status(&self) -> &'static str {
        match self {
            Verdict::Verified { .. } => "verified",
            Verdict::Failed { .. } => "failed",
            Verdict::Skipped => "skipped",
            Verdict::Unverified { .. } => "unverified",
        }
    }

    fn to_json(&self) -> Value {
        let mut pairs = vec![("status".to_string(), Value::Str(self.status().into()))];
        match self {
            Verdict::Verified { method } | Verdict::Failed { method } => {
                pairs.push(("method".into(), Value::Str(method.clone())));
            }
            Verdict::Unverified { reason } => {
                pairs.push(("reason".into(), Value::Str(reason.clone())));
            }
            Verdict::Skipped => {}
        }
        Value::Obj(pairs)
    }

    fn from_json(v: &Value) -> Option<Self> {
        let method = || {
            v.get("method")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string()
        };
        Some(match v.get("status")?.as_str()? {
            "verified" => Verdict::Verified { method: method() },
            "failed" => Verdict::Failed { method: method() },
            "skipped" => Verdict::Skipped,
            "unverified" => Verdict::Unverified {
                reason: v
                    .get("reason")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            },
            _ => return None,
        })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Verified { method } => write!(f, "passed ({method})"),
            Verdict::Failed { method } => write!(f, "FAILED ({method})"),
            Verdict::Skipped => f.write_str("skipped"),
            Verdict::Unverified { reason } => write!(f, "UNVERIFIED — {reason}"),
        }
    }
}

/// Structured record of one full compilation: every pass event plus the
/// identifying context, replacing the old hand-formatted report string.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompileMetrics {
    /// Input circuit name.
    pub circuit: String,
    /// Target device name.
    pub device: String,
    /// Name of the cost model the events were priced under.
    pub cost_model: String,
    /// Per-pass events in execution (Fig. 2) order.
    pub events: Vec<PassEvent>,
    /// Verification verdict (`None` when verification was disabled).
    /// Legacy boolean view of [`CompileMetrics::verdict`]; the two are kept
    /// coherent by the compiler.
    pub verified: Option<bool>,
    /// Structured verification outcome, including the degradation ladder's
    /// explicit [`Verdict::Unverified`] state.
    pub verdict: Verdict,
    /// Total wall-clock seconds across all passes.
    pub total_seconds: f64,
    /// Whether this record was replayed from the compile cache rather
    /// than produced by running the pipeline.
    pub cache_hit: bool,
}

impl CompileMetrics {
    /// The event of a given pass, if that pass ran.
    pub fn pass(&self, pass: Pass) -> Option<&PassEvent> {
        self.events.iter().find(|e| e.pass == pass)
    }

    /// Percent cost decrease achieved by the optimization pass — the
    /// quantity reported in the paper's Tables 4, 6 and 8, computed under
    /// the compiler's cost model.
    pub fn percent_cost_decrease(&self) -> f64 {
        match self.pass(Pass::Optimize) {
            Some(e) if e.cost_in != 0.0 => (e.cost_in - e.cost_out) / e.cost_in * 100.0,
            _ => 0.0,
        }
    }

    /// Net cost change over the whole pipeline (sum of per-pass deltas).
    pub fn total_cost_delta(&self) -> f64 {
        self.events.iter().map(PassEvent::cost_delta).sum()
    }

    /// Renders the stage table: one row per pass with sizes, depths, cost
    /// and timing — a superset of the old `report()` markdown table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compile trace for {:?} on {} (cost model {})",
            self.circuit, self.device, self.cost_model
        );
        let _ = writeln!(
            out,
            "| pass | T | CNOT | gates | depth | T-depth | cost | Δcost | ms | detail |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
        // Lead with the specification (the input of the first pass) so the
        // table shows the same specification/mapped/optimized progression
        // as the paper's tables.
        if let Some(first) = self.events.first() {
            let s = first.input;
            let _ = writeln!(
                out,
                "| specification | {} | {} | {} | {} | {} | {:.2} | | | |",
                s.stats.t_count,
                s.stats.cnot_count,
                s.stats.volume,
                s.depth,
                s.t_depth,
                first.cost_in
            );
        }
        for e in &self.events {
            let s = e.output;
            let detail: Vec<String> = e.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {:.2} | {:+.2} | {:.2} | {} |",
                e.pass,
                s.stats.t_count,
                s.stats.cnot_count,
                s.stats.volume,
                s.depth,
                s.t_depth,
                e.cost_out,
                e.cost_delta(),
                e.seconds * 1e3,
                detail.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "optimization recovered {:.1}% of the mapping cost",
            self.percent_cost_decrease()
        );
        let _ = writeln!(out, "QMDD verification: {}", self.verdict);
        out
    }

    /// Serializes the whole record as one JSON object.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("circuit".into(), Value::Str(self.circuit.clone())),
            ("device".into(), Value::Str(self.device.clone())),
            ("cost_model".into(), Value::Str(self.cost_model.clone())),
            (
                "verified".into(),
                match self.verified {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                },
            ),
            ("verdict".into(), self.verdict.to_json()),
            ("total_seconds".into(), Value::Num(self.total_seconds)),
            ("cache_hit".into(), Value::Bool(self.cache_hit)),
            (
                "events".into(),
                Value::Arr(self.events.iter().map(PassEvent::to_json).collect()),
            ),
        ])
    }

    /// Deserializes a record produced by [`CompileMetrics::to_json`].
    pub fn from_json(v: &Value) -> Option<Self> {
        let verified = match v.get("verified")? {
            Value::Null => None,
            other => Some(other.as_bool()?),
        };
        Some(CompileMetrics {
            circuit: v.get("circuit")?.as_str()?.to_string(),
            device: v.get("device")?.as_str()?.to_string(),
            cost_model: v.get("cost_model")?.as_str()?.to_string(),
            verified,
            // Absent in pre-ladder traces: reconstruct from the boolean.
            verdict: match v.get("verdict") {
                Some(obj) => Verdict::from_json(obj)?,
                None => Verdict::from_legacy(verified),
            },
            total_seconds: v.get("total_seconds")?.as_f64()?,
            // Absent in pre-cache traces: those were always fresh runs.
            cache_hit: v.get("cache_hit").and_then(Value::as_bool).unwrap_or(false),
            events: v
                .get("events")?
                .as_arr()?
                .iter()
                .map(PassEvent::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Parses a record from its JSON text form.
    ///
    /// # Errors
    ///
    /// Returns the JSON syntax error, or a schema message when the text is
    /// valid JSON but not a serialized `CompileMetrics`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        Self::from_json(&v).ok_or_else(|| "not a CompileMetrics object".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_gate::Gate;

    fn sample_event() -> PassEvent {
        let mut c = Circuit::new(3);
        c.push(Gate::t(0));
        c.push(Gate::cx(0, 1));
        let snap = StageSnapshot::of(&c);
        let mut span = Span::new(Pass::Route);
        span.counter("swaps_inserted", 4.0);
        span.finish(0.0, snap, snap, 2.75, 3.5)
    }

    #[test]
    fn fig2_order_matches_names() {
        let names: Vec<&str> = Pass::FIG2_ORDER.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["place", "decompose", "route", "optimize", "verify"]);
        for p in Pass::FIG2_ORDER {
            assert_eq!(Pass::from_name(p.name()), Some(p));
        }
        assert_eq!(Pass::from_name("bogus"), None);
    }

    #[test]
    fn snapshot_captures_stats_and_depths() {
        let mut c = Circuit::new(2);
        c.push(Gate::t(0));
        c.push(Gate::h(0));
        c.push(Gate::cx(0, 1));
        let s = StageSnapshot::of(&c);
        assert_eq!(s.qubits, 2);
        assert_eq!(s.stats.t_count, 1);
        assert_eq!(s.stats.cnot_count, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.t_depth, 1);
    }

    #[test]
    fn event_round_trips_through_json() {
        let e = sample_event();
        let line = e.to_json().to_string();
        let parsed = PassEvent::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn job_id_round_trips_and_is_omitted_when_absent() {
        let mut e = sample_event();
        assert!(!e.to_json().to_string().contains("\"job\""));
        e.job = Some(17);
        let line = e.to_json().to_string();
        assert!(line.contains("\"job\":17"));
        let parsed = PassEvent::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.job, Some(17));
        assert_eq!(parsed, e);
    }

    #[test]
    fn event_exposes_counters_and_delta() {
        let e = sample_event();
        assert_eq!(e.counter("swaps_inserted"), Some(4.0));
        assert_eq!(e.counter("missing"), None);
        assert!((e.cost_delta() - (2.75 - 3.5)).abs() < 1e-12);
    }

    #[test]
    fn metrics_round_trip_and_pct() {
        let mut m = CompileMetrics {
            circuit: "tof".into(),
            device: "ibmqx4".into(),
            cost_model: "transmon-eqn2".into(),
            events: vec![sample_event()],
            verified: Some(true),
            verdict: Verdict::Verified {
                method: "canonical".into(),
            },
            total_seconds: 0.25,
            cache_hit: false,
        };
        m.events[0].pass = Pass::Optimize;
        let parsed = CompileMetrics::parse(&m.to_json().to_string()).unwrap();
        assert_eq!(parsed, m);
        // optimize went 2.75 -> 3.5: a cost increase, negative decrease.
        assert!((m.percent_cost_decrease() - (2.75 - 3.5) / 2.75 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn table_names_all_stages() {
        let m = CompileMetrics {
            circuit: "tof".into(),
            device: "ibmqx4".into(),
            cost_model: "transmon-eqn2".into(),
            events: vec![sample_event()],
            verified: Some(true),
            verdict: Verdict::Verified {
                method: "canonical".into(),
            },
            total_seconds: 0.0,
            cache_hit: false,
        };
        let t = m.render_table();
        assert!(t.contains("specification"));
        assert!(t.contains("route"));
        assert!(t.contains("swaps_inserted=4"));
        assert!(t.contains("QMDD verification: passed"));
    }

    #[test]
    fn verdict_round_trips_through_json() {
        for verdict in [
            Verdict::Verified {
                method: "canonical".into(),
            },
            Verdict::Failed {
                method: "miter".into(),
            },
            Verdict::Skipped,
            Verdict::Unverified {
                reason: "node budget exhausted on every rung".into(),
            },
        ] {
            let m = CompileMetrics {
                circuit: "c".into(),
                device: "d".into(),
                cost_model: "volume".into(),
                events: vec![],
                verified: verdict.as_verified(),
                verdict: verdict.clone(),
                total_seconds: 0.0,
                cache_hit: false,
            };
            let parsed = CompileMetrics::parse(&m.to_json().to_string()).unwrap();
            assert_eq!(parsed.verdict, verdict);
            assert_eq!(parsed.verified, verdict.as_verified());
        }
    }

    #[test]
    fn legacy_metrics_without_verdict_key_reconstruct() {
        let mut m = CompileMetrics {
            circuit: "c".into(),
            device: "d".into(),
            cost_model: "volume".into(),
            events: vec![],
            verified: Some(true),
            verdict: Verdict::Verified {
                method: "canonical".into(),
            },
            total_seconds: 0.0,
            cache_hit: false,
        };
        // Simulate a pre-ladder trace by dropping the verdict key.
        let text = m.to_json().to_string();
        let legacy = text.replacen(
            ",\"verdict\":{\"status\":\"verified\",\"method\":\"canonical\"}",
            "",
            1,
        );
        assert_ne!(text, legacy, "verdict key must have been removed");
        let parsed = CompileMetrics::parse(&legacy).unwrap();
        assert_eq!(parsed.verified, Some(true));
        assert_eq!(
            parsed.verdict,
            Verdict::Verified {
                method: "unknown".into()
            }
        );
        // And the boolean drives the reconstruction for the other states.
        m.verified = None;
        m.verdict = Verdict::Skipped;
        let legacy =
            m.to_json()
                .to_string()
                .replacen(",\"verdict\":{\"status\":\"skipped\"}", "", 1);
        assert_eq!(
            CompileMetrics::parse(&legacy).unwrap().verdict,
            Verdict::Skipped
        );
    }

    #[test]
    fn unverified_renders_loudly() {
        let m = CompileMetrics {
            circuit: "big".into(),
            device: "qc96".into(),
            cost_model: "volume".into(),
            events: vec![],
            verified: None,
            verdict: Verdict::Unverified {
                reason: "node budget exhausted".into(),
            },
            total_seconds: 0.0,
            cache_hit: false,
        };
        let t = m.render_table();
        assert!(t.contains("UNVERIFIED"), "{t}");
        assert!(t.contains("node budget exhausted"), "{t}");
    }

    #[test]
    fn missing_optimize_pass_means_zero_pct() {
        let m = CompileMetrics::default();
        assert_eq!(m.percent_cost_decrease(), 0.0);
        assert_eq!(m.pass(Pass::Optimize), None);
    }
}
