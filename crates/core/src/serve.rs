//! The request/response model and per-request execution of `qsyn serve`.
//!
//! The daemon front-end (the `qsyn serve` subcommand) reads one JSON
//! request per line, schedules it on a worker pool, and writes one JSON
//! response per request — *always* one, in completion order, whatever the
//! request did: parsed garbage, blew its budget, panicked the compiler,
//! or compiled cleanly. This module owns everything about a single
//! request that is independent of the daemon's threading:
//!
//! * [`parse_request`] — a strict, structured parser over the hand-rolled
//!   trace JSON model. Every malformed input (truncated line, wrong type,
//!   duplicate key, unknown field, oversized circuit source, unknown
//!   device/cost/strategy) maps to a typed [`RequestError`] that becomes
//!   a structured error response; nothing in here can panic on hostile
//!   input.
//! * [`execute`] — runs one parsed request to completion under
//!   `catch_unwind`: deadline accounting from *accept* time (queue wait
//!   counts against the request), node-budget admission through
//!   [`NodeBudgetGate`], one automatic retry at a doubled node budget
//!   before an `Unverified` verdict is reported, and structured error
//!   rows for panics and compile errors.
//! * [`ServeResponse`] — the response row and its JSON rendering.
//!
//! With the `fault-injection` cargo feature, requests may carry an
//! `inject` field that arms service-boundary faults: `pass:kind` compile
//! faults (PR 3), `slow:MS` worker stalls, and `poison-disk`, which
//! corrupts the request's own disk-cache entry after compiling so the
//! next lookup exercises the quarantine path.

use crate::cache::CacheMode;
use crate::options::{CompileOptions, CostKind};
use crate::persist::DiskCache;
use crate::place::PlacementStrategy;
use crate::pool::panic_message;
use crate::strategy::RouteStrategyKind;
use qsyn_arch::{devices, Device};
use qsyn_circuit::Circuit;
use qsyn_trace::json::{self, Value};
use qsyn_trace::TraceSink;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon-level defaults applied to fields a request leaves unset.
#[derive(Debug, Clone)]
pub struct ServeDefaults {
    /// Default compile options; a request overrides them field by field.
    /// The deadline is measured from accept time. The daemon runs the
    /// `mem` cache by default, so repeated traffic hits the compile
    /// cache.
    pub options: CompileOptions,
    /// Hard cap on the circuit-source field of one request, in bytes.
    pub max_source_bytes: usize,
    /// Whether responses carry the compiled QASM by default.
    pub emit_qasm: bool,
    /// Whether an `Unverified` verdict earns one automatic retry at a
    /// doubled node budget before being reported.
    pub retry: bool,
}

impl Default for ServeDefaults {
    fn default() -> Self {
        ServeDefaults {
            options: CompileOptions {
                cache: CacheMode::Mem,
                ..CompileOptions::default()
            },
            max_source_bytes: 1 << 20,
            emit_qasm: true,
            retry: true,
        }
    }
}

/// Everything [`execute`] needs besides the request itself. Shared across
/// worker threads behind an `Arc`.
pub struct ServeContext {
    /// Daemon defaults.
    pub defaults: ServeDefaults,
    /// The persistent cache tier, when the daemon was started with one.
    pub disk: Option<Arc<DiskCache>>,
    /// Trace sink receiving every request's pass events (stamped with the
    /// request's job id).
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Global in-flight node-budget ceiling, when configured.
    pub gate: Option<Arc<NodeBudgetGate>>,
}

/// A service-boundary fault a request may arm (test/CI builds only).
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeFault {
    /// A PR-3 compile fault (`pass:kind`), run through the normal
    /// injection machinery.
    Compile(crate::budget::FaultSpec),
    /// Stall the worker for this many milliseconds before compiling
    /// (exercises deadline enforcement and queue backpressure).
    Slow(u64),
    /// After compiling, flip a byte in this request's own disk-cache
    /// entry, so the next lookup of the same key must quarantine and
    /// recompute.
    PoisonDisk,
}

/// One parsed, validated compile request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Client-chosen request id, echoed verbatim on the response.
    pub id: String,
    /// The parsed circuit.
    pub circuit: Circuit,
    /// The resolved target device.
    pub device: Device,
    /// Compile options: the daemon defaults with the request's overrides.
    /// The deadline runs from accept time.
    pub options: CompileOptions,
    /// Whether the response carries the compiled QASM.
    pub emit_qasm: bool,
    /// Armed service fault, if any.
    #[cfg(feature = "fault-injection")]
    pub fault: Option<ServeFault>,
}

/// Machine-readable category of a request rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestErrorKind {
    /// The line is not valid JSON.
    Parse,
    /// The JSON does not match the request schema (wrong type, missing
    /// or unknown or duplicate field).
    Schema,
    /// A field exceeds the daemon's size cap.
    TooLarge,
    /// A field has the right type but an unknown value (device, cost
    /// model, strategy, unparsable circuit source, ...).
    BadValue,
}

impl RequestErrorKind {
    /// Stable identifier used in the response `kind` field.
    pub fn name(self) -> &'static str {
        match self {
            RequestErrorKind::Parse => "parse",
            RequestErrorKind::Schema => "schema",
            RequestErrorKind::TooLarge => "too-large",
            RequestErrorKind::BadValue => "bad-value",
        }
    }
}

/// A structured request rejection: category plus a human-readable message
/// naming the offending field or value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Rejection category.
    pub kind: RequestErrorKind,
    /// What exactly was wrong.
    pub message: String,
    /// The request id, when the line was parseable enough to extract it
    /// (so even rejections can be correlated by the client).
    pub id: Option<String>,
}

impl RequestError {
    fn new(kind: RequestErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            message: message.into(),
            id: None,
        }
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// A [`RequestError`] naming the first problem found; the error carries
/// the request `id` whenever one was recoverable from the line.
pub fn parse_request(line: &str, defaults: &ServeDefaults) -> Result<ServeRequest, RequestError> {
    let value = json::parse(line.trim())
        .map_err(|e| RequestError::new(RequestErrorKind::Parse, format!("invalid JSON: {e}")))?;
    let Value::Obj(pairs) = &value else {
        return Err(RequestError::new(
            RequestErrorKind::Schema,
            "request must be a JSON object",
        ));
    };
    // Recover the id early so later rejections still correlate.
    let id = value.get("id").and_then(Value::as_str).map(str::to_string);
    let fail = |kind: RequestErrorKind, message: String| RequestError {
        kind,
        message,
        id: id.clone(),
    };
    if let Some(key) = first_duplicate_key(&value) {
        return Err(fail(
            RequestErrorKind::Schema,
            format!("duplicate key `{key}`"),
        ));
    }

    let mut source: Option<&str> = None;
    let mut format = "qasm";
    let mut device: Option<&str> = None;
    let mut options = defaults.options.clone();
    let mut emit_qasm = defaults.emit_qasm;
    #[cfg(feature = "fault-injection")]
    let mut fault: Option<ServeFault> = None;

    let want_str = |key: &str, v: &Value| -> Result<String, RequestError> {
        v.as_str().map(str::to_string).ok_or_else(|| {
            fail(
                RequestErrorKind::Schema,
                format!("field `{key}` must be a string"),
            )
        })
    };
    let want_bool = |key: &str, v: &Value| -> Result<bool, RequestError> {
        v.as_bool().ok_or_else(|| {
            fail(
                RequestErrorKind::Schema,
                format!("field `{key}` must be a boolean"),
            )
        })
    };
    let bad_choice = |what: &str, value: &str, choices: String| {
        fail(
            RequestErrorKind::BadValue,
            format!("unknown {what} `{value}` (want {choices})"),
        )
    };
    let bad_range =
        |key: &str, rule: &str| fail(RequestErrorKind::Schema, format!("field `{key}` {rule}"));
    let want_uint = |key: &str, v: &Value| -> Result<u64, RequestError> {
        match v.as_f64() {
            Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Ok(n as u64)
            }
            _ => Err(fail(
                RequestErrorKind::Schema,
                format!("field `{key}` must be a non-negative integer"),
            )),
        }
    };

    for (key, v) in pairs {
        match key.as_str() {
            "id" => {
                want_str("id", v)?;
            }
            "circuit" => {
                let s = v.as_str().ok_or_else(|| {
                    fail(
                        RequestErrorKind::Schema,
                        "field `circuit` must be a string of circuit source".to_string(),
                    )
                })?;
                if s.len() > defaults.max_source_bytes {
                    return Err(fail(
                        RequestErrorKind::TooLarge,
                        format!(
                            "circuit source is {} bytes; the daemon caps requests at {}",
                            s.len(),
                            defaults.max_source_bytes
                        ),
                    ));
                }
                source = Some(s);
            }
            "format" => {
                let s = want_str("format", v)?;
                match s.as_str() {
                    "qasm" => format = "qasm",
                    "qc" => format = "qc",
                    "real" => format = "real",
                    other => {
                        return Err(fail(
                            RequestErrorKind::BadValue,
                            format!("unknown circuit format `{other}` (want qasm, qc or real)"),
                        ))
                    }
                }
            }
            "device" => {
                device = Some(v.as_str().ok_or_else(|| {
                    fail(
                        RequestErrorKind::Schema,
                        "field `device` must be a string".to_string(),
                    )
                })?)
            }
            "cost" => {
                let s = want_str("cost", v)?;
                options.cost = CostKind::parse(&s)
                    .ok_or_else(|| bad_choice("cost model", &s, CostKind::choices()))?;
            }
            "placement" => {
                let s = want_str("placement", v)?;
                options.placement = PlacementStrategy::parse(&s)
                    .ok_or_else(|| bad_choice("placement", &s, PlacementStrategy::choices()))?;
            }
            "route_strategy" => {
                let s = want_str("route_strategy", v)?;
                options.strategy = RouteStrategyKind::parse(&s).ok_or_else(|| {
                    bad_choice("route strategy", &s, RouteStrategyKind::choices())
                })?;
            }
            "optimize" => options.optimize = want_bool("optimize", v)?,
            "verify" => options.verify = want_bool("verify", v)?,
            "strict_verify" => options.set_strict_verify(want_bool("strict_verify", v)?),
            "cache" => {
                let s = want_str("cache", v)?;
                options.cache = CacheMode::parse(&s)
                    .ok_or_else(|| bad_choice("cache mode", &s, CacheMode::choices()))?;
            }
            "deadline_ms" => {
                let ms = want_uint("deadline_ms", v)?;
                options
                    .set_deadline(Duration::from_millis(ms))
                    .map_err(|rule| bad_range("deadline_ms", rule))?;
            }
            "node_budget" => {
                let n = want_uint("node_budget", v)?;
                options
                    .set_node_budget(n as usize)
                    .map_err(|rule| bad_range("node_budget", rule))?;
            }
            "max_swaps" => options.set_max_swaps(want_uint("max_swaps", v)? as usize),
            "emit" => emit_qasm = want_bool("emit", v)?,
            "inject" => {
                let s = want_str("inject", v)?;
                #[cfg(feature = "fault-injection")]
                {
                    fault = Some(parse_fault(&s).map_err(|e| {
                        fail(RequestErrorKind::BadValue, format!("bad `inject`: {e}"))
                    })?);
                }
                #[cfg(not(feature = "fault-injection"))]
                {
                    let _ = s;
                    return Err(fail(
                        RequestErrorKind::BadValue,
                        "fault injection is not compiled into this build".to_string(),
                    ));
                }
            }
            other => {
                return Err(fail(
                    RequestErrorKind::Schema,
                    format!("unknown field `{other}`"),
                ))
            }
        }
    }

    let id = id.ok_or_else(|| {
        RequestError::new(RequestErrorKind::Schema, "missing required field `id`")
    })?;
    let fail = |kind: RequestErrorKind, message: String| RequestError {
        kind,
        message,
        id: Some(id.clone()),
    };
    let source = source.ok_or_else(|| {
        fail(
            RequestErrorKind::Schema,
            "missing required field `circuit`".to_string(),
        )
    })?;
    let device_name = device.ok_or_else(|| {
        fail(
            RequestErrorKind::Schema,
            "missing required field `device`".to_string(),
        )
    })?;
    // The daemon resolves library/generated names only: a network-facing
    // service must not read arbitrary filesystem paths from requests.
    let device = devices::device_by_name(device_name).ok_or_else(|| {
        fail(
            RequestErrorKind::BadValue,
            format!("unknown device `{device_name}`"),
        )
    })?;
    let circuit = match format {
        "qc" => Circuit::from_qc(source).map_err(|e| e.to_string()),
        "real" => Circuit::from_real(source).map_err(|e| e.to_string()),
        _ => Circuit::from_qasm(source).map_err(|e| e.to_string()),
    }
    .map_err(|e| {
        fail(
            RequestErrorKind::BadValue,
            format!("unparsable circuit: {e}"),
        )
    })?;

    Ok(ServeRequest {
        id,
        circuit,
        device,
        options,
        emit_qasm,
        #[cfg(feature = "fault-injection")]
        fault,
    })
}

/// Finds the first duplicated object key anywhere in the value tree.
/// Duplicate keys are a classic request-smuggling vector (two parsers
/// disagreeing on which copy wins), so the daemon rejects them outright.
fn first_duplicate_key(v: &Value) -> Option<&str> {
    match v {
        Value::Obj(pairs) => {
            for (i, (k, _)) in pairs.iter().enumerate() {
                if pairs[..i].iter().any(|(prev, _)| prev == k) {
                    return Some(k);
                }
            }
            pairs.iter().find_map(|(_, v)| first_duplicate_key(v))
        }
        Value::Arr(items) => items.iter().find_map(first_duplicate_key),
        _ => None,
    }
}

/// Parses the `inject` request field.
#[cfg(feature = "fault-injection")]
fn parse_fault(s: &str) -> Result<ServeFault, String> {
    if s == "poison-disk" {
        return Ok(ServeFault::PoisonDisk);
    }
    if let Some(ms) = s.strip_prefix("slow:") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad slow duration `{ms}`"))?;
        return Ok(ServeFault::Slow(ms));
    }
    crate::budget::FaultSpec::parse(s).map(ServeFault::Compile)
}

// ---------------------------------------------------------------------------
// Global in-flight node-budget admission.
// ---------------------------------------------------------------------------

/// A counting semaphore over QMDD node budget: the daemon-wide ceiling on
/// the *sum* of node budgets of concurrently compiling requests, so a
/// burst of wide verifications cannot multiply per-request budgets into
/// an out-of-memory condition.
///
/// Requests acquire their node budget before compiling and release it on
/// drop (panic-safe). A request without a node budget of its own is
/// charged the full ceiling — it is unbounded, so it runs exclusively
/// with respect to the gate.
pub struct NodeBudgetGate {
    ceiling: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl NodeBudgetGate {
    /// A gate with the given ceiling (clamped to at least 1).
    pub fn new(ceiling: usize) -> NodeBudgetGate {
        let ceiling = ceiling.max(1);
        NodeBudgetGate {
            ceiling,
            available: Mutex::new(ceiling),
            freed: Condvar::new(),
        }
    }

    /// The configured ceiling.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// Blocks until `want` nodes (clamped to the ceiling, so any single
    /// request can always eventually run) are free, or the deadline
    /// passes. Returns `None` on deadline expiry.
    pub fn acquire(&self, want: usize, deadline: Option<Instant>) -> Option<NodeBudgetPermit<'_>> {
        let want = want.clamp(1, self.ceiling);
        let mut available = self.available.lock().expect("node gate poisoned");
        while *available < want {
            match deadline {
                None => {
                    available = self.freed.wait(available).expect("node gate poisoned");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (guard, _) = self
                        .freed
                        .wait_timeout(available, deadline - now)
                        .expect("node gate poisoned");
                    available = guard;
                }
            }
        }
        *available -= want;
        Some(NodeBudgetPermit { gate: self, want })
    }
}

/// An acquired slice of the node-budget ceiling; returns it on drop.
pub struct NodeBudgetPermit<'a> {
    gate: &'a NodeBudgetGate,
    want: usize,
}

impl Drop for NodeBudgetPermit<'_> {
    fn drop(&mut self) {
        let mut available = self.gate.available.lock().expect("node gate poisoned");
        *available += self.want;
        self.gate.freed.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// One response row: the outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The request id, echoed back; `None` only when the line was too
    /// broken to recover one.
    pub id: Option<String>,
    /// The daemon-assigned job number (matches the `job` field of this
    /// request's trace events).
    pub job: u64,
    /// Outcome.
    pub body: ResponseBody,
}

/// The outcome payload of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// The request compiled.
    Ok {
        /// Human-readable verdict (`verified (miter)`, `skipped`, ...).
        verdict: String,
        /// The boolean verdict view (`None` for skipped/unverified).
        verified: Option<bool>,
        /// Whether the result came from a cache tier.
        cache_hit: bool,
        /// Whether the degradation retry ran.
        retried: bool,
        /// Output gate count.
        gates: usize,
        /// Wall-clock seconds (the last attempt).
        seconds: f64,
        /// The compiled OpenQASM, when the request asked for it.
        qasm: Option<String>,
    },
    /// The request failed; the daemon is fine.
    Err {
        /// Stable machine-readable category: `parse`, `schema`,
        /// `too-large`, `bad-value`, `overloaded`, `deadline`, `panic`,
        /// `compile`, or `shutting-down`.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl ServeResponse {
    /// A structured error row.
    pub fn error(id: Option<String>, job: u64, kind: &str, message: impl Into<String>) -> Self {
        ServeResponse {
            id,
            job,
            body: ResponseBody::Err {
                kind: kind.to_string(),
                message: message.into(),
            },
        }
    }

    /// A request-rejection row.
    pub fn rejection(job: u64, e: &RequestError) -> Self {
        Self::error(e.id.clone(), job, e.kind.name(), e.message.clone())
    }

    /// Whether this row reports success.
    pub fn is_ok(&self) -> bool {
        matches!(self.body, ResponseBody::Ok { .. })
    }

    /// The JSON object for this row.
    pub fn to_json(&self) -> Value {
        let id = match &self.id {
            Some(id) => Value::Str(id.clone()),
            None => Value::Null,
        };
        let mut fields = vec![
            ("id".to_string(), id),
            ("job".to_string(), Value::Num(self.job as f64)),
        ];
        match &self.body {
            ResponseBody::Ok {
                verdict,
                verified,
                cache_hit,
                retried,
                gates,
                seconds,
                qasm,
            } => {
                fields.push(("status".to_string(), Value::Str("ok".to_string())));
                fields.push(("verdict".to_string(), Value::Str(verdict.clone())));
                fields.push((
                    "verified".to_string(),
                    match verified {
                        Some(b) => Value::Bool(*b),
                        None => Value::Null,
                    },
                ));
                fields.push(("cache_hit".to_string(), Value::Bool(*cache_hit)));
                fields.push(("retried".to_string(), Value::Bool(*retried)));
                fields.push(("gates".to_string(), Value::Num(*gates as f64)));
                fields.push(("seconds".to_string(), Value::Num(*seconds)));
                if let Some(qasm) = qasm {
                    fields.push(("qasm".to_string(), Value::Str(qasm.clone())));
                }
            }
            ResponseBody::Err { kind, message } => {
                fields.push(("status".to_string(), Value::Str("error".to_string())));
                fields.push(("kind".to_string(), Value::Str(kind.clone())));
                fields.push(("error".to_string(), Value::Str(message.clone())));
            }
        }
        Value::Obj(fields)
    }

    /// The single-line JSONL rendering.
    pub fn render(&self) -> String {
        self.to_json().to_string()
    }
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

// Per-request live metrics in the process-wide registry
// (`qsyn_trace::metrics::global`).
qsyn_trace::metric_handles! {
    fn m_queue_wait() -> Histogram = "serve.queue_wait_us";
    fn m_gate_wait() -> Histogram = "serve.gate_wait_us";
    fn m_compile() -> Histogram = "serve.compile_us";
    fn m_latency() -> Histogram = "serve.latency_us";
    fn m_deadline_expired() -> Counter = "serve.deadline_expired";
    fn m_panics() -> Counter = "serve.panics";
    fn m_retries() -> Counter = "serve.retries";
    fn m_cache_hits() -> Counter = "serve.cache_hits";
}

/// Runs one parsed request to a response. Never panics: the compile runs
/// under `catch_unwind`, and every failure mode (deadline in queue,
/// deadline mid-compile, budget blow, panic) maps to a structured error
/// row.
///
/// `accepted` is the instant the daemon read the request off the wire;
/// deadlines are measured from there, so time spent queued behind other
/// requests counts against the request — a request that waited out its
/// deadline is answered without burning a worker on it.
///
/// Execution feeds the live metrics registry: `serve.queue_wait_us`
/// (accept → worker pickup), `serve.gate_wait_us` (node-ceiling wait),
/// `serve.compile_us` (compile attempts incl. the degradation retry),
/// `serve.latency_us` (accept → response ready), and the
/// `serve.deadline_expired` / `serve.panics` / `serve.retries` /
/// `serve.cache_hits` counters.
pub fn execute(
    req: &ServeRequest,
    job: u64,
    accepted: Instant,
    ctx: &ServeContext,
) -> ServeResponse {
    m_queue_wait().record_duration(accepted.elapsed());
    let resp = execute_inner(req, job, accepted, ctx);
    if matches!(
        resp.body,
        ResponseBody::Ok {
            cache_hit: true,
            ..
        }
    ) {
        m_cache_hits().inc();
    }
    m_latency().record_duration(accepted.elapsed());
    resp
}

fn execute_inner(
    req: &ServeRequest,
    job: u64,
    accepted: Instant,
    ctx: &ServeContext,
) -> ServeResponse {
    let id = Some(req.id.clone());
    #[cfg(feature = "fault-injection")]
    if let Some(ServeFault::Slow(ms)) = &req.fault {
        std::thread::sleep(Duration::from_millis(*ms));
    }

    let deadline = req.options.budget.deadline.map(|d| accepted + d);

    // Node-budget admission: hold a permit for the whole compile.
    let _permit = match &ctx.gate {
        Some(gate) => {
            let want = req
                .options
                .budget
                .qmdd_node_budget
                .unwrap_or(gate.ceiling());
            let wait_started = Instant::now();
            let acquired = gate.acquire(want, deadline);
            m_gate_wait().record_duration(wait_started.elapsed());
            match acquired {
                Some(permit) => Some(permit),
                None => {
                    m_deadline_expired().inc();
                    return ServeResponse::error(
                        id,
                        job,
                        "deadline",
                        "deadline expired while queued for the node-budget ceiling",
                    );
                }
            }
        }
        None => None,
    };

    // The compile's own deadline is whatever queueing left of the
    // request's.
    let mut options = req.options.clone();
    if let Some(deadline) = deadline {
        let now = Instant::now();
        if now >= deadline {
            m_deadline_expired().inc();
            return ServeResponse::error(
                id,
                job,
                "deadline",
                "deadline expired before compilation started",
            );
        }
        options.budget.deadline = Some(deadline - now);
    }

    let attempt = |options: &CompileOptions| -> Result<
        Result<crate::CompileResult, crate::CompileError>,
        String,
    > {
        let mut compiler = options.compiler(req.device.clone()).with_job_id(job);
        if let Some(disk) = &ctx.disk {
            compiler = compiler.with_disk_cache(disk.clone());
        }
        if let Some(sink) = &ctx.trace {
            compiler = compiler.with_trace(sink.clone());
        }
        #[cfg(feature = "fault-injection")]
        if let Some(ServeFault::Compile(spec)) = &req.fault {
            compiler = compiler.with_fault_injection(*spec);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compiler.compile(&req.circuit)
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        #[cfg(feature = "fault-injection")]
        if let (Some(ServeFault::PoisonDisk), Some(disk)) = (&req.fault, &ctx.disk) {
            if let Some(key) = compiler.compile_key(&req.circuit) {
                let _ = disk.poison(key);
            }
        }
        outcome
    };

    let mut retried = false;
    let compile_started = Instant::now();
    let mut outcome = attempt(&options);
    // Retry-with-degradation: an Unverified verdict earns one automatic
    // retry at the next ladder rung — double the node budget — before the
    // daemon reports it. Only a finite budget can be doubled, and an
    // expired deadline makes a retry pointless.
    if ctx.defaults.retry {
        if let (Ok(Ok(result)), Some(nb)) = (&outcome, options.budget.qmdd_node_budget) {
            let deadline_left = deadline.is_none_or(|d| Instant::now() < d);
            if result.verdict().is_unverified() && deadline_left {
                retried = true;
                m_retries().inc();
                let mut doubled = options.clone();
                doubled.budget.qmdd_node_budget = Some(nb.saturating_mul(2));
                let second = attempt(&doubled);
                // Keep the retry only when it improved on Unverified; the
                // original (explicitly unverified) result is still the
                // honest answer otherwise.
                match &second {
                    Ok(Ok(r)) if !r.verdict().is_unverified() => outcome = second,
                    _ => {}
                }
            }
        }
    }

    m_compile().record_duration(compile_started.elapsed());

    match outcome {
        Err(panic) => {
            m_panics().inc();
            ServeResponse::error(id, job, "panic", panic)
        }
        Ok(Err(e)) => ServeResponse::error(id, job, "compile", e.to_string()),
        Ok(Ok(result)) => {
            let qasm = if req.emit_qasm {
                match result.optimized.to_qasm() {
                    Ok(qasm) => Some(qasm),
                    Err(e) => {
                        return ServeResponse::error(
                            id,
                            job,
                            "compile",
                            format!("emitting QASM failed: {e}"),
                        )
                    }
                }
            } else {
                None
            };
            ServeResponse {
                id,
                job,
                body: ResponseBody::Ok {
                    verdict: result.verdict().to_string(),
                    verified: result.verified,
                    cache_hit: result.metrics().cache_hit,
                    retried,
                    gates: result.optimized.len(),
                    seconds: result.metrics().total_seconds,
                    qasm,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> ServeDefaults {
        ServeDefaults::default()
    }

    const TOFFOLI_QASM: &str =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nccx q[0],q[1],q[2];\n";

    fn request_line(extra: &str) -> String {
        format!(
            "{{\"id\":\"r1\",\"circuit\":\"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\nccx q[0],q[1],q[2];\\n\",\"device\":\"ibmqx4\"{extra}}}"
        )
    }

    #[test]
    fn minimal_request_parses() {
        let req = parse_request(&request_line(""), &defaults()).expect("valid request");
        assert_eq!(req.id, "r1");
        assert_eq!(req.circuit.n_qubits(), 3);
        assert_eq!(req.device.n_qubits(), 5);
        assert_eq!(req.options, defaults().options);
        assert_eq!(req.options.cache, CacheMode::Mem);
    }

    #[test]
    fn options_override_defaults() {
        let line = request_line(
            ",\"cost\":\"volume\",\"placement\":\"greedy\",\"route_strategy\":\"lookahead\",\
             \"optimize\":false,\"deadline_ms\":500,\"node_budget\":4096,\"emit\":false",
        );
        let req = parse_request(&line, &defaults()).expect("valid request");
        assert_eq!(req.options.cost, CostKind::Volume);
        assert_eq!(req.options.placement, PlacementStrategy::Greedy);
        assert_eq!(req.options.strategy, RouteStrategyKind::Lookahead);
        assert!(!req.options.optimize);
        assert_eq!(
            req.options.budget.deadline,
            Some(Duration::from_millis(500))
        );
        assert_eq!(req.options.budget.qmdd_node_budget, Some(4096));
        assert!(!req.emit_qasm);
    }

    #[test]
    fn execute_compiles_a_toffoli() {
        let req = parse_request(&request_line(""), &defaults()).expect("valid request");
        let ctx = ServeContext {
            defaults: defaults(),
            disk: None,
            trace: None,
            gate: None,
        };
        let resp = execute(&req, 7, Instant::now(), &ctx);
        assert_eq!(resp.job, 7);
        match &resp.body {
            ResponseBody::Ok { verified, qasm, .. } => {
                assert_eq!(*verified, Some(true));
                assert!(qasm
                    .as_deref()
                    .expect("qasm emitted")
                    .starts_with("OPENQASM 2.0;"));
            }
            other => panic!("want ok, got {other:?}"),
        }
        let rendered = resp.render();
        assert!(rendered.contains("\"id\":\"r1\""), "{rendered}");
        let _ = TOFFOLI_QASM;
    }

    #[test]
    fn node_gate_admits_and_blocks() {
        let gate = NodeBudgetGate::new(100);
        let a = gate.acquire(60, None).expect("fits");
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        assert!(
            gate.acquire(60, deadline).is_none(),
            "over ceiling while held"
        );
        drop(a);
        assert!(gate.acquire(100, None).is_some(), "freed on drop");
    }

    #[test]
    fn oversized_want_is_clamped_to_ceiling() {
        let gate = NodeBudgetGate::new(10);
        let permit = gate.acquire(usize::MAX, None).expect("clamped, admits");
        drop(permit);
    }

    #[test]
    fn malformed_request_corpus_yields_structured_errors_never_panics() {
        let d = defaults();
        // (line, expected kind, message fragment) — every entry must come
        // back as a structured rejection of the right category.
        let corpus: Vec<(String, RequestErrorKind, &str)> = vec![
            // Truncated / non-JSON lines.
            ("".to_string(), RequestErrorKind::Parse, "invalid JSON"),
            ("{".to_string(), RequestErrorKind::Parse, "invalid JSON"),
            (
                request_line("")[..40].to_string(),
                RequestErrorKind::Parse,
                "invalid JSON",
            ),
            (
                "{\"id\":\"x\",\"circuit\":\"abc".to_string(),
                RequestErrorKind::Parse,
                "invalid JSON",
            ),
            // Wrong top-level type.
            ("[1,2,3]".to_string(), RequestErrorKind::Schema, "object"),
            ("\"hello\"".to_string(), RequestErrorKind::Schema, "object"),
            ("42".to_string(), RequestErrorKind::Schema, "object"),
            // Wrong field types.
            (
                r#"{"id":7,"circuit":"x","device":"ibmqx4"}"#.to_string(),
                RequestErrorKind::Schema,
                "`id` must be a string",
            ),
            (
                r#"{"id":"x","circuit":[1],"device":"ibmqx4"}"#.to_string(),
                RequestErrorKind::Schema,
                "`circuit` must be a string",
            ),
            (
                r#"{"id":"x","circuit":"c","device":4}"#.to_string(),
                RequestErrorKind::Schema,
                "`device` must be a string",
            ),
            (
                request_line(",\"optimize\":\"yes\""),
                RequestErrorKind::Schema,
                "`optimize` must be a boolean",
            ),
            (
                request_line(",\"deadline_ms\":-5"),
                RequestErrorKind::Schema,
                "non-negative integer",
            ),
            (
                request_line(",\"deadline_ms\":1.5"),
                RequestErrorKind::Schema,
                "non-negative integer",
            ),
            (
                request_line(",\"node_budget\":0"),
                RequestErrorKind::Schema,
                "must be positive",
            ),
            // Missing required fields.
            (
                r#"{"circuit":"c","device":"ibmqx4"}"#.to_string(),
                RequestErrorKind::Schema,
                "missing required field `id`",
            ),
            (
                r#"{"id":"x","device":"ibmqx4"}"#.to_string(),
                RequestErrorKind::Schema,
                "missing required field `circuit`",
            ),
            (
                r#"{"id":"x","circuit":"c"}"#.to_string(),
                RequestErrorKind::Schema,
                "missing required field `device`",
            ),
            // Unknown fields are rejected, not ignored.
            (
                request_line(",\"frobnicate\":true"),
                RequestErrorKind::Schema,
                "unknown field `frobnicate`",
            ),
            // Duplicate keys anywhere are rejected outright.
            (
                request_line(",\"optimize\":true,\"optimize\":false"),
                RequestErrorKind::Schema,
                "duplicate key",
            ),
            // Huge fields hit the size cap with a structured error.
            (
                format!(
                    "{{\"id\":\"big\",\"circuit\":\"{}\",\"device\":\"ibmqx4\"}}",
                    "x".repeat(d.max_source_bytes + 1)
                ),
                RequestErrorKind::TooLarge,
                "caps requests",
            ),
            // Well-typed but meaningless values.
            (
                request_line(",\"cost\":\"cheapest\""),
                RequestErrorKind::BadValue,
                "unknown cost model",
            ),
            (
                request_line(",\"format\":\"quipper\""),
                RequestErrorKind::BadValue,
                "unknown circuit format",
            ),
            (
                request_line(",\"cache\":\"disk\""),
                RequestErrorKind::BadValue,
                "unknown cache mode",
            ),
            (
                r#"{"id":"x","circuit":"not qasm","device":"ibmqx4"}"#.to_string(),
                RequestErrorKind::BadValue,
                "unparsable circuit",
            ),
            (
                r#"{"id":"x","circuit":"c","device":"enterprise"}"#.to_string(),
                RequestErrorKind::BadValue,
                "unknown device",
            ),
        ];
        for (line, kind, fragment) in corpus {
            let err = parse_request(&line, &d).expect_err(&format!("must reject: {line:.80}"));
            assert_eq!(err.kind, kind, "line {line:.80}: {}", err.message);
            assert!(
                err.message.contains(fragment),
                "line {:.80}: message `{}` lacks `{fragment}`",
                line,
                err.message
            );
        }
    }

    #[test]
    fn rejections_keep_the_request_id_when_recoverable() {
        let err = parse_request(&request_line(",\"cost\":\"bogus\""), &defaults()).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("r1"));
    }

    #[test]
    fn duplicate_keys_are_rejected_with_id() {
        let line = r#"{"id":"dup","circuit":"x","device":"ibmqx4","verify":true,"verify":false}"#;
        let err = parse_request(&line.replace('x', "OPENQASM 2.0;"), &defaults()).unwrap_err();
        assert_eq!(err.kind, RequestErrorKind::Schema);
        assert!(
            err.message.contains("duplicate key `verify`"),
            "{}",
            err.message
        );
        assert_eq!(err.id.as_deref(), Some("dup"));
    }
}
