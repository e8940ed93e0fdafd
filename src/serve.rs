//! The `qsyn serve` daemon loop: JSONL requests in, JSONL responses out.
//!
//! This module is the threading shell around [`qsyn_core::serve`]: a
//! reader thread feeds request lines into a coordinator, the coordinator
//! applies admission control and hands accepted requests to a
//! [`WorkerPool`], and workers send
//! pre-rendered response lines to a single writer thread. The invariants
//! the daemon guarantees, whatever the requests do:
//!
//! * **N responses for N request lines.** Every line — valid, malformed,
//!   rejected for overload, expired in queue, panicked mid-compile —
//!   produces exactly one structured response row.
//! * **The daemon outlives its requests.** Compiles run under
//!   `catch_unwind` ([`qsyn_core::serve::execute`]) and the pool's
//!   workers survive panicking jobs, so one poisoned request cannot take
//!   the service down.
//! * **Graceful shutdown.** On stdin EOF or SIGTERM the daemon stops
//!   accepting, answers any still-queued lines with `shutting-down`
//!   rows, drains in-flight compiles, flushes, and exits 0.
//!
//! Responses are written in **completion order**, not arrival order —
//! clients correlate by the echoed `id` field (that is what it is for).
//!
//! The daemon is also a metrics surface. Every session feeds the
//! process-wide registry (`qsyn_trace::metrics`): `serve.requests` /
//! `serve.responses_ok` / `serve.responses_error` / `serve.overloaded` /
//! `serve.shed` counters, a `serve.queue_depth` gauge, and the latency
//! histograms recorded by [`qsyn_core::serve::execute`]. Two surfaces
//! expose it live: `--metrics-file FILE` (periodic atomic snapshot
//! rewrite, final snapshot on drain) and the `{"cmd":"metrics"}` control
//! row, which a client sends over the same JSONL connection to get a
//! `status: metrics` row carrying the snapshot. Control rows are not
//! compile requests — they do not count toward `serve.requests`, so the
//! invariant `serve.requests == serve.responses_ok +
//! serve.responses_error` holds in every drained snapshot
//! (`qsyn check-metrics` verifies exactly this).

use qsyn_core::pool::{default_jobs, WorkerPool};
use qsyn_core::serve::{
    parse_request, NodeBudgetGate, ServeContext, ServeDefaults, ServeResponse,
};
use qsyn_trace::json::Value;
use qsyn_trace::metrics;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Set by the SIGTERM handler (installed by the binary); the coordinator
/// polls it between lines and begins a graceful drain when it flips.
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Daemon configuration beyond the per-request defaults.
pub struct ServeOptions {
    /// Worker thread count.
    pub workers: usize,
    /// Admission cap: when this many requests are already queued or
    /// compiling, new requests are rejected with `overloaded` rows
    /// instead of being buffered without bound.
    pub queue_cap: usize,
    /// Hard cap on one request line, in bytes.
    pub max_line_bytes: usize,
    /// Per-request defaults and validation limits.
    pub defaults: ServeDefaults,
    /// Shared execution context (disk cache, trace sink, node gate).
    pub disk: Option<Arc<qsyn_core::DiskCache>>,
    /// Trace sink for per-request pass events.
    pub trace: Option<Arc<dyn qsyn_trace::TraceSink>>,
    /// Global in-flight node-budget ceiling.
    pub node_ceiling: Option<usize>,
    /// When set, the daemon rewrites this file with a JSON metrics
    /// snapshot periodically and once more after the drain (atomic
    /// temp-and-rename, so readers never see a torn snapshot).
    pub metrics_file: Option<PathBuf>,
    /// Rewrite cadence for `metrics_file` — also the cadence of the
    /// online disk-cache eviction sweep, which piggybacks this timer.
    pub metrics_interval: Duration,
    /// Disk-cache size cap. When either cap is set (and a disk tier is
    /// configured), the coordinator re-runs the eviction sweep every
    /// `metrics_interval`, so a long-running daemon keeps the tier
    /// within bounds as compiles accumulate — startup eviction alone
    /// only trims the previous run's leftovers.
    pub cache_max_bytes: Option<u64>,
    /// Disk-cache age cap; see `cache_max_bytes`.
    pub cache_max_age: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: default_jobs(),
            queue_cap: 64,
            max_line_bytes: 4 << 20,
            defaults: ServeDefaults::default(),
            disk: None,
            trace: None,
            node_ceiling: None,
            metrics_file: None,
            metrics_interval: Duration::from_secs(1),
            cache_max_bytes: None,
            cache_max_age: None,
        }
    }
}

/// What a serving session did, reported on stderr at exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines read.
    pub requests: u64,
    /// `status: ok` rows written.
    pub ok: u64,
    /// `status: error` rows written (every kind).
    pub errors: u64,
    /// Requests rejected by admission control (subset of `errors`).
    pub overloaded: u64,
    /// Lines answered with `shutting-down` rows during the drain.
    pub shed: u64,
    /// `{"cmd":"metrics"}` control rows answered with snapshots.
    pub metrics_polls: u64,
    /// Whether the session ended on SIGTERM rather than EOF.
    pub terminated: bool,
}

// Session-level metrics handles (the per-request histograms live in
// `qsyn_core::serve`).
qsyn_trace::metric_handles! {
    fn m_requests() -> Counter = "serve.requests";
    fn m_responses_ok() -> Counter = "serve.responses_ok";
    fn m_responses_error() -> Counter = "serve.responses_error";
    fn m_overloaded() -> Counter = "serve.overloaded";
    fn m_shed() -> Counter = "serve.shed";
    fn m_metrics_polls() -> Counter = "serve.metrics_polls";
    fn m_queue_depth() -> Gauge = "serve.queue_depth";
}

/// Renders the `status: metrics` response row for a `{"cmd":"metrics"}`
/// poll: the full registry snapshot inline, correlated like any other
/// row by `id` and `job`.
fn metrics_row(id: Option<String>, job: u64) -> String {
    Value::Obj(vec![
        (
            "id".to_string(),
            id.map_or(Value::Null, Value::Str),
        ),
        ("job".to_string(), Value::Num(job as f64)),
        ("status".to_string(), Value::Str("metrics".to_string())),
        ("metrics".to_string(), metrics::global().snapshot().to_json()),
    ])
    .to_string()
}

/// Atomically rewrites `path` with the current metrics snapshot: the
/// JSON is written to a temp file next to the target and renamed over
/// it, so a concurrent reader sees the old snapshot or the new one,
/// never a torn file.
fn write_metrics_file(path: &Path) -> std::io::Result<()> {
    let mut text = metrics::global().snapshot().to_json().to_string();
    text.push('\n');
    let tmp = path.with_file_name(format!(
        ".tmp-metrics-{}",
        std::process::id()
    ));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Runs a serving session over the given byte streams until EOF or
/// SIGTERM, then drains and returns the session summary.
///
/// The reader runs on its own thread (a blocked `read_line` cannot be
/// interrupted portably, so the coordinator must not be the one blocked
/// on it when SIGTERM arrives); `input` therefore needs `Send + 'static`.
pub fn run(
    input: impl BufRead + Send + 'static,
    output: impl Write,
    opts: ServeOptions,
) -> std::io::Result<ServeSummary> {
    let ctx = Arc::new(ServeContext {
        defaults: opts.defaults.clone(),
        disk: opts.disk.clone(),
        trace: opts.trace.clone(),
        gate: opts.node_ceiling.map(|n| Arc::new(NodeBudgetGate::new(n))),
    });
    let pool = WorkerPool::new(opts.workers);
    let mut summary = ServeSummary::default();

    // Reader thread: lines flow through a bounded channel so a fast
    // client cannot buffer unbounded input ahead of admission control.
    let (line_tx, line_rx) = mpsc::sync_channel::<std::io::Result<String>>(opts.queue_cap.max(1));
    let reader = std::thread::Builder::new()
        .name("qsyn-serve-reader".to_string())
        .spawn(move || {
            let mut input = input;
            loop {
                let mut line = String::new();
                match input.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        if line_tx.send(Ok(line)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = line_tx.send(Err(e));
                        break;
                    }
                }
            }
        })
        .expect("spawning reader thread");

    // Response channel: workers send pre-rendered rows; the coordinator
    // owns the output stream and is the only writer.
    let (resp_tx, resp_rx) = mpsc::channel::<ServeResponse>();
    let mut output = output;
    let write_row = |output: &mut dyn Write,
                         summary: &mut ServeSummary,
                         row: &ServeResponse|
     -> std::io::Result<()> {
        if row.is_ok() {
            summary.ok += 1;
            m_responses_ok().inc();
        } else {
            summary.errors += 1;
            m_responses_error().inc();
        }
        writeln!(output, "{}", row.render())?;
        output.flush()
    };

    let mut next_job: u64 = 0;
    let mut last_metrics = Instant::now();
    loop {
        // Deliver any finished responses first so completion latency does
        // not depend on new requests arriving.
        while let Ok(row) = resp_rx.try_recv() {
            write_row(&mut output, &mut summary, &row)?;
        }
        if last_metrics.elapsed() >= opts.metrics_interval {
            if let Some(path) = &opts.metrics_file {
                write_metrics_file(path)?;
            }
            // Online eviction sweep, piggybacking the metrics cadence:
            // deletions land in the `cache.disk.evicted_*` counters. A
            // failed sweep costs capacity enforcement until the next
            // tick, never the daemon.
            if opts.cache_max_bytes.is_some() || opts.cache_max_age.is_some() {
                if let Some(disk) = &ctx.disk {
                    let _ = disk.evict(opts.cache_max_bytes, opts.cache_max_age);
                }
            }
            last_metrics = Instant::now();
        }
        if SHUTDOWN.load(Ordering::SeqCst) {
            summary.terminated = true;
            break;
        }
        let line = match line_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(e),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break, // EOF
        };
        if line.trim().is_empty() {
            continue; // blank lines are keep-alive, not requests
        }
        summary.requests += 1;
        let job = next_job;
        next_job += 1;
        let accepted = Instant::now();

        if line.len() > opts.max_line_bytes {
            m_requests().inc();
            let row = ServeResponse::error(
                None,
                job,
                "too-large",
                format!(
                    "request line is {} bytes; the daemon caps lines at {}",
                    line.len(),
                    opts.max_line_bytes
                ),
            );
            write_row(&mut output, &mut summary, &row)?;
            continue;
        }
        // Control rows: a line with a top-level "cmd" key is a directive
        // to the daemon, not a compile request. The substring test is a
        // cheap pre-filter; the parse confirms the key is top-level (a
        // circuit string containing "cmd" falls through to the normal
        // path below).
        if line.contains("\"cmd\"") {
            if let Some(v) = qsyn_trace::json::parse(line.trim()).ok().filter(|v| v.get("cmd").is_some()) {
                let id = v.get("id").and_then(|i| i.as_str().map(str::to_string));
                let cmd = v.get("cmd").and_then(|c| c.as_str()).unwrap_or("");
                if cmd == "metrics" {
                    summary.metrics_polls += 1;
                    m_metrics_polls().inc();
                    writeln!(output, "{}", metrics_row(id, job))?;
                    output.flush()?;
                } else {
                    m_requests().inc();
                    let row = ServeResponse::error(
                        id,
                        job,
                        "bad-value",
                        format!("unknown cmd {cmd:?}; the daemon understands \"metrics\""),
                    );
                    write_row(&mut output, &mut summary, &row)?;
                }
                continue;
            }
        }
        m_requests().inc();
        let req = match parse_request(&line, &opts.defaults) {
            Ok(req) => req,
            Err(e) => {
                let row = ServeResponse::rejection(job, &e);
                write_row(&mut output, &mut summary, &row)?;
                continue;
            }
        };
        // Admission control: shed load instead of queueing without bound.
        if pool.pending() >= opts.queue_cap {
            summary.overloaded += 1;
            m_overloaded().inc();
            let row = ServeResponse::error(
                Some(req.id.clone()),
                job,
                "overloaded",
                format!(
                    "{} requests already in flight (cap {}); retry later",
                    pool.pending(),
                    opts.queue_cap
                ),
            );
            write_row(&mut output, &mut summary, &row)?;
            continue;
        }
        let ctx = Arc::clone(&ctx);
        let resp_tx = resp_tx.clone();
        m_queue_depth().inc();
        pool.submit(move || {
            let row = qsyn_core::serve::execute(&req, job, accepted, &ctx);
            m_queue_depth().dec();
            // The coordinator may already have exited on a write error;
            // dropping the row is then the only option.
            let _ = resp_tx.send(row);
        });
    }

    // Drain: answer lines already read but not yet admitted with
    // `shutting-down` rows (N in, N out), finish in-flight compiles,
    // deliver their rows, and stop.
    while let Ok(line) = line_rx.try_recv() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        summary.requests += 1;
        summary.shed += 1;
        m_requests().inc();
        m_shed().inc();
        let job = next_job;
        next_job += 1;
        let id = qsyn_trace::json::parse(line.trim())
            .ok()
            .and_then(|v| v.get("id").and_then(|id| id.as_str().map(str::to_string)));
        let row = ServeResponse::error(id, job, "shutting-down", "daemon is draining; resubmit");
        write_row(&mut output, &mut summary, &row)?;
    }
    drop(line_rx); // reader unblocks on its next send
    pool.drain();
    drop(resp_tx);
    while let Ok(row) = resp_rx.recv() {
        write_row(&mut output, &mut summary, &row)?;
    }
    pool.shutdown();
    // Final snapshot after the drain: every in-flight compile has
    // delivered its row, so the queue-depth gauge is back to zero and
    // requests == responses_ok + responses_error holds in the file.
    if let Some(path) = &opts.metrics_file {
        write_metrics_file(path)?;
    }
    // The reader may still be blocked on read_line (SIGTERM path with the
    // terminal open); it exits on the next line or EOF. Joining would
    // hang, so it is detached by dropping the handle — but on the EOF
    // path it has already finished and the join is immediate.
    if summary.terminated {
        drop(reader);
    } else {
        let _ = reader.join();
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toffoli_line(id: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"circuit\":\"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\nccx q[0],q[1],q[2];\\n\",\"device\":\"ibmqx4\"}}"
        )
    }

    fn run_session(input: String, opts: ServeOptions) -> (ServeSummary, Vec<String>) {
        let mut out: Vec<u8> = Vec::new();
        let summary = run(std::io::Cursor::new(input), &mut out, opts).expect("session runs");
        let lines = String::from_utf8(out)
            .expect("utf8 output")
            .lines()
            .map(str::to_string)
            .collect();
        (summary, lines)
    }

    #[test]
    fn n_requests_yield_n_responses() {
        let input = format!(
            "{}\n{}\nnot json at all\n{}\n",
            toffoli_line("a"),
            toffoli_line("b"),
            toffoli_line("c")
        );
        let (summary, lines) = run_session(input, ServeOptions::default());
        assert_eq!(summary.requests, 4);
        assert_eq!(lines.len(), 4);
        assert_eq!(summary.ok, 3);
        assert_eq!(summary.errors, 1);
        assert!(!summary.terminated);
        // Every id answered exactly once.
        for id in ["\"id\":\"a\"", "\"id\":\"b\"", "\"id\":\"c\""] {
            assert_eq!(lines.iter().filter(|l| l.contains(id)).count(), 1);
        }
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"parse\""))
                .count(),
            1
        );
    }

    #[test]
    fn blank_lines_are_ignored() {
        let input = format!("\n\n{}\n\n", toffoli_line("only"));
        let (summary, lines) = run_session(input, ServeOptions::default());
        assert_eq!(summary.requests, 1);
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn metrics_control_row_returns_snapshot() {
        let input = format!(
            "{}\n{{\"id\":\"m1\",\"cmd\":\"metrics\"}}\n{{\"cmd\":\"flush\"}}\n",
            toffoli_line("a")
        );
        let (summary, lines) = run_session(input, ServeOptions::default());
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.metrics_polls, 1);
        assert_eq!(lines.len(), 3);
        let poll = lines
            .iter()
            .find(|l| l.contains("\"status\":\"metrics\""))
            .expect("metrics row present");
        assert!(poll.contains("\"id\":\"m1\""), "{poll}");
        assert!(poll.contains("qsyn-metrics/1"), "{poll}");
        // The snapshot carried inline is a valid metrics document.
        let v = qsyn_trace::json::parse(poll).expect("row parses");
        let snap = metrics::MetricsSnapshot::from_json(v.get("metrics").expect("metrics field"))
            .expect("snapshot parses");
        assert!(snap.counter("serve.metrics_polls").unwrap_or(0) >= 1);
        // Unknown commands get an error row, not silence.
        assert!(
            lines.iter().any(|l| l.contains("\"kind\":\"bad-value\"")),
            "{lines:?}"
        );
    }

    #[test]
    fn metrics_file_is_written_on_drain() {
        let dir = std::env::temp_dir().join(format!("qsyn-serve-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.json");
        let opts = ServeOptions {
            metrics_file: Some(path.clone()),
            ..ServeOptions::default()
        };
        let before = metrics::global().snapshot();
        let (summary, _lines) = run_session(format!("{}\n", toffoli_line("f")), opts);
        assert_eq!(summary.ok, 1);
        let text = std::fs::read_to_string(&path).expect("metrics file written");
        let snap = metrics::MetricsSnapshot::from_json(
            &qsyn_trace::json::parse(&text).expect("file parses"),
        )
        .expect("snapshot parses");
        // Delta over this session: one request, one ok row, queue drained.
        // (The registry is process-global, so other tests in this binary
        // contribute to absolute values; deltas isolate this session.)
        let delta = snap.since(&before);
        assert!(delta.counter("serve.requests").unwrap_or(0) >= 1);
        // Other tests in this binary may have jobs in flight at the
        // moment of the final write, so only presence is checked here;
        // the e2e test (own process) checks the drained value is zero.
        assert!(snap.gauge("serve.queue_depth").is_some());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn online_eviction_sweeps_the_disk_tier_while_serving() {
        // A daemon with caps configured must not wait for a restart to
        // enforce them: the coordinator re-runs the eviction sweep on
        // the metrics cadence, so an over-cap entry planted after
        // startup disappears during the session.
        let dir = std::env::temp_dir().join(format!("qsyn-serve-evict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let disk = qsyn_core::DiskCache::open(&dir).expect("disk tier opens");
        let planted = dir.join("00000000000000000000000000000000.qsc");
        std::fs::write(&planted, b"stale entry").expect("plant entry");
        let opts = ServeOptions {
            disk: Some(Arc::new(disk)),
            cache_max_bytes: Some(0),
            metrics_interval: Duration::ZERO,
            ..ServeOptions::default()
        };
        let (summary, _lines) = run_session(format!("{}\n", toffoli_line("ev")), opts);
        assert_eq!(summary.ok, 1);
        assert!(
            !planted.exists(),
            "online sweep should have evicted the planted entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_line_is_rejected_structurally() {
        let opts = ServeOptions {
            max_line_bytes: 128,
            ..ServeOptions::default()
        };
        let input = format!("{}\n", toffoli_line(&"x".repeat(200)));
        let (summary, lines) = run_session(input, opts);
        assert_eq!(summary.errors, 1);
        assert!(lines[0].contains("\"kind\":\"too-large\""), "{}", lines[0]);
    }
}
