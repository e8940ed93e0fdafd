//! `bench serve` — throughput and latency of the serve execution path.
//!
//! Drives the same request pipeline the `qsyn serve` daemon runs —
//! [`qsyn_core::serve::parse_request`] into [`qsyn_core::serve::execute`]
//! on a [`qsyn_core::pool::WorkerPool`] — without the stdin/stdout shell, so
//! the figures isolate compile throughput from client I/O. Each worker
//! count (1, 2, 4) runs one batch **cold** (every request a distinct
//! circuit, compile cache empty for these keys) and once more **warm**
//! (the identical batch again, every request a whole-compile cache hit),
//! reporting requests/s and the p50/p95/p99 of the `serve.latency_us`
//! histogram delta for each configuration.
//!
//! The batch size defaults to [`DEFAULT_REQUESTS`] and can be lowered for
//! smoke runs with `QSYN_SERVE_BENCH_REQUESTS`.

use qsyn_core::pool::WorkerPool;
use qsyn_core::serve::{execute, parse_request, ServeContext, ServeDefaults};
use qsyn_trace::json::Value;
use qsyn_trace::metrics::{self, HistogramSnapshot};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Requests per (workers × cache) configuration.
pub const DEFAULT_REQUESTS: usize = 32;

/// Worker counts benchmarked.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// One request line of the benchmark batch: a small 5-qubit circuit on
/// ibmqx4, made distinct per index by an `x`-gate encoding of `i` (so a
/// cold batch shares no compile-cache key) and distinct per worker
/// configuration by the `node_budget` field, which is part of the
/// compile-cache key.
fn request_line(i: usize, node_budget: usize) -> String {
    let a = i % 5;
    let b = (a + 1) % 5;
    let c = (a + 2) % 5;
    let mut body = format!("h q[{a}];\\n");
    for bit in 0..8 {
        if (i >> bit) & 1 == 1 {
            body.push_str(&format!("x q[{}];\\n", bit % 5));
        }
    }
    body.push_str(&format!("cx q[{a}],q[{b}];\\nccx q[{a}],q[{b}],q[{c}];\\n"));
    format!(
        "{{\"id\":\"r{i}\",\"circuit\":\"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[5];\\n{body}\",\"device\":\"ibmqx4\",\"node_budget\":{node_budget}}}"
    )
}

/// Result of one batch: wall time, row outcomes, and the latency
/// histogram recorded over exactly this batch.
struct BatchResult {
    seconds: f64,
    ok: usize,
    errors: usize,
    cache_hits: u64,
    latency: Option<HistogramSnapshot>,
}

/// Pushes every line through `parse_request` + `execute` on a pool of
/// `workers` threads and waits for all responses.
fn run_batch(lines: &[String], workers: usize, ctx: &Arc<ServeContext>) -> BatchResult {
    let pool = WorkerPool::new(workers);
    let (tx, rx) = mpsc::channel::<bool>();
    let before = metrics::global().snapshot();
    let t = Instant::now();
    for (job, line) in lines.iter().enumerate() {
        let req = parse_request(line, &ctx.defaults).expect("benchmark requests are well-formed");
        let ctx = Arc::clone(ctx);
        let tx = tx.clone();
        let accepted = Instant::now();
        pool.submit(move || {
            let row = execute(&req, job as u64, accepted, &ctx);
            let _ = tx.send(row.is_ok());
        });
    }
    drop(tx);
    let (mut ok, mut errors) = (0usize, 0usize);
    for is_ok in rx {
        if is_ok {
            ok += 1;
        } else {
            errors += 1;
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    pool.shutdown();
    let delta = metrics::global().snapshot().since(&before);
    BatchResult {
        seconds,
        ok,
        errors,
        cache_hits: delta.counter("serve.cache_hits").unwrap_or(0),
        latency: delta.histogram("serve.latency_us").cloned(),
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn latency_json(h: &Option<HistogramSnapshot>) -> Value {
    let Some(h) = h else {
        return Value::Null;
    };
    let q = |p: f64| h.quantile(p).map_or(Value::Null, |v| Value::Num(v as f64));
    obj(vec![
        ("count", Value::Num(h.count as f64)),
        ("mean_us", h.mean().map_or(Value::Null, Value::Num)),
        ("p50_us", q(0.50)),
        ("p95_us", q(0.95)),
        ("p99_us", q(0.99)),
    ])
}

/// Runs the full matrix (worker counts × cold/warm) and returns the
/// `qsyn-bench-serve/1` report.
///
/// # Panics
///
/// Panics when a request errors, or when the warm batch misses the
/// compile cache — both mean the serve path is broken, not slow.
pub fn serve_report() -> Value {
    let requests: usize = std::env::var("QSYN_SERVE_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_REQUESTS);
    let mut configs = Vec::new();
    for (ci, &workers) in WORKER_COUNTS.iter().enumerate() {
        // A fresh node budget per worker configuration keys this batch
        // away from every earlier one, so "cold" is honestly cold.
        let node_budget = 200_000 + ci;
        let lines: Vec<String> = (0..requests)
            .map(|i| request_line(i, node_budget))
            .collect();
        let ctx = Arc::new(ServeContext {
            defaults: ServeDefaults::default(),
            disk: None,
            trace: None,
            gate: None,
        });
        for (label, batch) in [
            ("cold", run_batch(&lines, workers, &ctx)),
            ("warm", run_batch(&lines, workers, &ctx)),
        ] {
            assert_eq!(
                batch.errors, 0,
                "bench serve: {label} batch at {workers} workers produced error rows"
            );
            assert_eq!(batch.ok, requests);
            if label == "warm" {
                assert_eq!(
                    batch.cache_hits as usize, requests,
                    "bench serve: warm batch at {workers} workers must hit the \
                     compile cache on every request"
                );
            }
            eprintln!(
                "bench serve: {workers} worker(s), {label}: {} requests in {:.3}s \
                 ({:.1} req/s, {} cache hits)",
                requests,
                batch.seconds,
                requests as f64 / batch.seconds,
                batch.cache_hits
            );
            configs.push(obj(vec![
                ("workers", Value::Num(workers as f64)),
                ("cache", Value::Str(label.to_string())),
                ("requests", Value::Num(requests as f64)),
                ("ok", Value::Num(batch.ok as f64)),
                ("errors", Value::Num(batch.errors as f64)),
                ("cache_hits", Value::Num(batch.cache_hits as f64)),
                ("seconds", Value::Num(batch.seconds)),
                (
                    "requests_per_second",
                    Value::Num(requests as f64 / batch.seconds),
                ),
                ("latency_us", latency_json(&batch.latency)),
            ]));
        }
    }
    obj(vec![
        ("schema", Value::Str("qsyn-bench-serve/1".to_string())),
        ("device", Value::Str("ibmqx4".to_string())),
        ("requests_per_config", Value::Num(requests as f64)),
        ("configs", Value::Arr(configs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_and_are_distinct() {
        let defaults = ServeDefaults::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let line = request_line(i, 1000);
            let req = parse_request(&line, &defaults).expect("line parses");
            assert_eq!(req.id, format!("r{i}"));
            assert_eq!(req.node_budget, Some(1000));
            assert!(
                seen.insert(format!("{:?}", req.circuit.gates())),
                "request circuits must be pairwise distinct (collision at {i})"
            );
        }
    }

    #[test]
    fn one_cold_batch_runs_clean() {
        let ctx = Arc::new(ServeContext {
            defaults: ServeDefaults::default(),
            disk: None,
            trace: None,
            gate: None,
        });
        let lines: Vec<String> = (0..4).map(|i| request_line(i, 314_159)).collect();
        let batch = run_batch(&lines, 2, &ctx);
        assert_eq!(batch.ok, 4);
        assert_eq!(batch.errors, 0);
        let lat = batch.latency.expect("latency histogram recorded");
        assert_eq!(lat.count, 4);
    }
}
