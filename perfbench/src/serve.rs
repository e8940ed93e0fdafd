//! The `serve-closed` workload: `qsyn serve` as a child process with a
//! fresh disk cache, driven by one client connection that keeps a fixed
//! number of requests outstanding (a closed loop). An op is one request;
//! its latency runs from writing the request line to reading its row.

use crate::common::{
    digest, median, peak_rss_mb, quantile, secs, sys_cpu_s, Report, Rng, SETUP_REPS,
};
use crate::metrics::Layers;
use crate::Config;
use qsyn_arch::{CostModel, TransmonCost};
use qsyn_circuit::{parse_qasm, Circuit};
use qsyn_gate::equal_up_to_phase;
use qsyn_trace::json::{self, Value};
use qsyn_trace::metrics::MetricsSnapshot;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Requests the client keeps in flight.
pub const OUTSTANDING: usize = 2;
/// Requests per pass; a run sends whole passes.
pub const PASS_REQUESTS: usize = 128;
/// Devices the new circuits cycle through.
pub const DEVICES: [&str; 3] = ["ibmqx4", "ibmqx5", "ibmq_16"];
/// The warm-up request's circuit: one gate, so no workload circuit (at
/// least two gates) can share its compile-cache entry.
const WARM_UP: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nccx q[0],q[1],q[2];\n";
/// How long the client waits for any one row before giving up.
const ROW_TIMEOUT: Duration = Duration::from_secs(60);

/// One distinct circuit of the request mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MixCircuit {
    /// OpenQASM source.
    pub qasm: String,
    /// Target device name.
    pub device: &'static str,
}

/// Seed of the circuit sequence new requests draw from. It is fixed, not
/// the run's seed, so every run compiles the same distinct circuits and
/// `output_cost_eqn2` does not change with the seed; the seed decides the
/// order of new and repeat requests and which circuits repeat.
const CIRCUIT_SEED: u64 = 0x5e7e;

/// The seeded request sequence. Each pass is exactly half new circuits
/// (a cold compile plus a disk write) and half repeats of circuits whose
/// first answer has arrived (compile-cache hits).
#[derive(Debug, Clone)]
pub struct Plan {
    rng: Rng,
    circuit_rng: Rng,
    /// Distinct circuits, in order of first use.
    pub circuits: Vec<MixCircuit>,
    /// The request index at which each circuit was first sent.
    introduced: Vec<usize>,
    /// The circuit of each request.
    pub requests: Vec<usize>,
}

impl Plan {
    /// An empty plan for `seed`.
    pub fn new(seed: u64) -> Self {
        Plan {
            rng: Rng::new(seed),
            circuit_rng: Rng::new(CIRCUIT_SEED),
            circuits: Vec::new(),
            introduced: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Extends the plan by whole passes until it has at least `n`
    /// requests.
    pub fn extend_to(&mut self, n: usize) {
        while self.requests.len() < n {
            let (mut new, mut repeat) = (PASS_REQUESTS / 2, PASS_REQUESTS - PASS_REQUESTS / 2);
            while new + repeat > 0 {
                let i = self.requests.len();
                // A repeat only draws circuits whose first request has
                // been answered: with at most OUTSTANDING in flight, every
                // request sent OUTSTANDING + 1 or more requests earlier
                // has its row.
                let ready = self.introduced.partition_point(|&at| at + OUTSTANDING < i);
                let circuit = if repeat > 0 && ready > 0 && self.rng.below(new + repeat) >= new {
                    repeat -= 1;
                    self.rng.below(ready)
                } else {
                    // Out of new slots with no circuit ready yet (only
                    // possible in a pass of a handful of requests): the
                    // slot becomes new and the pass one repeat shorter.
                    if new > 0 {
                        new -= 1;
                    } else {
                        repeat -= 1;
                    }
                    self.new_circuit(i)
                };
                self.requests.push(circuit);
            }
        }
    }

    /// Whether request `i` repeats an earlier circuit.
    pub fn is_repeat(&self, i: usize) -> bool {
        self.introduced[self.requests[i]] != i
    }

    /// The JSONL line of request `i`.
    pub fn line(&self, i: usize) -> String {
        let c = &self.circuits[self.requests[i]];
        request_line(&format!("r{i}"), &c.qasm, c.device)
    }

    /// The next circuit of the fixed sequence: a small Toffoli circuit
    /// (3 to 5 lines, 2 to 4 gates, the first a Toffoli), distinct from
    /// every earlier one, on the next device in turn.
    fn new_circuit(&mut self, request: usize) -> usize {
        let device = DEVICES[self.circuits.len() % DEVICES.len()];
        let rng = &mut self.circuit_rng;
        loop {
            let n = 3 + rng.below(3);
            let mut qasm = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
            for g in 0..2 + rng.below(3) {
                let mut lines: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut lines);
                let (a, b, c) = (lines[0], lines[1], lines[2]);
                match if g == 0 { 0 } else { rng.below(4) } {
                    0 | 1 => qasm.push_str(&format!("ccx q[{a}],q[{b}],q[{c}];\n")),
                    2 => qasm.push_str(&format!("cx q[{a}],q[{b}];\n")),
                    _ => qasm.push_str(&format!("x q[{a}];\n")),
                }
            }
            let candidate = MixCircuit { qasm, device };
            if !self.circuits.contains(&candidate) {
                self.circuits.push(candidate);
                self.introduced.push(request);
                return self.circuits.len() - 1;
            }
        }
    }
}

/// A compile request row for the daemon (QASM emitted by default).
pub fn request_line(id: &str, qasm: &str, device: &str) -> String {
    Value::Obj(vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("circuit".to_string(), Value::Str(qasm.to_string())),
        ("device".to_string(), Value::Str(device.to_string())),
    ])
    .to_string()
}

/// A running `qsyn serve` child. Dropping it kills the child if it was
/// not closed, and always reaps it and joins the reader thread.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    rows: mpsc::Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    metrics_file: PathBuf,
}

impl Daemon {
    /// Spawns `qsyn serve` with its cache and metrics file under `dir`.
    pub fn spawn(qsyn: &Path, dir: &Path) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        let metrics_file = dir.join("metrics.json");
        let mut child = Command::new(qsyn)
            .arg("serve")
            .args(["--workers", &WORKERS.to_string()])
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--metrics-file")
            .arg(&metrics_file)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rows) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Daemon {
            stdin: child.stdin.take(),
            child,
            rows,
            reader: Some(reader),
            metrics_file,
        })
    }

    /// Writes one request line; returns when it was written.
    pub fn send(&mut self, line: &str) -> std::io::Result<Instant> {
        let stdin = self
            .stdin
            .as_mut()
            .expect("daemon stdin is open until close");
        let sent = Instant::now();
        stdin.write_all(format!("{line}\n").as_bytes())?;
        stdin.flush()?;
        Ok(sent)
    }

    /// The next response row and when the client read it.
    pub fn recv(&self) -> std::io::Result<(Instant, String)> {
        self.rows.recv_timeout(ROW_TIMEOUT).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("no response row: {e}"),
            )
        })
    }

    /// The daemon's peak resident set in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id()))
    }

    /// The daemon's kernel CPU seconds so far.
    pub fn sys_cpu_s(&self) -> f64 {
        sys_cpu_s(Some(self.child.id()))
    }

    /// Closes stdin, waits for the drain and exit, and reads the final
    /// metrics snapshot.
    pub fn close(mut self) -> Result<MetricsSnapshot, String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.reader.take() {
            reader
                .join()
                .map_err(|_| "reader thread panicked".to_string())?;
        }
        if !status.success() {
            return Err(format!("qsyn serve exited with {status}"));
        }
        let text = std::fs::read_to_string(&self.metrics_file).map_err(|e| e.to_string())?;
        MetricsSnapshot::from_json(&json::parse(text.trim())?)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One parsed response row.
#[derive(Debug, Clone)]
struct Row {
    ok: bool,
    verified: bool,
    qasm: Option<String>,
}

fn parse_row(line: &str) -> Result<(String, Row), String> {
    let v = json::parse(line)?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or("row without an id")?;
    Ok((
        id.to_string(),
        Row {
            ok: v.get("status").and_then(Value::as_str) == Some("ok"),
            verified: v.get("verified").and_then(Value::as_bool) == Some(true),
            qasm: v.get("qasm").and_then(Value::as_str).map(str::to_string),
        },
    ))
}

/// Spawns the daemon and times it from spawn until its answer to one
/// warm-up request arrives.
fn start(qsyn: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
    let spawned = Instant::now();
    let mut daemon =
        Daemon::spawn(qsyn, dir).map_err(|e| format!("spawning {}: {e}", qsyn.display()))?;
    daemon
        .send(&request_line("warm-up", WARM_UP, DEVICES[0]))
        .map_err(|e| e.to_string())?;
    let (_, line) = daemon.recv().map_err(|e| e.to_string())?;
    let seconds = secs(spawned);
    match parse_row(&line) {
        Ok((_, row)) if row.ok => Ok((daemon, seconds)),
        _ => Err(format!("warm-up request failed: {line}")),
    }
}

/// What the client saw in one closed loop.
struct LoopOutcome {
    /// Each request's row, by request index.
    rows: Vec<Option<Row>>,
    /// Each request's client latency.
    latency_ms: Vec<f64>,
    /// From the first request written to the last row read.
    wall_s: f64,
}

/// The closed loop: whole passes of [`PASS_REQUESTS`] until the time
/// budget is spent.
fn closed_loop(daemon: &mut Daemon, plan: &mut Plan, seconds: f64) -> Result<LoopOutcome, String> {
    let io = |e: std::io::Error| e.to_string();
    let started = Instant::now();
    let mut target = PASS_REQUESTS;
    plan.extend_to(target);
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut rows: Vec<Option<Row>> = Vec::new();
    let mut latency_ms: Vec<f64> = Vec::new();
    while sent_at.len() < OUTSTANDING {
        sent_at.push(daemon.send(&plan.line(sent_at.len())).map_err(io)?);
        rows.push(None);
        latency_ms.push(0.0);
    }
    let (mut received, mut last) = (0, started);
    while received < sent_at.len() {
        let (at, line) = daemon.recv().map_err(io)?;
        let (id, row) = parse_row(&line).map_err(|e| format!("bad row {line:?}: {e}"))?;
        let i = id
            .strip_prefix('r')
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < sent_at.len() && rows[i].is_none())
            .ok_or_else(|| format!("unexpected or repeated row id {id:?}"))?;
        latency_ms[i] = (at - sent_at[i]).as_secs_f64() * 1e3;
        rows[i] = Some(row);
        received += 1;
        last = at;
        if sent_at.len() == target && secs(started) < seconds {
            target += PASS_REQUESTS;
            plan.extend_to(target);
        }
        if sent_at.len() < target {
            sent_at.push(daemon.send(&plan.line(sent_at.len())).map_err(io)?);
            rows.push(None);
            latency_ms.push(0.0);
        }
    }
    Ok(LoopOutcome {
        rows,
        latency_ms,
        wall_s: (last - sent_at[0]).as_secs_f64(),
    })
}

/// Checks the rows and returns the verified requests, the cost summed
/// over the first pass's distinct circuits (a repeat's output is checked
/// byte-identical to its first answer), and the first pass's QASM in
/// request order.
fn check_rows(report: &mut Report, plan: &Plan, rows: &[Option<Row>]) -> (u64, f64, Vec<String>) {
    let cost = TransmonCost::default();
    let mut first: HashMap<usize, &str> = HashMap::new();
    let (mut verified, mut cost_sum, mut texts) = (0, 0.0, Vec::new());
    for (i, row) in rows.iter().enumerate() {
        report.attempted += 1;
        let Some(row) = row else {
            report.failed += 1;
            report
                .problems
                .push(format!("request r{i}: no response row"));
            continue;
        };
        if !row.ok {
            report.failed += 1;
            report.problems.push(format!("request r{i}: error row"));
            continue;
        }
        verified += u64::from(row.verified);
        report.check(row.verified, || format!("request r{i}: not verified"));
        let Some(qasm) = row.qasm.as_deref() else {
            report
                .problems
                .push(format!("request r{i}: no QASM in the row"));
            continue;
        };
        let c = plan.requests[i];
        match first.get(&c) {
            Some(earlier) => report.check(*earlier == qasm, || {
                format!("request r{i}: repeat QASM differs from the circuit's first response")
            }),
            None => {
                report.check(!plan.is_repeat(i), || {
                    format!("request r{i}: repeat came first")
                });
                first.insert(c, qasm);
            }
        }
        if i < PASS_REQUESTS && !plan.is_repeat(i) {
            match parse_qasm(qasm) {
                Ok(out) => {
                    cost_sum += cost.circuit_cost(&out);
                    let spec = &plan.circuits[c];
                    if spec.device == "ibmqx4" {
                        let input = Circuit::from_qasm(&spec.qasm).expect("generated QASM parses");
                        let input = input.relabeled(out.n_qubits(), |q| q);
                        report.check(
                            equal_up_to_phase(&input.to_matrix(), &out.to_matrix()),
                            || format!("request r{i}: output differs under dense-matrix semantics"),
                        );
                    }
                }
                Err(e) => report
                    .problems
                    .push(format!("request r{i}: QASM does not parse: {e}")),
            }
        }
        if i < PASS_REQUESTS {
            texts.push(qasm.to_string());
        }
    }
    (verified, cost_sum, texts)
}

/// Per-layer numbers from the daemon's final metrics snapshot and the
/// client's latencies.
fn layers_from(snapshot: &MetricsSnapshot, latency_ms: &[f64], emit_bytes: u64) -> Layers {
    let p50_ms = |name: &str| {
        snapshot
            .histogram(name)
            .and_then(|h| h.quantile(0.5))
            .map_or(0.0, |us| us as f64 / 1e3)
    };
    let sum_s = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6);
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let client_s: f64 = latency_ms.iter().sum::<f64>() / 1e3;
    let daemon_s = sum_s("serve.latency_us");
    let (hits, misses) = (
        counter("cache.compile.hits"),
        counter("cache.compile.misses"),
    );
    let mut l = Layers {
        serve_queue_wait_ms: p50_ms("serve.queue_wait_us"),
        serve_gate_wait_ms: p50_ms("serve.gate_wait_us"),
        serve_compile_ms: p50_ms("serve.compile_us"),
        serve_daemon_latency_ms: p50_ms("serve.latency_us"),
        compile_hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        persist_writes: counter("cache.disk.writes"),
        persist_hits: counter("cache.disk.hits"),
        emit_bytes,
        program_place_s: sum_s("pass.place_us"),
        program_decompose_s: sum_s("pass.decompose_us"),
        program_route_s: sum_s("pass.route_us"),
        program_optimize_s: sum_s("pass.optimize_us"),
        program_verify_s: sum_s("pass.verify_us"),
        traced_total_s: client_s,
        ..Layers::default()
    };
    l.serve_delivery_wait_ms = median(latency_ms) - l.serve_daemon_latency_ms;
    l.serve_attributed_s =
        sum_s("serve.queue_wait_us") + sum_s("serve.compile_us") + (client_s - daemon_s);
    l
}

/// Runs the serve-closed workload.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    report.header("serve_workers", WORKERS);
    report.header("serve_outstanding", OUTSTANDING);
    report.header("serve_requests_per_pass", PASS_REQUESTS);
    if let Err(e) = run_inner(cfg, &mut report) {
        report.problems.push(e);
    }
    report
}

fn run_inner(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let qsyn = cfg
        .qsyn
        .as_deref()
        .ok_or("serve-closed needs --qsyn PATH")?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let dir = cfg.work_dir.join(format!("serve-{rep}"));
        let (d, seconds) = start(qsyn, &dir)?;
        setups.push(seconds);
        if rep + 1 < SETUP_REPS {
            d.close()?;
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("the last set-up keeps its daemon");
    let mut plan = Plan::new(cfg.seed);
    let LoopOutcome {
        rows,
        latency_ms,
        wall_s,
    } = closed_loop(&mut daemon, &mut plan, cfg.seconds)?;
    let (rss_mb, sys_s) = (daemon.peak_rss_mb(), daemon.sys_cpu_s());
    let snapshot = daemon.close()?;
    report.header("passes", rows.len() / PASS_REQUESTS);
    let served = snapshot.counter("serve.requests").unwrap_or(0);
    report.check(served == rows.len() as u64 + 1, || {
        format!(
            "{} requests in (plus warm-up), daemon counted {served}",
            rows.len()
        )
    });
    let (verified, cost_sum, texts) = check_rows(report, &plan, &rows);
    report.digest = digest(texts.iter().map(String::as_str));
    if cfg.trace {
        let emit_bytes = rows
            .iter()
            .flatten()
            .filter_map(|r| r.qasm.as_ref().map(|q| q.len() as u64))
            .sum();
        let mut layers = layers_from(&snapshot, &latency_ms, emit_bytes);
        layers.process_sys_s = sys_s;
        layers.report(report);
        return Ok(());
    }
    report.metric("setup_s", median(&setups));
    report.metric("ops_per_s", rows.len() as f64 / wall_s);
    report.metric("latency_p50_ms", median(&latency_ms));
    report.metric("latency_p90_ms", quantile(&latency_ms, 0.9));
    report.metric("peak_rss_mb", rss_mb);
    report.metric("output_cost_eqn2", cost_sum);
    report.metric("verified_fraction", verified as f64 / rows.len() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn repeats_only_draw_answered_circuits() {
        let mut plan = Plan::new(7);
        plan.extend_to(4 * PASS_REQUESTS);
        assert_eq!(plan.requests.len(), 4 * PASS_REQUESTS);
        let repeats = (0..plan.requests.len())
            .filter(|&i| plan.is_repeat(i))
            .count();
        assert_eq!(repeats, plan.requests.len() / 2, "exactly half repeat");
        for i in 0..plan.requests.len() {
            let at = plan.introduced[plan.requests[i]];
            assert!(
                at == i || at + OUTSTANDING < i,
                "request {i} repeats an unanswered circuit"
            );
        }
        let distinct: HashSet<_> = plan.circuits.iter().collect();
        assert_eq!(distinct.len(), plan.circuits.len());
    }
}
