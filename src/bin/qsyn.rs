//! `qsyn` — command-line driver for the technology-dependent quantum
//! logic synthesis tool.
//!
//! ```text
//! qsyn devices
//! qsyn compile <input.{qasm,qc,real}> --device <name> [options]
//! qsyn check <a> <b>
//! qsyn stats <input>
//! qsyn synth <hex-truth-table> <n-vars> [--out file.real]
//! ```
//!
//! Input format is chosen by file extension (`.qasm`, `.qc`, `.real`).
//! `compile` prints technology-dependent OpenQASM 2.0 to stdout (or
//! `--out`), with mapping statistics on stderr — mirroring the paper's
//! Fig. 2 flow ending in "QASM code".

use qsyn::core::{load_circuit, Args, CompileOptions, CostKind};
use qsyn::prelude::*;
use qsyn::qmdd::{miter_support, try_equivalent_on, EquivBudget, EquivMethod};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "qsyn — technology-dependent quantum logic synthesis (Smith & Thornton, ISCA 2019)

USAGE:
  qsyn devices
      List the built-in device library (with coupling complexities and
      supported routing objectives) and the generated device families.

  qsyn compile <input> --device <name> [--out FILE] [--no-opt]
               [--no-verify] [--placement {placements}] [--report]
               [--cost {costs}] [--trace[=FILE]]
               [--route-strategy {strategies}]
               [--deadline SECONDS] [--node-budget NODES] [--strict-verify]
               [--cache {caches}] [--cache-stats] [--repeat N]
               [--stream WINDOW] [--stream-verify-jobs N]
      Map a circuit (.qasm/.qc/.real/.pla) to a device; emit OpenQASM 2.0.
      --report prints a stage-by-stage metrics table on stderr.
      --route-strategy selects the coupling-map router: `ctr` (default,
      the paper's swap-out/swap-back reroute), `lookahead` (SABRE-style
      persistent-layout search scoring SWAPs against upcoming gates),
      `persistent` (shortest-path SWAPs that stay, plus one final
      restoration network), or `auto` (picked from the cost model).
      Every strategy's output is QMDD-verified like any other pass.
      --trace streams one JSON line per compiler pass (wall time, gate/T/
      CNOT counts, cost delta, backend counters) to stderr, or to FILE
      with --trace=FILE.
      --deadline/--node-budget bound the compile's wall clock and QMDD
      arena; exceeding a hard budget exits with a structured error. Under
      the default degraded verification mode an over-budget equivalence
      check walks a retry ladder and reports `unverified` instead of
      failing; --strict-verify makes it a hard error (docs/ROBUSTNESS.md).
      --cache selects the caching layers (docs/PERFORMANCE.md): `tables`
      (default) precomputes routing tables and memoizes MCT cascades —
      byte-identical output, just faster; `mem` adds whole-compile
      memoization. --cache-stats prints per-layer hit/miss totals on
      stderr. --repeat N compiles the same input N times in one process
      (exercising the caches) and fails if any two runs diverge.
      --stream WINDOW compiles the input window by window (WINDOW input
      gates at a time) with a bounded resident circuit, writing QASM
      incrementally — each window is QMDD-verified against its input
      (windowed miter, support-restricted to the window's touched
      qubits), and the trace carries one aggregate route event with
      streaming counters. Identity placement only. --stream-verify-jobs
      N verifies completed windows on N pool workers pipelined behind
      routing (default: available parallelism; 1 = inline; Strict mode
      always verifies inline) — output and verdicts are identical at
      any N.

  qsyn serve [--workers N] [--queue-cap N] [--node-ceiling NODES]
             [--deadline SECONDS] [--node-budget NODES] [--max-swaps N]
             [--cache {caches}] [--cache-dir DIR] [--trace[=FILE]]
             [--max-line-bytes N] [--no-retry] [--no-emit] [--strict-verify]
             [--cache-stats] [--metrics-file FILE]
             [--cache-max-bytes BYTES] [--cache-max-age SECONDS]
      Long-running compilation daemon: one JSON request per stdin line,
      one JSON response per request on stdout (completion order; match
      rows to requests by the echoed `id`). Every request is fault-
      isolated — a panicking or budget-blown compile yields a structured
      error row, never a dead daemon. --queue-cap bounds admitted
      requests (excess gets `overloaded` rows); --deadline/--node-budget
      set per-request defaults (requests may override); --node-ceiling
      caps the summed node budgets of concurrent compiles. --cache-dir
      adds a crash-safe on-disk cache tier under DIR (implies --cache
      mem): results persist across restarts, corrupted entries are
      quarantined and recomputed. An `Unverified` verdict earns one
      automatic retry at a doubled node budget unless --no-retry. On
      stdin EOF or SIGTERM the daemon drains in-flight requests, answers
      unadmitted lines with `shutting-down` rows, and exits 0. See
      docs/ROBUSTNESS.md for the request/response schema.
      --metrics-file FILE rewrites FILE atomically (about once a second,
      and once more on drain) with a JSON metrics snapshot — counters,
      queue-depth gauge, and latency histograms (docs/OBSERVABILITY.md);
      a client on the JSONL connection can instead poll a live snapshot
      with the control row {{\"cmd\":\"metrics\"}}. --cache-max-bytes /
      --cache-max-age evict the oldest --cache-dir entries at startup —
      and then keep sweeping online about once a second while serving —
      until the tier fits the byte cap and nothing exceeds the age cap.

  qsyn report <file> [--prometheus]
      Human metrics table from either input shape (sniffed): a metrics
      snapshot (--metrics-file output or a {{\"cmd\":\"metrics\"}} poll
      row) or a --trace JSONL stream, whose pass events are replayed
      into per-pass and per-strategy histograms. Shows count / mean /
      p50 / p95 / p99 per latency histogram (microseconds) and cache
      hit rates. --prometheus renders a snapshot in Prometheus text
      exposition format instead.

  qsyn check-metrics <file>
      Validate a metrics snapshot: schema tag, histogram internal
      consistency (count equals the sum of its bucket counts, indices
      in range and ascending), cache accounting (hits + misses +
      quarantines == lookups per layer), and serve accounting (rows
      written never exceed requests; a drained snapshot has an empty
      queue). Exits 1 listing every violated invariant.

  qsyn check <a> <b> [--miter | --ancilla 2,3]
      QMDD formal equivalence check of two circuit files, run on just the
      lines either circuit touches; --miter uses the interleaved strategy
      for wide registers, --ancilla checks partial
      equivalence assuming the listed lines (each below the wider
      circuit's width) start in |0>.

  qsyn stats <input>
      Gate statistics and Eqn. 2 cost of a circuit file.

  qsyn check-trace <trace.jsonl>
      Validate a --trace JSONL file: every line must be a well-formed
      pass event, and events sharing a sweep job id must follow Fig. 2
      pass order. Route events must carry a known routing-strategy tag
      (when present) and must not report more SWAPs than the budget cap
      recorded in the same event. A verify event's `support` must fit
      in the device, its `miter` counter must be 0 (canonical) or 1
      (miter), and its `miter_block` must be 1..=32 on a miter rung and
      0 on a canonical one. Prints a per-pass summary; exits 1 on
      malformed input.

  qsyn synth <hex> <n-vars> [--out FILE]
      Synthesize the single-target gate of a control function given as a
      hex truth table; emit a .real reversible cascade.

  qsyn dot --device <name>
  qsyn dot <input>
      Graphviz DOT of a device coupling map (paper Fig. 7 style) or of a
      circuit's QMDD (paper Fig. 1 style).

  qsyn draw <input>
      ASCII rendering of a circuit with ASAP gate layers.

Devices: ibmqx2, ibmqx3, ibmqx4, ibmqx5, ibmq_16, ibmq20, qc96,
simulator:<n>, the generated families lnn:<n>, grid:<w>x<h> and
heavy-hex:<d>, or a path to a .device description file
(name/qubits/native/coupling directives).",
        placements = PlacementStrategy::ALL
            .map(PlacementStrategy::name)
            .join("|"),
        costs = CostKind::ALL.map(CostKind::name).join("|"),
        strategies = RouteStrategyKind::ALL
            .map(RouteStrategyKind::name)
            .join("|"),
        caches = CacheMode::ALL.map(CacheMode::name).join("|"),
    );
    std::process::exit(2);
}

/// Resolves `--device` values: a library name, `simulator:<n>`, or a path
/// to a `.device` description file.
fn resolve_device(name_or_path: &str) -> Result<Device, String> {
    if let Some(d) = devices::device_by_name(name_or_path) {
        return Ok(d);
    }
    if name_or_path.ends_with(".device") || std::path::Path::new(name_or_path).exists() {
        let src = std::fs::read_to_string(name_or_path)
            .map_err(|e| format!("{name_or_path}: {e}"))?;
        return qsyn::arch::parse_device(&src).map_err(|e| format!("{name_or_path}: {e}"));
    }
    Err(format!(
        "unknown device `{name_or_path}` (library name or .device file)"
    ))
}

/// Unwraps a usage-level result, or prints `error: ...` and exits 2.
macro_rules! or_usage {
    ($result:expr) => {
        match $result {
            Ok(value) => value,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };
}

/// The `--trace[=FILE]` sink: JSONL on stderr for the bare flag, to FILE
/// otherwise.
fn trace_sink(flags: &Args) -> Result<Option<std::sync::Arc<dyn TraceSink>>, String> {
    Ok(match flags.value("trace") {
        None => None,
        Some("") => Some(std::sync::Arc::new(JsonlSink::stderr())),
        Some(path) => Some(std::sync::Arc::new(
            JsonlSink::to_file(path).map_err(|e| format!("{path}: {e}"))?,
        )),
    })
}

fn cmd_devices() -> ExitCode {
    // Every device supports both routing objectives; fidelity routing uses
    // per-edge calibration when present and a uniform default error
    // otherwise.
    let objectives = |d: &Device| {
        if d.has_error_data() {
            "swaps, fidelity (calibrated)"
        } else {
            "swaps, fidelity (uniform)"
        }
    };
    println!("| device | qubits | couplings | coupling complexity | objectives |");
    println!("|---|---|---|---|---|");
    for d in devices::all_devices() {
        println!(
            "| {} | {} | {} | {:.6} | {} |",
            d.name(),
            d.n_qubits(),
            d.coupling_count(),
            d.coupling_complexity(),
            objectives(&d)
        );
    }
    // The generated families take a size parameter on the command line;
    // one representative instantiation per family shows the shape.
    println!();
    println!("| generated family | example | qubits | couplings | objectives |");
    println!("|---|---|---|---|---|");
    for (family, example) in [
        ("lnn:<n>", "lnn:1024"),
        ("grid:<w>x<h>", "grid:32x32"),
        ("heavy-hex:<d>", "heavy-hex:14"),
    ] {
        let d = devices::device_by_name(example).expect("example family names resolve");
        println!(
            "| {} | {} | {} | {} | {} |",
            family,
            example,
            d.n_qubits(),
            d.coupling_count(),
            objectives(&d)
        );
    }
    println!();
    println!(
        "Generated families accept up to {} qubits; every edge is bidirectional \
         and carries synthetic calibration data.",
        devices::MAX_GENERATED_QUBITS
    );
    ExitCode::SUCCESS
}

fn cmd_compile(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(
        args,
        &["no-opt", "no-verify", "report", "trace", "strict-verify", "cache-stats"],
        &[
            "device",
            "out",
            "placement",
            "cost",
            "route-strategy",
            "deadline",
            "node-budget",
            "cache",
            "repeat",
            "stream",
            "stream-verify-jobs",
            "trace"
        ]
    ));
    let [input] = flags.positional.as_slice() else { usage() };
    let Some(device_name) = flags.value("device") else {
        eprintln!("error: --device is required");
        return ExitCode::from(2);
    };
    let device = or_usage!(resolve_device(device_name));
    let device_width = device.n_qubits();
    let circuit = match load_circuit(input) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut options = CompileOptions::default();
    or_usage!(options.apply_args(&flags));
    let eqn2 = TransmonCost::default();
    let repeat = or_usage!(flags.count("repeat", 1, "a run count >= 1")).unwrap_or(1);
    let mut compiler = options.compiler(device);
    if let Some(sink) = or_usage!(trace_sink(&flags)) {
        compiler = compiler.with_trace(sink);
    }

    // --stream N compiles window by window with a bounded resident
    // circuit, writing QASM incrementally — the path for gate streams too
    // large to hold in memory. Placement is identity by construction and
    // whole-compile repetition does not apply.
    if let Some(window) = or_usage!(flags.count("stream", 1, "a window size >= 1")) {
        if repeat > 1 {
            eprintln!("error: --repeat is incompatible with --stream");
            return ExitCode::from(2);
        }
        if options.placement != PlacementStrategy::Identity {
            eprintln!("error: --stream only supports identity placement");
            return ExitCode::from(2);
        }
        let verify_jobs = or_usage!(flags.count("stream-verify-jobs", 1, "a worker count >= 1"))
            .unwrap_or_else(qsyn::core::pool::default_jobs);
        compiler = compiler.with_stream_verify_jobs(verify_jobs);
        use std::io::Write as _;
        let raw: Box<dyn std::io::Write> = match flags.value("out") {
            Some(path) => match std::fs::File::create(path) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => Box::new(std::io::stdout()),
        };
        let mut writer = std::io::BufWriter::new(raw);
        // Streamed gates live on physical (device) qubits, so the output
        // register is device-wide even when the input circuit is narrower.
        let header = qsyn::circuit::qasm_header(device_width, circuit.name());
        if let Err(e) = writer.write_all(header.as_bytes()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        let mut line = String::with_capacity(32);
        let mut write_err: Option<String> = None;
        let streamed = compiler.compile_stream(
            circuit.n_qubits(),
            window,
            circuit.gates().iter().cloned(),
            |g| {
                if write_err.is_some() {
                    return;
                }
                line.clear();
                if let Err(e) = qsyn::circuit::write_gate_qasm(&mut line, g)
                    .map_err(std::io::Error::other)
                    .and_then(|()| writer.write_all(line.as_bytes()))
                {
                    write_err = Some(e.to_string());
                }
            },
        );
        let summary = match streamed {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(e) = write_err.or_else(|| writer.flush().err().map(|e| e.to_string())) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "streamed {:?} -> {}: {} windows of <= {} gates, {} -> {} gates, \
             {} SWAPs, peak resident {} gates, {:.3}s",
            circuit.name().unwrap_or(input),
            device_name,
            summary.windows,
            summary.window_gates,
            summary.gates_in,
            summary.gates_out,
            summary.swaps_inserted,
            summary.peak_resident_gates,
            summary.total_seconds,
        );
        match &summary.verdict {
            Verdict::Unverified { reason } => {
                eprintln!("warning: equivalence not established: {reason}");
            }
            Verdict::Verified { method } => {
                eprintln!(
                    "verified {} of {} windows ({method})",
                    summary.verified_windows, summary.windows
                );
            }
            _ => {}
        }
        if flags.has("cache-stats") {
            eprintln!("{}", qsyn::core::cache::stats().render());
        }
        return ExitCode::SUCCESS;
    }
    if flags.has("stream-verify-jobs") {
        eprintln!("error: --stream-verify-jobs requires --stream");
        return ExitCode::from(2);
    }

    // --repeat runs the whole compile N times in one process; sweep-style
    // job ids keep the interleaved trace events attributable per run.
    let mut results: Vec<CompileResult> = Vec::with_capacity(repeat);
    for run in 0..repeat {
        if repeat > 1 {
            compiler = compiler.with_job_id(run as u64);
        }
        match compiler.compile(&circuit) {
            Ok(r) => {
                eprintln!(
                    "mapped {:?} -> {}: {} (cost {:.2} -> {:.2}, -{:.1}%), verified = {:?}, {:.3}s{}",
                    circuit.name().unwrap_or(input),
                    device_name,
                    r.optimized.stats(),
                    eqn2.circuit_cost(&r.unoptimized),
                    eqn2.circuit_cost(&r.optimized),
                    r.percent_cost_decrease(&eqn2),
                    r.verified,
                    r.metrics().total_seconds,
                    if r.metrics().cache_hit { ", cache hit" } else { "" },
                );
                if let Verdict::Unverified { reason } = r.verdict() {
                    eprintln!("warning: equivalence not established: {reason}");
                }
                results.push(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let r = results.last().expect("repeat >= 1");
    if results
        .iter()
        .any(|other| other.optimized != r.optimized || other.verified != r.verified)
    {
        eprintln!("error: --repeat runs produced diverging outputs");
        return ExitCode::FAILURE;
    }
    if flags.has("report") {
        eprintln!("{}", r.metrics().render_table());
    }
    if flags.has("cache-stats") {
        eprintln!("{}", qsyn::core::cache::stats().render());
    }
    let qasm = r.optimized.to_qasm().expect("mapped output is QASM-ready");
    match flags.value("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, qasm) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{qasm}"),
    }
    ExitCode::SUCCESS
}

/// Installs a SIGTERM handler that flips the serve shutdown flag. Raw
/// libc `signal(2)` via FFI: the workspace builds offline, so no `libc`
/// crate — and the handler body is a single atomic store, which is
/// async-signal-safe.
#[cfg(unix)]
fn install_sigterm_handler() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn on_sigterm(_: i32) {
        qsyn::serve::SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(
        args,
        &["trace", "no-retry", "no-emit", "strict-verify", "cache-stats"],
        &[
            "workers",
            "queue-cap",
            "node-ceiling",
            "deadline",
            "node-budget",
            "max-swaps",
            "cache",
            "cache-dir",
            "max-line-bytes",
            "trace",
            "metrics-file",
            "cache-max-bytes",
            "cache-max-age"
        ]
    ));
    if !flags.positional.is_empty() {
        eprintln!("error: serve takes no positional arguments");
        return ExitCode::from(2);
    }
    let mut opts = qsyn::serve::ServeOptions::default();
    or_usage!(opts.defaults.options.apply_args(&flags));
    if let Some(n) = or_usage!(flags.count("workers", 1, "an integer >= 1")) {
        opts.workers = n;
    }
    if let Some(n) = or_usage!(flags.count("queue-cap", 1, "an integer >= 1")) {
        opts.queue_cap = n;
    }
    if let Some(n) = or_usage!(flags.count("max-line-bytes", 1, "an integer >= 1")) {
        opts.max_line_bytes = n;
    }
    opts.node_ceiling = or_usage!(flags.count("node-ceiling", 1, "an integer >= 1"));
    let cache_max_bytes = or_usage!(flags.parsed::<u64>("cache-max-bytes", "a byte count"));
    let cache_max_age = match flags.value("cache-max-age") {
        None => None,
        Some(spec) => match spec.parse::<f64>() {
            Ok(secs) if secs.is_finite() && secs >= 0.0 => {
                Some(std::time::Duration::from_secs_f64(secs))
            }
            _ => {
                eprintln!("error: bad --cache-max-age `{spec}` (want seconds, e.g. 86400)");
                return ExitCode::from(2);
            }
        },
    };
    if (cache_max_bytes.is_some() || cache_max_age.is_some()) && !flags.has("cache-dir")
    {
        eprintln!("error: --cache-max-bytes/--cache-max-age need --cache-dir");
        return ExitCode::from(2);
    }
    if let Some(dir) = flags.value("cache-dir") {
        // The disk tier sits under the whole-compile memo, so it requires
        // the mem layer; --cache-dir implies it rather than erroring.
        opts.defaults.options.cache = CacheMode::Mem;
        match qsyn::core::DiskCache::open(std::path::Path::new(dir)) {
            Ok(disk) => {
                // Startup eviction: trim the tier to the configured caps
                // before serving, oldest entries first.
                if cache_max_bytes.is_some() || cache_max_age.is_some() {
                    match disk.evict(cache_max_bytes, cache_max_age) {
                        Ok(ev) => eprintln!(
                            "disk cache: evicted {} of {} entries ({} bytes reclaimed), \
                             {} entries ({} bytes) remain",
                            ev.evicted, ev.scanned, ev.evicted_bytes, ev.remaining,
                            ev.remaining_bytes
                        ),
                        Err(e) => {
                            eprintln!("error: --cache-dir {dir}: eviction failed: {e}");
                            return ExitCode::from(2);
                        }
                    }
                }
                opts.disk = Some(std::sync::Arc::new(disk));
                // The coordinator re-runs the sweep online, on the
                // metrics-file cadence, so long-running daemons stay
                // within the caps as new entries accumulate.
                opts.cache_max_bytes = cache_max_bytes;
                opts.cache_max_age = cache_max_age;
            }
            Err(e) => {
                eprintln!("error: --cache-dir {dir}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = flags.value("metrics-file") {
        opts.metrics_file = Some(std::path::PathBuf::from(path));
    }
    opts.defaults.retry = !flags.has("no-retry");
    opts.defaults.emit_qasm = !flags.has("no-emit");
    opts.trace = or_usage!(trace_sink(&flags));

    install_sigterm_handler();
    let input = std::io::BufReader::new(std::io::stdin());
    let stdout = std::io::stdout();
    match qsyn::serve::run(input, stdout.lock(), opts) {
        Ok(summary) => {
            eprintln!(
                "served {} requests: {} ok, {} errors ({} overloaded, {} shed), \
                 {} metrics polls{}",
                summary.requests,
                summary.ok,
                summary.errors,
                summary.overloaded,
                summary.shed,
                summary.metrics_polls,
                if summary.terminated {
                    ", terminated by signal"
                } else {
                    ""
                },
            );
            if flags.has("cache-stats") {
                eprintln!("{}", qsyn::core::cache::stats().render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &["miter"], &["ancilla"]));
    let [a, b] = flags.positional.as_slice() else { usage() };
    if flags.has("miter") && flags.has("ancilla") {
        eprintln!("error: --miter and --ancilla cannot be combined");
        return ExitCode::from(2);
    }
    match (load_circuit(a), load_circuit(b)) {
        (Ok(ca), Ok(cb)) => {
            let report = if let Some(spec) = flags.value("ancilla") {
                // Comma-separated clean-ancilla lines, each inside the
                // wider circuit's register.
                let n = ca.n_qubits().max(cb.n_qubits());
                let lines: Option<Vec<usize>> = spec
                    .split(',')
                    .map(|s| s.trim().parse().ok().filter(|&q| q < n))
                    .collect();
                let Some(lines) = lines else {
                    eprintln!("error: bad --ancilla `{spec}` (want comma-separated lines below {n})");
                    return ExitCode::from(2);
                };
                qsyn::qmdd::equivalent_with_ancillas(&ca, &cb, &lines)
            } else {
                // The compiler's check: on the lines either circuit
                // touches, which decides exactly as the full register.
                let method = if flags.has("miter") {
                    EquivMethod::Miter
                } else {
                    EquivMethod::Canonical
                };
                let support = miter_support(&ca, &cb);
                try_equivalent_on(&support, &ca, &cb, method, EquivBudget::default())
                    .expect("a check without a node budget cannot exhaust it")
            };
            println!(
                "{}",
                if report.equivalent {
                    "EQUIVALENT"
                } else {
                    "DIFFERENT"
                }
            );
            if report.equivalent {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &[], &[]));
    let [input] = flags.positional.as_slice() else { usage() };
    match load_circuit(input) {
        Ok(c) => {
            let s = c.stats();
            println!("qubits          : {}", c.n_qubits());
            println!("gates           : {}", s.volume);
            println!("T / T-dagger    : {}", s.t_count);
            println!("CNOT            : {}", s.cnot_count);
            println!("other 1-qubit   : {}", s.other_single_count);
            println!("unmapped multi  : {}", s.unmapped_multi_count);
            println!("largest MCT     : {} controls", s.max_mct_controls);
            println!("depth           : {}", qsyn::circuit::depth(&c));
            println!("T-depth         : {}", qsyn::circuit::t_depth(&c));
            println!(
                "Eqn. 2 cost     : {:.2}",
                TransmonCost::default().cost(&s)
            );
            println!("technology-ready: {}", c.is_technology_ready());
            let hist = qsyn::circuit::gate_histogram(&c);
            let parts: Vec<String> =
                hist.iter().map(|(k, v)| format!("{k}x{v}")).collect();
            println!("histogram       : {}", parts.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check_trace(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &[], &[]));
    let [input] = flags.positional.as_slice() else { usage() };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut events = Vec::new();
    for (k, line) in text.lines().enumerate() {
        let parsed = qsyn::trace::json::parse(line)
            .ok()
            .and_then(|v| PassEvent::from_json(&v));
        match parsed {
            Some(e) => events.push(e),
            None => {
                eprintln!("error: {input}:{}: not a well-formed pass event", k + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    for e in &events {
        let job = e.job.map_or(String::new(), |j| format!("job {j:<4} "));
        println!(
            "{job}{:<9} {:>8.3} ms  {:>4} gates  Δcost {:+.2}",
            e.pass,
            e.seconds * 1e3,
            e.output.stats.volume,
            e.cost_delta()
        );
    }
    // A sweep job is one compilation, so its events — however interleaved
    // with other jobs in the stream — must follow Fig. 2 pass order. A
    // trace may aggregate several sweeps (`experiments` runs three tables
    // back to back, each restarting job ids at 0), so a job is allowed to
    // begin a fresh pipeline — but only from `place`; any other backward
    // jump is stream corruption.
    let mut jobs: Vec<u64> = events.iter().filter_map(|e| e.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    for &job in &jobs {
        let mut cursor = 0;
        for e in events.iter().filter(|e| e.job == Some(job)) {
            let idx = Pass::FIG2_ORDER
                .iter()
                .position(|p| *p == e.pass)
                .expect("FIG2_ORDER is exhaustive");
            if idx < cursor && idx != 0 {
                eprintln!(
                    "error: {input}: job {job}: pass `{}` repeats or breaks Fig. 2 order",
                    e.pass
                );
                return ExitCode::FAILURE;
            }
            cursor = idx + 1;
        }
    }
    // Verify events carry the degradation-ladder counters (see
    // docs/ROBUSTNESS.md): `unverified = 1` events must say how many rungs
    // were tried, and `unverified = 0` events must name the rung (1-based)
    // that succeeded. Events predating the ladder carry neither counter and
    // are tolerated as legacy.
    let mut degraded = 0usize;
    let mut unverified = 0usize;
    for (k, e) in events.iter().enumerate() {
        if e.pass != Pass::Verify {
            continue;
        }
        match e.counter("unverified") {
            Some(1.0) => {
                unverified += 1;
                if e.counter("ladder_rungs_tried").is_none() {
                    eprintln!(
                        "error: {input}: event {}: unverified verify event is missing \
                         the `ladder_rungs_tried` counter",
                        k + 1
                    );
                    return ExitCode::FAILURE;
                }
            }
            Some(0.0) => {
                let rung = e.counter("ladder_rung").unwrap_or(0.0);
                if rung < 1.0 {
                    eprintln!(
                        "error: {input}: event {}: verified verify event must carry \
                         `ladder_rung` >= 1",
                        k + 1
                    );
                    return ExitCode::FAILURE;
                }
                if let Err(why) = check_verify_support(e, rung) {
                    eprintln!("error: {input}: event {}: {why}", k + 1);
                    return ExitCode::FAILURE;
                }
                if rung > 1.0 {
                    degraded += 1;
                }
            }
            Some(v) => {
                eprintln!(
                    "error: {input}: event {}: `unverified` counter must be 0 or 1, got {v}",
                    k + 1
                );
                return ExitCode::FAILURE;
            }
            None => {} // legacy event: predates the degradation ladder
        }
    }
    // Route events: a `strategy` counter (when present — legacy traces
    // predate it) must be a known routing-strategy tag, and a route pass
    // that also records its budget cap must not report more SWAPs than
    // the cap allows — a trace showing a blown cap alongside a completed
    // route event is self-contradictory.
    let mut strategies: Vec<&str> = Vec::new();
    for (k, e) in events.iter().enumerate() {
        if e.pass != Pass::Route {
            continue;
        }
        if let Some(tag) = e.counter("strategy") {
            match qsyn::trace::route_strategy_name(tag) {
                Some(name) => {
                    if !strategies.contains(&name) {
                        strategies.push(name);
                    }
                }
                None => {
                    eprintln!(
                        "error: {input}: event {}: unknown routing-strategy tag {tag}",
                        k + 1
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(cap) = e.counter("swap_cap") {
            let swaps = e.counter("swaps_inserted").unwrap_or(0.0)
                + e.counter("restoration_swaps").unwrap_or(0.0);
            if swaps > cap {
                eprintln!(
                    "error: {input}: event {}: route event reports {swaps} SWAPs, \
                     exceeding the budget cap {cap} recorded in the same trace",
                    k + 1
                );
                return ExitCode::FAILURE;
            }
        }
    }
    // Streaming compiles emit one aggregate route event whose counters
    // must be internally consistent: windows processed, windowed-miter
    // outcomes accounting for every window, non-negative oracle activity,
    // and no window blowing the per-window SWAP cap recorded beside it.
    let mut stream_windows = 0.0f64;
    let mut stream_events = 0usize;
    for (k, e) in events.iter().enumerate() {
        match qsyn::trace::streaming::validate_streaming_route_event(e) {
            Ok(None) => {}
            Ok(Some(windows)) => {
                stream_events += 1;
                stream_windows += windows;
            }
            Err(msg) => {
                eprintln!("error: {input}: event {}: {msg}", k + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    // Compile-cache replays stamp every event with `cache_hit = 1`; the
    // marker is boolean by construction, so anything else is corruption.
    let mut cache_hits = 0usize;
    for (k, e) in events.iter().enumerate() {
        match e.counter("cache_hit") {
            Some(1.0) => cache_hits += 1,
            Some(0.0) | None => {}
            Some(v) => {
                eprintln!(
                    "error: {input}: event {}: `cache_hit` counter must be 0 or 1, got {v}",
                    k + 1
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let ladder = if degraded + unverified > 0 {
        format!(" ({degraded} degraded, {unverified} unverified)")
    } else {
        String::new()
    };
    let cached = if cache_hits > 0 {
        format!(", {cache_hits} cache-hit events")
    } else {
        String::new()
    };
    let routed = if strategies.is_empty() {
        String::new()
    } else {
        format!(", strategies: {}", strategies.join(", "))
    };
    let streamed = if stream_events > 0 {
        format!(
            ", {stream_events} streaming event(s) covering {stream_windows} windows"
        )
    } else {
        String::new()
    };
    if jobs.is_empty() {
        eprintln!(
            "{}: {} well-formed pass events{ladder}{cached}{routed}{streamed}",
            input,
            events.len()
        );
    } else {
        eprintln!(
            "{}: {} well-formed pass events across {} jobs, each in Fig. 2 \
             order{ladder}{cached}{routed}{streamed}",
            input,
            events.len(),
            jobs.len()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_report(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &["prometheus"], &[]));
    let [input] = flags.positional.as_slice() else { usage() };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let (snap, source) = match qsyn::report::load(&text) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.has("prometheus") {
        print!("{}", snap.render_prometheus());
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{}: {}",
        input,
        match source {
            qsyn::report::ReportSource::Snapshot => "metrics snapshot",
            qsyn::report::ReportSource::Trace =>
                "trace stream (histograms rebuilt from pass events)",
        }
    );
    print!("{}", qsyn::report::render(&snap));
    ExitCode::SUCCESS
}

/// The support counters of a decided verify event (absent on traces that
/// predate them): the check's `support` fits in the device register, and
/// its `miter_block` is a length the block rule can give — 0 on canonical
/// rungs, 1..=32 on miter rungs. The rung's method is its `miter` counter
/// (1: miter, 0: canonical); the third rung exists only on the canonical
/// ladder, and it is the miter.
fn check_verify_support(e: &PassEvent, rung: f64) -> Result<(), String> {
    let width = e.input.qubits as f64;
    if let Some(support) = e.counter("support") {
        if support > width {
            return Err(format!(
                "verify `support` {support} exceeds the device width {width}"
            ));
        }
    }
    let miter = e.counter("miter");
    if let Some(m) = miter.filter(|&m| m != 0.0 && m != 1.0) {
        return Err(format!("verify `miter` counter must be 0 or 1, got {m}"));
    }
    if let Some(block) = e.counter("miter_block") {
        if !(0.0..=32.0).contains(&block) || block.fract() != 0.0 {
            return Err(format!("verify `miter_block` {block} is not in 0..=32"));
        }
        if rung == 3.0 && block < 1.0 {
            return Err(format!(
                "the miter rung (ladder_rung 3) must carry `miter_block` >= 1, got {block}"
            ));
        }
        if miter == Some(1.0) && block < 1.0 {
            return Err(format!(
                "a miter rung (`miter` 1) must carry `miter_block` >= 1, got {block}"
            ));
        }
        if miter == Some(0.0) && block != 0.0 {
            return Err(format!(
                "a canonical rung (`miter` 0) must carry `miter_block` 0, got {block}"
            ));
        }
    }
    Ok(())
}

fn cmd_check_metrics(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &[], &[]));
    let [input] = flags.positional.as_slice() else { usage() };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let (snap, source) = match qsyn::report::load(&text) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if source != qsyn::report::ReportSource::Snapshot {
        eprintln!(
            "error: {input}: not a `{}` metrics snapshot (check-trace validates trace streams)",
            qsyn::report::METRICS_SCHEMA
        );
        return ExitCode::FAILURE;
    }
    match qsyn::report::check_snapshot(&snap) {
        Ok(checks) => {
            eprintln!(
                "{}: {} metrics ({} histograms), {} invariants hold",
                input,
                snap.counters.len() + snap.gauges.len() + snap.histograms.len(),
                snap.histograms.len(),
                checks.len()
            );
            ExitCode::SUCCESS
        }
        Err(violations) => {
            for v in &violations {
                eprintln!("error: {input}: violated: {v}");
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_synth(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &[], &["out"]));
    let [hex, vars] = flags.positional.as_slice() else { usage() };
    let Ok(n) = vars.parse::<usize>() else {
        eprintln!("error: bad variable count `{vars}`");
        return ExitCode::from(2);
    };
    let tt = match TruthTable::from_hex(n, hex) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cascade = synthesize_single_target(&tt);
    eprintln!(
        "synthesized single-target gate: {} lines, {} gates",
        cascade.n_qubits(),
        cascade.len()
    );
    let real = cascade.to_real().expect("cascades are classical");
    match flags.value("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, real) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        None => {
            print!("{real}");
            ExitCode::SUCCESS
        }
    }
}

fn cmd_dot(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &[], &["device"]));
    if let Some(name) = flags.value("device") {
        let device = match resolve_device(name) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        print!("{}", device.to_dot());
        return ExitCode::SUCCESS;
    }
    let [input] = flags.positional.as_slice() else { usage() };
    match load_circuit(input) {
        Ok(c) => {
            let (pkg, root) = qsyn::qmdd::build_circuit_qmdd(&c);
            eprintln!(
                "QMDD: {} non-terminal nodes for {} qubits",
                pkg.node_count(root),
                c.n_qubits()
            );
            print!("{}", pkg.to_dot(root));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_draw(args: &[String]) -> ExitCode {
    let flags = or_usage!(Args::parse(args, &[], &[]));
    let [input] = flags.positional.as_slice() else { usage() };
    match load_circuit(input) {
        Ok(c) => {
            eprintln!(
                "{} qubits, {} gates, depth {}, T-depth {}",
                c.n_qubits(),
                c.len(),
                qsyn::circuit::depth(&c),
                qsyn::circuit::t_depth(&c)
            );
            print!("{}", c.draw());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "devices" => cmd_devices(),
            "compile" => cmd_compile(rest),
            "serve" => cmd_serve(rest),
            "check" => cmd_check(rest),
            "check-trace" => cmd_check_trace(rest),
            "report" => cmd_report(rest),
            "check-metrics" => cmd_check_metrics(rest),
            "stats" => cmd_stats(rest),
            "synth" => cmd_synth(rest),
            "dot" => cmd_dot(rest),
            "draw" => cmd_draw(rest),
            _ => usage(),
        },
        None => usage(),
    }
}
