//! Performance baseline harness: `bench perf` measures the QMDD hot paths
//! and the parallel sweep engine, then writes `BENCH_qmdd.json` plus the
//! caching report `BENCH_cache.json`.
//!
//! ```text
//! cargo run --release --bin bench -- perf [--jobs N] [--out FILE]
//!                                         [--cache-out FILE]
//!                                         [--routing-out FILE]
//! ```
//!
//! The `BENCH_qmdd.json` report has three sections:
//!
//! * `qmdd` — single-threaded miter verification of the largest Table 7
//!   benchmark, once with garbage collection effectively disabled (the
//!   `baseline` figures: peak node count with no sweeps) and once with a
//!   forcing watermark (`current`: sweeps fire, peak drops, verdict
//!   unchanged);
//! * `pass_seconds` — wall time per Fig. 2 pass summed over a serial
//!   Table 5 sweep;
//! * `sweep` — the full Table 5 sweep (QMDD verification on) at `--jobs 1`
//!   vs `--jobs N`, with the resulting speedup.
//!
//! `BENCH_cache.json` (schema `qsyn-bench-cache/1`) covers the layered
//! compilation cache:
//!
//! * `compile` — a serial Table 5 sweep under `--cache mem`, cold (empty
//!   compile cache) vs. warm (every job a hit), with the verdicts asserted
//!   identical;
//! * `layers` — per-layer hit/miss deltas over those two runs;
//! * `routing` — per (device, objective), an all-connected-pairs CNOT
//!   workload routed by the legacy per-gate search vs. the precomputed
//!   routing table, outputs asserted byte-identical.
//!
//! `BENCH_routing.json` (schema `qsyn-bench-routing/1`) benchmarks the
//! routing *strategies* against each other: per (device, objective), the
//! paper's CTR vs. the SABRE-style lookahead router on the same workload,
//! with total SWAPs, Eqn. 2 cost, wall time, and a QMDD equivalence
//! verdict for every output — and an assertion that the lookahead wins on
//! SWAPs or cost for at least two device/objective combinations.
//!
//! See `docs/PERFORMANCE.md` for how to read the numbers.

use qsyn_arch::{devices, CostModel, Device, TransmonCost};
use qsyn_bench::big::BIG_BENCHMARKS;
use qsyn_bench::par::{flag_value, jobs_from_args};
use qsyn_bench::report::{run_table5_jobs, run_table5_sweep, Cell, SweepConfig, Table5Row};
use qsyn_circuit::Circuit;
use qsyn_core::{
    cache, routing_table, CacheMode, Compiler, CtrStrategy, LookaheadStrategy, RouteOutcome,
    RouteRequest, RoutingObjective, RoutingStrategy, RoutingTable, Verification,
};
use qsyn_gate::Gate;
use qsyn_qmdd::{
    equivalent_miter, equivalent_miter_with_gc_threshold, try_equivalent_miter, EquivBudget,
    EquivReport,
};
use qsyn_trace::json::Value;
use qsyn_trace::{Pass, TableSink};
use std::sync::Arc;
use std::time::Instant;

/// GC watermark used for the `current` figures: low enough that the miter
/// product of a Table 7 benchmark crosses it several times.
const FORCING_WATERMARK: usize = 1 << 12;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn report_json(seconds: f64, r: &EquivReport) -> Value {
    obj(vec![
        ("seconds", Value::Num(seconds)),
        ("equivalent", Value::Bool(r.equivalent)),
        ("peak_nodes", Value::Num(r.peak_nodes as f64)),
        ("unique_nodes", Value::Num(r.unique_nodes as f64)),
        ("cache_lookups", Value::Num(r.cache_lookups as f64)),
        ("cache_hit_rate", Value::Num(r.cache_hit_rate())),
        ("cache_evictions", Value::Num(r.cache_evictions as f64)),
        ("gc_runs", Value::Num(r.gc_runs as f64)),
        ("nodes_reclaimed", Value::Num(r.nodes_reclaimed as f64)),
    ])
}

fn qmdd_section() -> Value {
    // The largest Table 7 benchmark (T10_b) compiled for qc96, then
    // miter-verified twice: GC off vs. a forcing watermark.
    let bench = BIG_BENCHMARKS.last().expect("table 7 is non-empty");
    let spec = bench.circuit();
    let compiled = Compiler::new(devices::qc96())
        .with_verification(Verification::None)
        .compile(&spec)
        .expect("qc96 hosts every Table 7 benchmark");

    let t = Instant::now();
    let baseline =
        equivalent_miter_with_gc_threshold(&compiled.placed, &compiled.optimized, Some(usize::MAX));
    let baseline_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let current = equivalent_miter_with_gc_threshold(
        &compiled.placed,
        &compiled.optimized,
        Some(FORCING_WATERMARK),
    );
    let current_s = t.elapsed().as_secs_f64();

    assert_eq!(
        baseline.equivalent, current.equivalent,
        "GC must not change the verification verdict"
    );
    obj(vec![
        ("circuit", Value::Str(bench.name.to_string())),
        ("gc_watermark", Value::Num(FORCING_WATERMARK as f64)),
        ("baseline", report_json(baseline_s, &baseline)),
        ("current", report_json(current_s, &current)),
    ])
}

/// Times one full pass of the all-connected-pairs CNOT workload through a
/// routing strategy, repeated `reps` times; returns (seconds, last output).
const ROUTE_REPS: usize = 20;

/// A CNOT for every ordered qubit pair — the densest routing workload a
/// device supports, exercising every table entry.
fn all_pairs_cnots(d: &Device) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    for control in 0..n {
        for target in 0..n {
            if control != target {
                c.push(Gate::cx(control, target));
            }
        }
    }
    c
}

/// Collapses a sweep cell to its verdict-relevant content (everything but
/// the wall time), so cold and warm runs can be asserted identical.
fn cell_fingerprint(c: &Cell) -> String {
    match c {
        Cell::Mapped(m) => format!(
            "mapped {:?} {:?} {:.6} {} {}",
            m.unopt, m.opt, m.pct_decrease, m.verified, m.unverified
        ),
        Cell::NotApplicable => "n/a".to_string(),
        Cell::Failed(msg) => format!("failed {msg}"),
    }
}

fn rows_fingerprint(rows: &[Table5Row]) -> Vec<String> {
    rows.iter()
        .flat_map(|r| r.cells.iter().map(cell_fingerprint))
        .collect()
}

fn routing_section() -> Value {
    let mut entries = Vec::new();
    for d in devices::ibm_devices() {
        let workload = all_pairs_cnots(&d);
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            // Steady-state comparison: the table is built once per
            // process, so fetch it before the clock starts.
            let (table, _) = routing_table(&d, objective);

            let t = Instant::now();
            let mut legacy = None;
            for _ in 0..ROUTE_REPS {
                let req = RouteRequest::new(&workload, &d).with_objective(objective);
                legacy = Some(CtrStrategy.route(&req).expect("ibm devices are connected"));
            }
            let legacy_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let mut tabled = None;
            for _ in 0..ROUTE_REPS {
                let req = RouteRequest::new(&workload, &d)
                    .with_objective(objective)
                    .with_table(table.clone());
                tabled = Some(CtrStrategy.route(&req).expect("ibm devices are connected"));
            }
            let table_s = t.elapsed().as_secs_f64();

            let legacy = legacy.expect("reps >= 1");
            let tabled = tabled.expect("reps >= 1");
            assert_eq!(
                legacy.circuit.gates(),
                tabled.circuit.gates(),
                "table routing must be byte-identical to the legacy search \
                 ({} {objective:?})",
                d.name()
            );
            assert_eq!(legacy.swaps_inserted, tabled.swaps_inserted);
            entries.push(obj(vec![
                ("device", Value::Str(d.name().to_string())),
                (
                    "objective",
                    Value::Str(format!("{objective:?}").to_lowercase()),
                ),
                ("cnots", Value::Num(workload.len() as f64)),
                ("reps", Value::Num(ROUTE_REPS as f64)),
                ("legacy_seconds", Value::Num(legacy_s)),
                ("table_seconds", Value::Num(table_s)),
                ("speedup", Value::Num(legacy_s / table_s)),
                ("identical", Value::Bool(true)),
            ]));
        }
    }
    Value::Arr(entries)
}

/// Repetitions for the strategy shoot-out (the lookahead search is
/// heavier per gate than a table lookup, so fewer reps than the
/// table-vs-legacy timing).
const STRATEGY_REPS: usize = 5;

/// Times `strategy` over the workload and returns (mean seconds per rep,
/// last outcome).
fn time_strategy(
    strategy: &dyn RoutingStrategy,
    workload: &Circuit,
    d: &Device,
    objective: RoutingObjective,
    table: &Arc<RoutingTable>,
) -> (f64, RouteOutcome) {
    let t = Instant::now();
    let mut last = None;
    for _ in 0..STRATEGY_REPS {
        let req = RouteRequest::new(workload, d)
            .with_objective(objective)
            .with_table(table.clone());
        last = Some(strategy.route(&req).expect("ibm devices are connected"));
    }
    (
        t.elapsed().as_secs_f64() / STRATEGY_REPS as f64,
        last.expect("reps >= 1"),
    )
}

/// One strategy's result on one (device, objective): counters, Eqn. 2
/// cost of the routed output, timing, and the QMDD equivalence verdict.
fn strategy_json(seconds: f64, outcome: &RouteOutcome, eqn2: f64, equivalent: bool) -> Value {
    obj(vec![
        ("total_swaps", Value::Num(outcome.total_swaps() as f64)),
        ("gates", Value::Num(outcome.circuit.len() as f64)),
        ("depth", Value::Num(outcome.depth as f64)),
        ("eqn2_cost", Value::Num(eqn2)),
        ("seconds", Value::Num(seconds)),
        ("equivalent", Value::Bool(equivalent)),
    ])
}

/// `BENCH_routing.json`: CTR vs. the SABRE-style lookahead router per
/// (device, objective), every output QMDD-verified against the workload.
/// Panics unless the lookahead wins on total SWAPs or Eqn. 2 cost for at
/// least two device/objective combinations.
fn routing_bench(routing_out: &str) {
    eprintln!("bench perf: routing strategies (ctr vs lookahead)...");
    let cost = TransmonCost::default();
    let mut entries = Vec::new();
    let mut lookahead_wins = 0usize;
    let mut combos = 0usize;
    for d in devices::ibm_devices() {
        let workload = all_pairs_cnots(&d);
        for objective in [RoutingObjective::FewestSwaps, RoutingObjective::HighestFidelity] {
            let (table, _) = routing_table(&d, objective);
            let (ctr_s, ctr) = time_strategy(&CtrStrategy, &workload, &d, objective, &table);
            let (look_s, look) =
                time_strategy(&LookaheadStrategy::default(), &workload, &d, objective, &table);
            let ctr_ok = equivalent_miter(&workload, &ctr.circuit).equivalent;
            let look_ok = equivalent_miter(&workload, &look.circuit).equivalent;
            assert!(
                ctr_ok && look_ok,
                "strategy output failed QMDD verification ({} {objective:?})",
                d.name()
            );
            let ctr_cost = cost.circuit_cost(&ctr.circuit);
            let look_cost = cost.circuit_cost(&look.circuit);
            let wins_swaps = look.total_swaps() < ctr.total_swaps();
            let wins_cost = look_cost < ctr_cost;
            combos += 1;
            lookahead_wins += usize::from(wins_swaps || wins_cost);
            entries.push(obj(vec![
                ("device", Value::Str(d.name().to_string())),
                (
                    "objective",
                    Value::Str(format!("{objective:?}").to_lowercase()),
                ),
                ("cnots", Value::Num(workload.len() as f64)),
                ("ctr", strategy_json(ctr_s, &ctr, ctr_cost, ctr_ok)),
                ("lookahead", strategy_json(look_s, &look, look_cost, look_ok)),
                ("lookahead_wins_swaps", Value::Bool(wins_swaps)),
                ("lookahead_wins_cost", Value::Bool(wins_cost)),
            ]));
        }
    }
    assert!(
        lookahead_wins >= 2,
        "lookahead must beat CTR on SWAPs or Eqn. 2 cost for at least two \
         device/objective combos (won {lookahead_wins} of {combos})"
    );
    let report = obj(vec![
        ("schema", Value::Str("qsyn-bench-routing/1".to_string())),
        ("combos", Value::Num(combos as f64)),
        ("lookahead_wins", Value::Num(lookahead_wins as f64)),
        ("strategies", Value::Arr(entries)),
    ]);
    let text = format!("{report}\n");
    if let Err(e) = std::fs::write(routing_out, &text) {
        eprintln!("error: {routing_out}: {e}");
        std::process::exit(1);
    }
    print!("{text}");
    eprintln!("bench perf: wrote {routing_out}");
}

fn cache_perf(cache_out: &str) {
    eprintln!("bench perf: routing table vs legacy per-gate search...");
    let routing = routing_section();

    eprintln!("bench perf: cold vs warm Table 5 sweep (--cache mem)...");
    let cfg = SweepConfig {
        verify: true,
        jobs: 1,
        cache: CacheMode::Mem,
        ..SweepConfig::default()
    };
    let before = cache::stats();
    let t = Instant::now();
    let cold_rows = run_table5_sweep(&cfg);
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm_rows = run_table5_sweep(&cfg);
    let warm_s = t.elapsed().as_secs_f64();
    let delta = cache::stats().since(&before);
    assert_eq!(
        rows_fingerprint(&cold_rows),
        rows_fingerprint(&warm_rows),
        "a warm compile cache must reproduce the cold run's verdicts"
    );

    let compile = obj(vec![
        ("cold_seconds", Value::Num(cold_s)),
        ("warm_seconds", Value::Num(warm_s)),
        ("speedup", Value::Num(cold_s / warm_s)),
        ("outputs_identical", Value::Bool(true)),
    ]);
    let layers = obj(vec![
        ("routing_builds", Value::Num(delta.routing_tables_built as f64)),
        ("routing_hits", Value::Num(delta.routing_table_hits as f64)),
        ("decompose_hits", Value::Num(delta.decompose_memo_hits as f64)),
        ("decompose_misses", Value::Num(delta.decompose_memo_misses as f64)),
        ("decompose_hit_rate", Value::Num(delta.decompose_hit_rate())),
        ("compile_hits", Value::Num(delta.compile_hits as f64)),
        ("compile_misses", Value::Num(delta.compile_misses as f64)),
        ("compile_hit_rate", Value::Num(delta.compile_hit_rate())),
    ]);
    let report = obj(vec![
        ("schema", Value::Str("qsyn-bench-cache/1".to_string())),
        ("compile", compile),
        ("layers", layers),
        ("routing", routing),
    ]);
    let text = format!("{report}\n");
    if let Err(e) = std::fs::write(cache_out, &text) {
        eprintln!("error: {cache_out}: {e}");
        std::process::exit(1);
    }
    print!("{text}");
    eprintln!("bench perf: wrote {cache_out}");
}

fn perf(jobs: usize, out: &str) {
    eprintln!("bench perf: QMDD section (largest Table 7 benchmark)...");
    let qmdd = qmdd_section();

    eprintln!("bench perf: serial Table 5 sweep (per-pass timing)...");
    let sink = Arc::new(TableSink::new());
    let t = Instant::now();
    let _ = run_table5_jobs(true, Some(sink.clone()), 1);
    let serial_s = t.elapsed().as_secs_f64();
    let events = sink.events();
    let pass_seconds = obj(Pass::FIG2_ORDER
        .iter()
        .map(|p| {
            let total: f64 = events
                .iter()
                .filter(|e| e.pass == *p)
                .map(|e| e.seconds)
                .sum();
            (p.name(), Value::Num(total))
        })
        .collect());

    eprintln!("bench perf: parallel Table 5 sweep (--jobs {jobs})...");
    let t = Instant::now();
    let _ = run_table5_jobs(true, None, jobs);
    let parallel_s = t.elapsed().as_secs_f64();

    let sweep = obj(vec![
        ("jobs", Value::Num(jobs as f64)),
        ("table5_seconds_jobs1", Value::Num(serial_s)),
        ("table5_seconds_jobsN", Value::Num(parallel_s)),
        ("speedup", Value::Num(serial_s / parallel_s)),
    ]);

    let report = obj(vec![
        ("schema", Value::Str("qsyn-bench-perf/1".to_string())),
        ("qmdd", qmdd),
        ("pass_seconds", pass_seconds),
        ("sweep", sweep),
    ]);
    let text = format!("{report}\n");
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    print!("{text}");
    eprintln!("bench perf: wrote {out}");
}

/// Gate count of the scale section's streaming compile (overridable with
/// `QSYN_SCALE_STREAM_GATES` for quick local runs).
const STREAM_GATES: usize = 1_000_000;
/// Input gates per streaming window. Narrow windows keep each window's
/// miter support small (~1.5× the window for the grid stream), which is
/// what lets support-restricted verification walk a ~96-line QMDD
/// instead of the full 1024-line register; at the old 512-gate windows
/// the support covered most of the device and restriction bought ~1×.
const STREAM_WINDOW: usize = 64;
/// Windows of the stream prefix re-verified with the pre-optimization
/// full-register serial miter to measure `verified_speedup` in the same
/// run (the whole million-gate stream at baseline speed would take ~15
/// minutes for a number the prefix already gives).
const BASELINE_WINDOWS: usize = 128;
/// The fixed QMDD node budget every streamed window must verify within.
const STREAM_NODE_BUDGET: usize = 1 << 18;
/// CNOTs in the strided oracle routing workload.
const SCALE_ROUTE_CNOTS: usize = 200;
/// Build/route the dense table only up to this size; beyond it the dense
/// figures are projected (an O(n²) build at 4096 qubits is exactly the
/// wall the oracle removes).
const DENSE_MEASURE_MAX: usize = 1024;

/// A strided CNOT workload touching a spread of sources and distances
/// without enumerating all n² pairs (which no realistic circuit does at
/// this scale).
fn strided_cnots(d: &Device, count: usize) -> Circuit {
    let n = d.n_qubits();
    let mut c = Circuit::new(n);
    for i in 0..count {
        let a = (i * 37 + 11) % n;
        let b = (a + 1 + (i * 13) % 96) % n;
        if a != b {
            c.push(Gate::cx(a, b));
        }
    }
    c
}

/// The generated-family sizes the scale section sweeps (100–4096 qubits).
fn scale_devices() -> Vec<Device> {
    vec![
        devices::lnn(128),
        devices::grid_calibrated(16, 16),
        devices::grid_calibrated(32, 32),
        devices::grid_calibrated(64, 64),
    ]
}

/// One size point: sparse oracle build/route time and memory vs the dense
/// table (measured up to [`DENSE_MEASURE_MAX`] qubits, projected beyond).
fn scale_point(d: &Device) -> Value {
    let n = d.n_qubits();
    let objective = RoutingObjective::FewestSwaps;
    let workload = strided_cnots(d, SCALE_ROUTE_CNOTS);

    let t = Instant::now();
    let oracle = Arc::new(qsyn_core::DistanceOracle::build(d, objective));
    let sparse_build_s = t.elapsed().as_secs_f64();
    let sparse_build_bytes = oracle.approx_bytes();

    let t = Instant::now();
    let req = RouteRequest::new(&workload, d)
        .with_objective(objective)
        .with_oracle(oracle.clone());
    let sparse_out = CtrStrategy.route(&req).expect("generated families are connected");
    let sparse_route_s = t.elapsed().as_secs_f64();
    let sparse_total_bytes = oracle.approx_bytes();

    let mut pairs = vec![
        ("qubits", Value::Num(n as f64)),
        ("device", Value::Str(d.name().to_string())),
        ("cnots", Value::Num(workload.len() as f64)),
        ("sparse_build_seconds", Value::Num(sparse_build_s)),
        ("sparse_build_bytes", Value::Num(sparse_build_bytes as f64)),
        ("sparse_route_seconds", Value::Num(sparse_route_s)),
        ("sparse_total_bytes", Value::Num(sparse_total_bytes as f64)),
        ("oracle_hits", Value::Num(oracle.hit_count() as f64)),
        ("oracle_misses", Value::Num(oracle.miss_count() as f64)),
        // 20 bytes per all-pairs entry: u32 hop + f64 neglog + usize next
        // hop — what a materialized dense matrix costs at this width.
        ("dense_projected_bytes", Value::Num((n * n * 20) as f64)),
    ];
    if n <= DENSE_MEASURE_MAX {
        let t = Instant::now();
        let table = Arc::new(RoutingTable::build(d, objective));
        let dense_build_s = t.elapsed().as_secs_f64();
        let dense_bytes = table.approx_bytes();
        let t = Instant::now();
        let req = RouteRequest::new(&workload, d)
            .with_objective(objective)
            .with_table(table);
        let dense_out = CtrStrategy.route(&req).expect("generated families are connected");
        let dense_route_s = t.elapsed().as_secs_f64();
        assert_eq!(
            sparse_out.circuit.gates(),
            dense_out.circuit.gates(),
            "oracle routing must be byte-identical to the dense table on {}",
            d.name()
        );
        pairs.push(("dense_build_seconds", Value::Num(dense_build_s)));
        pairs.push(("dense_bytes", Value::Num(dense_bytes as f64)));
        pairs.push(("dense_route_seconds", Value::Num(dense_route_s)));
        pairs.push((
            "sparse_memory_ratio",
            Value::Num(sparse_total_bytes as f64 / dense_bytes as f64),
        ));
    }
    obj(pairs)
}

/// A nearest-neighbor-heavy native gate stream over a `w`-column grid —
/// the shape of workload a 2D fabric is built for.
fn grid_stream(n: usize, w: usize, gates: usize) -> impl Iterator<Item = Gate> {
    (0..gates).map(move |i| match i % 4 {
        0 => Gate::h((i * 37 + 11) % n),
        1 => {
            let q = (i * 73 + 5) % n;
            if q % w < w - 1 {
                Gate::cx(q, q + 1)
            } else {
                Gate::cx(q, q - 1)
            }
        }
        2 => Gate::t((i * 29 + 3) % n),
        _ => {
            let q = (i * 41 + 17) % n;
            if q + w < n {
                Gate::cx(q, q + w)
            } else {
                Gate::cx(q, q - w)
            }
        }
    })
}

/// `BENCH_scale.json`: the device-axis scaling story. Sparse oracle vs
/// dense table build time/memory from 128 to 4096 qubits (dense measured
/// to 1024, projected beyond), and a million-gate streaming compile on
/// the 1024-qubit grid with support-restricted windowed QMDD
/// verification under a fixed node budget, plus a same-run full-register
/// serial baseline prefix for the `verified_speedup` ratio. Panics
/// unless the sparse figures beat dense at >= 1024 qubits, the streamed
/// verdict is non-Unverified, and the verified throughput is >= 10x the
/// baseline path.
fn scale_bench(scale_out: &str) {
    eprintln!("bench perf: oracle-vs-dense scaling sweep (128..4096 qubits)...");
    let points: Vec<Value> = scale_devices().iter().map(scale_point).collect();

    // The acceptance comparisons at the 1024-qubit grid point.
    let find = |v: &Value, key: &str| -> f64 {
        let Value::Obj(pairs) = v else { panic!("point is an object") };
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                Value::Num(x) => Some(*x),
                _ => None,
            })
            .unwrap_or_else(|| panic!("missing {key}"))
    };
    let p1024 = points
        .iter()
        .find(|p| find(p, "qubits") == 1024.0)
        .expect("1024-qubit point");
    let sparse_bytes = find(p1024, "sparse_total_bytes");
    let dense_bytes = find(p1024, "dense_bytes");
    let sparse_build = find(p1024, "sparse_build_seconds");
    let dense_build = find(p1024, "dense_build_seconds");
    assert!(
        sparse_bytes * 8.0 < dense_bytes,
        "sparse oracle must use <1/8 the dense memory at 1024 qubits \
         ({sparse_bytes} vs {dense_bytes})"
    );
    assert!(
        sparse_build < dense_build,
        "sparse oracle must build faster than the dense table at 1024 \
         qubits ({sparse_build}s vs {dense_build}s)"
    );
    let p4096 = points
        .iter()
        .find(|p| find(p, "qubits") == 4096.0)
        .expect("4096-qubit point");
    assert!(
        find(p4096, "sparse_total_bytes") * 100.0 < find(p4096, "dense_projected_bytes"),
        "sparse oracle must stay >100x under the projected dense matrix at 4096 qubits"
    );

    let stream_gates: usize = std::env::var("QSYN_SCALE_STREAM_GATES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(STREAM_GATES);
    eprintln!(
        "bench perf: streaming {stream_gates} gates through the 1024-qubit grid \
         (window {STREAM_WINDOW}, node budget {STREAM_NODE_BUDGET})..."
    );
    let device = devices::grid_calibrated(32, 32);
    let n = device.n_qubits();
    let compiler = Compiler::new(device)
        .with_budget(
            qsyn_core::CompileBudget::default().with_node_budget(STREAM_NODE_BUDGET),
        );
    let mut emitted = 0usize;
    let t = Instant::now();
    let summary = compiler
        .compile_stream(n, STREAM_WINDOW, grid_stream(n, 32, stream_gates), |_| {
            emitted += 1;
        })
        .expect("streaming compile fits its budget");
    let stream_s = t.elapsed().as_secs_f64();
    assert!(
        !summary.verdict.is_unverified(),
        "every streamed window must verify within the node budget: {:?}",
        summary.verdict
    );
    assert_eq!(summary.gates_out, emitted);
    assert!(
        summary.peak_resident_gates < stream_gates / 10,
        "streaming must bound the resident circuit (peak {} of {} gates)",
        summary.peak_resident_gates,
        stream_gates
    );

    // Differential baseline, same run: the first BASELINE_WINDOWS
    // windows of the identical stream, each compiled as a one-window
    // batch without verification and then checked with the
    // pre-optimization full-register, unbatched miter under the stream's
    // node budget. The generator is uniform window to window, so prefix
    // throughput is representative, and the restricted run above having
    // the same window contents makes the ratio a true like-for-like
    // verified-throughput speedup.
    let baseline_gates = (BASELINE_WINDOWS * STREAM_WINDOW).min(stream_gates);
    eprintln!(
        "bench perf: re-verifying a {baseline_gates}-gate prefix with the \
         full-register serial baseline..."
    );
    let window_compiler =
        Compiler::new(compiler.device().clone()).with_verification(Verification::None);
    let baseline_budget = EquivBudget {
        gc_threshold: Some(STREAM_NODE_BUDGET / 2),
        node_budget: Some(STREAM_NODE_BUDGET),
    };
    let prefix: Vec<Gate> = grid_stream(n, 32, baseline_gates).collect();
    let t = Instant::now();
    for window in prefix.chunks(STREAM_WINDOW) {
        let mut spec = Circuit::new(n);
        for g in window {
            spec.push(g.clone());
        }
        let r = window_compiler
            .compile(&spec)
            .expect("baseline window compiles");
        let report = try_equivalent_miter(&r.placed, &r.optimized, baseline_budget)
            .expect("the baseline path must also verify every window within the node budget");
        assert!(report.equivalent, "a baseline window failed verification");
    }
    let baseline_s = t.elapsed().as_secs_f64();
    let gates_per_second = summary.gates_in as f64 / stream_s;
    let baseline_gates_per_second = baseline_gates as f64 / baseline_s;
    let verified_speedup = gates_per_second / baseline_gates_per_second;
    eprintln!(
        "bench perf: verified throughput {gates_per_second:.0} gates/s vs \
         baseline {baseline_gates_per_second:.0} gates/s ({verified_speedup:.1}x)"
    );
    assert!(
        verified_speedup >= 10.0,
        "support-restricted windowed verification must deliver >= 10x the \
         full-register serial verified throughput (got {verified_speedup:.2}x)"
    );

    let streaming = obj(vec![
        ("device", Value::Str("grid32x32".to_string())),
        ("qubits", Value::Num(n as f64)),
        ("gates_in", Value::Num(summary.gates_in as f64)),
        ("gates_out", Value::Num(summary.gates_out as f64)),
        ("window_gates", Value::Num(summary.window_gates as f64)),
        ("windows", Value::Num(summary.windows as f64)),
        ("node_budget", Value::Num(STREAM_NODE_BUDGET as f64)),
        ("seconds", Value::Num(stream_s)),
        ("gates_per_second", Value::Num(gates_per_second)),
        (
            "baseline_gates_per_second",
            Value::Num(baseline_gates_per_second),
        ),
        ("baseline_gates", Value::Num(baseline_gates as f64)),
        ("verified_speedup", Value::Num(verified_speedup)),
        (
            "verify_seconds_total",
            Value::Num(summary.verify_seconds_total),
        ),
        ("verify_p95", Value::Num(summary.verify_p95_seconds)),
        (
            "max_window_support",
            Value::Num(summary.max_window_support as f64),
        ),
        ("verify_jobs", Value::Num(summary.verify_jobs as f64)),
        (
            "peak_resident_gates",
            Value::Num(summary.peak_resident_gates as f64),
        ),
        ("swaps_inserted", Value::Num(summary.swaps_inserted as f64)),
        (
            "max_window_swaps",
            Value::Num(summary.max_window_swaps as f64),
        ),
        (
            "verified_windows",
            Value::Num(summary.verified_windows as f64),
        ),
        (
            "unverified_windows",
            Value::Num(summary.unverified_windows as f64),
        ),
        ("oracle_hits", Value::Num(summary.oracle_hits as f64)),
        ("oracle_misses", Value::Num(summary.oracle_misses as f64)),
        ("verdict", Value::Str(format!("{:?}", summary.verdict))),
    ]);

    let report = obj(vec![
        ("schema", Value::Str("qsyn-bench-scale/1".to_string())),
        ("oracle", Value::Arr(points)),
        ("streaming", streaming),
    ]);
    let text = format!("{report}\n");
    if let Err(e) = std::fs::write(scale_out, &text) {
        eprintln!("error: {scale_out}: {e}");
        std::process::exit(1);
    }
    print!("{text}");
    eprintln!("bench perf: wrote {scale_out}");
}

/// `BENCH_serve.json`: requests/s and latency percentiles of the serve
/// execution path at 1/2/4 workers, cold vs. warm compile cache (see
/// `qsyn_bench::serve_bench`).
fn serve_bench_run(serve_out: &str) {
    eprintln!("bench serve: daemon execution path (1/2/4 workers, cold vs warm)...");
    let report = qsyn_bench::serve_bench::serve_report();
    let text = format!("{report}\n");
    if let Err(e) = std::fs::write(serve_out, &text) {
        eprintln!("error: {serve_out}: {e}");
        std::process::exit(1);
    }
    print!("{text}");
    eprintln!("bench serve: wrote {serve_out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(jobs) = jobs_from_args(&args) else {
        eprintln!("error: --jobs requires a positive integer");
        std::process::exit(2);
    };
    let out = flag_value(&args, "--out")
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| "BENCH_qmdd.json".to_string());
    let cache_out = flag_value(&args, "--cache-out")
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| "BENCH_cache.json".to_string());
    let routing_out = flag_value(&args, "--routing-out")
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| "BENCH_routing.json".to_string());
    let scale_out = flag_value(&args, "--scale-out")
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let serve_out = flag_value(&args, "--serve-out")
        .filter(|v| !v.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    match args.first().map(String::as_str) {
        Some("perf") => {
            perf(jobs, &out);
            cache_perf(&cache_out);
            routing_bench(&routing_out);
            scale_bench(&scale_out);
            serve_bench_run(&serve_out);
        }
        Some("scale") => scale_bench(&scale_out),
        Some("serve") => serve_bench_run(&serve_out),
        _ => {
            eprintln!(
                "usage: bench perf [--jobs N] [--out FILE] [--cache-out FILE] \
                 [--routing-out FILE] [--scale-out FILE] [--serve-out FILE]\n       \
                 bench scale [--scale-out FILE]\n       \
                 bench serve [--serve-out FILE]"
            );
            std::process::exit(2);
        }
    }
}
