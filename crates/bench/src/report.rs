//! Experiment harness: runs the paper's evaluation and renders each table.
//!
//! Every table/figure of the paper's Section 5 has a `run_*` function that
//! returns structured data and a `render_*` function that prints the same
//! rows the paper reports (plus the paper's own numbers for comparison).
//! The `table2` .. `table8` binaries and the `experiments` binary are thin
//! wrappers over this module, so EXPERIMENTS.md can be regenerated with
//! `cargo run --bin experiments`.

use crate::big::{BigBenchmark, BIG_BENCHMARKS};
use crate::par::{par_map, try_par_map};
use crate::revlib::{RevlibBenchmark, REVLIB_BENCHMARKS};
use crate::stg::{StgFunction, STG_FUNCTIONS};
use qsyn_arch::{devices, CostModel, Device, TransmonCost};
use qsyn_circuit::Circuit;
use qsyn_core::{Args, CompileError, CompileOptions, Compiler, FaultSpec, Verification};
use qsyn_trace::TraceSink;
use std::fmt::Write as _;
use std::sync::Arc;

/// Metrics of one mapping: the `(T-count / gates / cost)` triples the
/// paper's tables use, before and after optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingMetrics {
    /// Unoptimized (T-count, gate count, Eqn. 2 cost).
    pub unopt: (usize, usize, f64),
    /// Optimized (T-count, gate count, Eqn. 2 cost).
    pub opt: (usize, usize, f64),
    /// Percent cost decrease from optimization (Tables 4/6/8).
    pub pct_decrease: f64,
    /// Whether the built-in QMDD equivalence check passed.
    pub verified: bool,
    /// Verification ran but every degradation-ladder rung exhausted its
    /// budget: the output is explicitly unverified (never a silent pass).
    pub unverified: bool,
    /// Synthesis wall time in seconds (including verification).
    pub seconds: f64,
}

/// One benchmark-on-device cell of a sweep table.
///
/// Historically this was `Option<MappingMetrics>` with a panic for
/// unexpected errors; the sweep harness now keeps every outcome structured
/// so a run over N inputs always produces N cells.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Synthesized (and possibly verified); carries the table metrics.
    Mapped(MappingMetrics),
    /// The paper's `N/A`: circuit too wide, or a generalized Toffoli with
    /// no borrowable ancilla line.
    NotApplicable,
    /// The job failed — budget exhaustion, an injected fault, or a panic
    /// the sweep isolated — with the failure message.
    Failed(String),
}

impl Cell {
    /// The metrics, when the benchmark synthesized.
    pub fn metrics(&self) -> Option<&MappingMetrics> {
        match self {
            Cell::Mapped(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the job failed (as opposed to mapping or a clean `N/A`).
    pub fn is_failed(&self) -> bool {
        matches!(self, Cell::Failed(_))
    }

    /// The failure message, when the job failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            Cell::Failed(msg) => Some(msg),
            _ => None,
        }
    }
}

/// Everything a table sweep needs beyond its inputs: the compile options
/// every job runs with, an optional shared trace sink, the worker count,
/// and (for harness tests and CI smoke runs) a fault to inject.
#[derive(Clone, Default)]
pub struct SweepConfig {
    /// Compile options applied to every job's compiler.
    pub options: CompileOptions,
    /// Optional shared sink receiving every job's pass events.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Worker threads (`<= 1` runs serially on the calling thread).
    pub jobs: usize,
    /// Deliberate fault injected into job 0 only; the remaining jobs
    /// demonstrate isolation by completing normally.
    pub inject: Option<FaultSpec>,
}

impl std::fmt::Debug for SweepConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepConfig")
            .field("options", &self.options)
            .field("traced", &self.trace.is_some())
            .field("jobs", &self.jobs)
            .field("inject", &self.inject)
            .finish()
    }
}

impl SweepConfig {
    /// Parses the sweep flags the table binaries share: `--no-verify`,
    /// `--jobs N`, `--node-budget NODES`, `--deadline SECONDS`,
    /// `--strict-verify`, `--cache MODE` and `--inject-fault pass:kind`.
    /// Any other flag or argument is an error.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending flag.
    pub fn from_args(args: &[String]) -> Result<SweepConfig, String> {
        let args = Args::parse(
            args,
            &["no-verify", "strict-verify"],
            &["jobs", "node-budget", "deadline", "cache", "inject-fault"],
        )?;
        SweepConfig::from_parsed(&args)
    }

    /// Reads whichever sweep flags a binary declared from already-parsed
    /// arguments (a trace sink stays with the binary). Sweeps take no
    /// positional arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending flag or argument.
    pub fn from_parsed(args: &Args) -> Result<SweepConfig, String> {
        if let Some(extra) = args.positional.first() {
            return Err(format!("unexpected argument `{extra}`"));
        }
        let mut options = CompileOptions::default();
        options.apply_args(args)?;
        let inject = match args.value("inject-fault") {
            Some(v) => Some(FaultSpec::parse(v).map_err(|e| format!("--inject-fault: {e}"))?),
            None => None,
        };
        Ok(SweepConfig {
            options,
            trace: None,
            jobs: crate::par::jobs_arg(args)?,
            inject,
        })
    }
}

/// Counts [`Cell::Failed`] entries — the summary line every sweep binary
/// prints so CI can assert fault isolation.
pub fn count_failed<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> usize {
    cells.into_iter().filter(|c| c.is_failed()).count()
}

/// Compiles a circuit for a device under the sweep's options and extracts
/// the table metrics. `job` stamps every pass event (so events from
/// concurrent jobs interleaved in one JSONL stream stay attributable) and
/// selects the fault-injection target (job 0, or an unnumbered job).
///
/// Returns [`Cell::NotApplicable`] for the paper's `N/A` conditions
/// (circuit too wide, or a generalized Toffoli with no borrowable line)
/// and [`Cell::Failed`] for every other error — the harness tabulates
/// failures rather than tearing down a sweep.
pub fn map_benchmark(
    circuit: &Circuit,
    device: &Device,
    cfg: &SweepConfig,
    job: Option<u64>,
) -> Cell {
    let cost = TransmonCost::default();
    let mut compiler = cfg.options.compiler(device.clone());
    if let Some(sink) = cfg.trace.clone() {
        compiler = compiler.with_trace(sink);
    }
    if let Some(id) = job {
        compiler = compiler.with_job_id(id);
    }
    if let Some(spec) = cfg.inject {
        if job.unwrap_or(0) == 0 {
            compiler = compiler.with_fault_injection(spec);
        }
    }
    match compiler.compile(circuit) {
        Ok(r) => {
            let su = r.unoptimized_stats();
            let so = r.optimized_stats();
            Cell::Mapped(MappingMetrics {
                unopt: (su.t_count, su.volume, cost.cost(&su)),
                opt: (so.t_count, so.volume, cost.cost(&so)),
                pct_decrease: r.percent_cost_decrease(&cost),
                verified: r.verified.unwrap_or(false),
                unverified: r.verdict().is_unverified(),
                seconds: r.metrics().total_seconds,
            })
        }
        Err(CompileError::TooWide { .. }) | Err(CompileError::NoAncilla { .. }) => {
            Cell::NotApplicable
        }
        Err(e) => Cell::Failed(format!("{}: {e}", circuit.name().unwrap_or("circuit"))),
    }
}

/// Technology-independent reference form of a benchmark: mapped to an
/// unconstrained simulator twice as wide as the circuit (so every
/// generalized Toffoli gets a full dirty-ancilla chain, as it would on a
/// larger device), then optimized. T-counts therefore agree with the
/// device mappings, which never change T-count during routing.
pub fn tech_independent_metrics(circuit: &Circuit) -> (usize, usize, f64) {
    let cost = TransmonCost::default();
    let sim = Device::simulator(circuit.n_qubits() * 2);
    let r = Compiler::new(sim)
        .with_verification(Verification::Canonical)
        .compile(circuit)
        .expect("simulator mapping cannot fail");
    assert_eq!(r.verified, Some(true));
    let s = r.optimized_stats();
    (s.t_count, s.volume, cost.cost(&s))
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// One Table 2 row: device data plus the paper's reported complexity.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Device name.
    pub name: String,
    /// Qubit count.
    pub qubits: usize,
    /// Coupling complexity computed from the map.
    pub complexity: f64,
    /// The value printed in paper Table 2.
    pub paper_complexity: f64,
}

/// Computes Table 2 (device coupling complexities). Exact reproduction.
pub fn run_table2() -> Vec<Table2Row> {
    let paper = [
        ("ibmqx2", 0.3),
        ("ibmqx3", 1.0 / 12.0),
        ("ibmqx4", 0.3),
        ("ibmqx5", 22.0 / 240.0),
        ("ibmq_16", 18.0 / 182.0),
    ];
    devices::ibm_devices()
        .into_iter()
        .zip(paper)
        .map(|(d, (name, pc))| {
            assert_eq!(d.name(), name);
            Table2Row {
                name: d.name().to_string(),
                qubits: d.n_qubits(),
                complexity: d.coupling_complexity(),
                paper_complexity: pc,
            }
        })
        .collect()
}

/// Renders Table 2 as markdown.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Device | Qubits | Coupling complexity (measured) | Paper |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {:.6} | {:.6} |",
            r.name, r.qubits, r.complexity, r.paper_complexity
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Tables 3 and 4
// ---------------------------------------------------------------------------

/// One Table 3 row: a single-target-gate function mapped to every device.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The benchmark function.
    pub function: StgFunction,
    /// Our technology-independent (T, gates, cost).
    pub tech_independent: (usize, usize, f64),
    /// One cell per device, in [`devices::ibm_devices`] order.
    pub cells: Vec<Cell>,
}

/// Runs the Table 3 / Table 4 experiment over the whole suite, fanning
/// the (function, device) jobs across up to `cfg.jobs` worker threads.
/// Each job compiles with its own QMDD package and is stamped with a
/// row-major job id, so results (and per-pass trace attribution) are
/// identical for every `jobs` value. Each job is fault-isolated: a panic
/// or budget blow becomes a [`Cell::Failed`] in its slot and every other
/// job still completes.
pub fn run_table3(cfg: &SweepConfig) -> Vec<Table3Row> {
    let devs = devices::ibm_devices();
    let cascades: Vec<Circuit> = STG_FUNCTIONS.iter().map(StgFunction::cascade).collect();
    let pairs = job_pairs(cascades.len(), devs.len());
    let cells = sweep_cells(&pairs, cfg, |job, &(f, d)| {
        map_benchmark(&cascades[f], &devs[d], cfg, Some(job as u64))
    });
    let tech = par_map(&cascades, cfg.jobs.max(1), |_, c| {
        tech_independent_metrics(c)
    });
    STG_FUNCTIONS
        .iter()
        .enumerate()
        .map(|(i, f)| Table3Row {
            function: *f,
            tech_independent: tech[i],
            cells: cells[i * devs.len()..(i + 1) * devs.len()].to_vec(),
        })
        .collect()
}

/// Runs one fault-isolated cell per job: panics caught by
/// [`try_par_map`] are folded back into [`Cell::Failed`] rows, so the
/// returned vector always has exactly `pairs.len()` entries.
fn sweep_cells<T: Sync>(
    pairs: &[T],
    cfg: &SweepConfig,
    f: impl Fn(usize, &T) -> Cell + Sync,
) -> Vec<Cell> {
    try_par_map(pairs, cfg.jobs.max(1), f)
        .into_iter()
        .map(|r| r.unwrap_or_else(Cell::Failed))
        .collect()
}

/// Row-major (benchmark, device) job list: job id = `b * n_devices + d`,
/// stable across `--jobs` values.
fn job_pairs(n_benchmarks: usize, n_devices: usize) -> Vec<(usize, usize)> {
    (0..n_benchmarks)
        .flat_map(|b| (0..n_devices).map(move |d| (b, d)))
        .collect()
}

/// Per-device average percent cost decrease (the paper's Table 4 bottom
/// row) over the rows that synthesized.
pub fn average_pct_per_device(rows: &[&[Cell]], n_devices: usize) -> Vec<f64> {
    (0..n_devices)
        .map(|d| {
            let vals: Vec<f64> = rows
                .iter()
                .filter_map(|cells| cells[d].metrics().map(|m| m.pct_decrease))
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect()
}

/// One Table 3/5 cell. A degraded cell, whose verification ran out of
/// budget, is marked `UNVERIFIED` as in Table 8.
fn fmt_cell(c: &Cell) -> String {
    match c {
        Cell::Mapped(m) => format!(
            "{}/{}/{:.2} -> {}/{}/{:.2}{}",
            m.unopt.0,
            m.unopt.1,
            m.unopt.2,
            m.opt.0,
            m.opt.1,
            m.opt.2,
            if m.unverified { " UNVERIFIED" } else { "" }
        ),
        Cell::NotApplicable => "N/A".to_string(),
        Cell::Failed(_) => "FAILED".to_string(),
    }
}

fn device_names() -> Vec<String> {
    devices::ibm_devices()
        .iter()
        .map(|d| d.name().to_string())
        .collect()
}

/// Renders a Table 4/6-style percent-decrease table for any row set.
fn render_pct_table(names: &[String], cells: &[&[Cell]], paper_avg: &[f64; 5]) -> String {
    let dev_names = device_names();
    let mut out = String::new();
    let _ = writeln!(out, "| Ftn. | {} |", dev_names.join(" | "));
    let _ = writeln!(out, "|{}", "---|".repeat(1 + dev_names.len()));
    for (name, row) in names.iter().zip(cells) {
        let pcts: Vec<String> = row
            .iter()
            .map(|c| match c {
                Cell::Mapped(m) => format!("{:.2}", m.pct_decrease),
                Cell::NotApplicable => "N/A".into(),
                Cell::Failed(_) => "FAILED".into(),
            })
            .collect();
        let _ = writeln!(out, "| {} | {} |", name, pcts.join(" | "));
    }
    let avg = average_pct_per_device(cells, dev_names.len());
    let _ = writeln!(
        out,
        "| Average (ours) | {} |",
        avg.iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let _ = writeln!(
        out,
        "| Average (paper) | {} |",
        paper_avg
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    out
}

/// Renders Table 3 (mappings) as markdown.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let dev_names = device_names();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Ftn. | Qubits | Tech-ind. ours (T/g/cost) | Tech-ind. paper | {} |",
        dev_names.join(" | ")
    );
    let _ = writeln!(out, "|{}", "---|".repeat(4 + dev_names.len()));
    for r in rows {
        let cells: Vec<String> = r.cells.iter().map(fmt_cell).collect();
        let _ = writeln!(
            out,
            "| #{} | {} | {}/{}/{:.2} | {}/{}/{:.2} | {} |",
            r.function.id,
            r.function.qubits,
            r.tech_independent.0,
            r.tech_independent.1,
            r.tech_independent.2,
            r.function.paper_t,
            r.function.paper_gates,
            r.function.paper_cost,
            cells.join(" | ")
        );
    }
    out
}

/// Renders Table 4 (percent cost decrease of the Table 3 mappings).
pub fn render_table4(rows: &[Table3Row]) -> String {
    let names: Vec<String> = rows.iter().map(|r| format!("#{}", r.function.id)).collect();
    let cells: Vec<&[Cell]> = rows.iter().map(|r| r.cells.as_slice()).collect();
    render_pct_table(&names, &cells, &[5.85, 7.65, 4.92, 8.04, 8.48])
}

// ---------------------------------------------------------------------------
// Tables 5 and 6
// ---------------------------------------------------------------------------

/// One Table 5 row: a RevLib cascade mapped to every device.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// The benchmark.
    pub benchmark: RevlibBenchmark,
    /// One cell per device, in [`devices::ibm_devices`] order.
    pub cells: Vec<Cell>,
}

/// Runs the Table 5 / Table 6 experiment — see [`run_table3`] for the
/// job-id scheme and the isolation contract.
pub fn run_table5(cfg: &SweepConfig) -> Vec<Table5Row> {
    let devs = devices::ibm_devices();
    let circuits: Vec<Circuit> = REVLIB_BENCHMARKS
        .iter()
        .map(RevlibBenchmark::circuit)
        .collect();
    let pairs = job_pairs(circuits.len(), devs.len());
    let cells = sweep_cells(&pairs, cfg, |job, &(b, d)| {
        map_benchmark(&circuits[b], &devs[d], cfg, Some(job as u64))
    });
    REVLIB_BENCHMARKS
        .iter()
        .enumerate()
        .map(|(i, b)| Table5Row {
            benchmark: *b,
            cells: cells[i * devs.len()..(i + 1) * devs.len()].to_vec(),
        })
        .collect()
}

/// Renders Table 5 (mappings) as markdown.
pub fn render_table5(rows: &[Table5Row]) -> String {
    let dev_names = device_names();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Ftn. | Qubits | Largest | Gates | Paper T | {} |",
        dev_names.join(" | ")
    );
    let _ = writeln!(out, "|{}", "---|".repeat(5 + dev_names.len()));
    for r in rows {
        let cells: Vec<String> = r.cells.iter().map(fmt_cell).collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            r.benchmark.name,
            r.benchmark.qubits,
            r.benchmark.largest_gate,
            r.benchmark.gate_count,
            r.benchmark.paper_t,
            cells.join(" | ")
        );
    }
    out
}

/// Renders Table 6 (percent cost decrease of the Table 5 mappings).
pub fn render_table6(rows: &[Table5Row]) -> String {
    let names: Vec<String> = rows.iter().map(|r| r.benchmark.name.to_string()).collect();
    let cells: Vec<&[Cell]> = rows.iter().map(|r| r.cells.as_slice()).collect();
    render_pct_table(&names, &cells, &[5.48, 29.56, 6.40, 26.51, 19.08])
}

// ---------------------------------------------------------------------------
// Tables 7 and 8
// ---------------------------------------------------------------------------

/// One Table 8 row: a Table 7 benchmark compiled for the 96-qubit machine.
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// The benchmark.
    pub benchmark: BigBenchmark,
    /// Compilation outcome (mapped on the 96-qubit machine unless a
    /// budget or injected fault intervened).
    pub cell: Cell,
}

/// Runs the Table 8 experiment on the Fig. 7 machine, one job per
/// benchmark (job id = benchmark index) — see [`run_table3`] for the
/// isolation contract.
pub fn run_table8(cfg: &SweepConfig) -> Vec<Table8Row> {
    let d = devices::qc96();
    let circuits: Vec<Circuit> = BIG_BENCHMARKS.iter().map(BigBenchmark::circuit).collect();
    let cells = sweep_cells(&circuits, cfg, |job, c| {
        map_benchmark(c, &d, cfg, Some(job as u64))
    });
    BIG_BENCHMARKS
        .iter()
        .zip(cells)
        .map(|(b, cell)| Table8Row {
            benchmark: *b,
            cell,
        })
        .collect()
}

/// Renders Table 7 (benchmark contents) as markdown.
pub fn render_table7() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| Name | Gate | Controls | Target |");
    let _ = writeln!(out, "|---|---|---|---|");
    for b in BIG_BENCHMARKS {
        for (k, g) in b.circuit().gates().iter().enumerate() {
            if let qsyn_gate::Gate::Mct { controls, target } = g {
                let ctl: Vec<String> = controls.iter().map(|q| format!("q{q}")).collect();
                let _ = writeln!(
                    out,
                    "| {} | {}: T{} | {} | q{} |",
                    if k == 0 { b.name } else { "" },
                    k + 1,
                    b.gate_size,
                    ctl.join(", "),
                    target
                );
            }
        }
    }
    out
}

/// Renders Table 8 as markdown, paper values side by side.
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Name | Unopt ours (T/g/cost) | Unopt paper | Opt ours | Opt paper | % dec ours | % dec paper | verified | seconds |"
    );
    let _ = writeln!(out, "|{}", "---|".repeat(9));
    let mut pct_sum = 0.0;
    let mut mapped = 0usize;
    for r in rows {
        let b = &r.benchmark;
        let Some(m) = r.cell.metrics() else {
            let status = match &r.cell {
                Cell::NotApplicable => "N/A".to_string(),
                Cell::Failed(msg) => format!("FAILED: {msg}"),
                Cell::Mapped(_) => unreachable!(),
            };
            let _ = writeln!(out, "| {} | {status} | | | | | | | |", b.name);
            continue;
        };
        pct_sum += m.pct_decrease;
        mapped += 1;
        let verified = if m.unverified {
            "UNVERIFIED".to_string()
        } else {
            m.verified.to_string()
        };
        let _ = writeln!(
            out,
            "| {} | {}/{}/{:.0} | {}/{}/{:.0} | {}/{}/{:.0} | {}/{}/{:.0} | {:.2} | {:.2} | {} | {:.2} |",
            b.name,
            m.unopt.0, m.unopt.1, m.unopt.2,
            b.paper_unopt.0, b.paper_unopt.1, b.paper_unopt.2,
            m.opt.0, m.opt.1, m.opt.2,
            b.paper_opt.0, b.paper_opt.1, b.paper_opt.2,
            m.pct_decrease,
            b.paper_pct,
            verified,
            m.seconds
        );
    }
    let _ = writeln!(
        out,
        "| Average | | | | | {:.2} | 39.54 | | |",
        if mapped == 0 {
            0.0
        } else {
            pct_sum / mapped as f64
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revlib::R3_17_14;

    /// A sweep with verification on or off and nothing else set.
    fn sweep(verify: bool, trace: Option<Arc<dyn TraceSink>>, jobs: usize) -> SweepConfig {
        SweepConfig {
            options: CompileOptions {
                verify,
                ..CompileOptions::default()
            },
            trace,
            jobs,
            inject: None,
        }
    }

    #[test]
    fn table2_is_exact() {
        for row in run_table2() {
            assert!(
                (row.complexity - row.paper_complexity).abs() < 1e-9,
                "{}",
                row.name
            );
        }
        let text = render_table2(&run_table2());
        assert!(text.contains("ibmqx2"));
        assert!(text.contains("0.3"));
    }

    #[test]
    fn map_benchmark_reports_metrics() {
        let d = devices::ibmqx4();
        let cell = map_benchmark(&R3_17_14.circuit(), &d, &sweep(true, None, 1), None);
        let m = cell.metrics().expect("r3_17_14 maps on ibmqx4");
        assert!(m.verified);
        assert!(!m.unverified);
        assert!(m.unopt.2 >= m.opt.2, "optimization never raises cost");
        assert_eq!(m.unopt.0, 14, "two Toffolis = 14 T");
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn traced_map_benchmark_streams_passes_and_matches_untraced() {
        let d = devices::ibmqx4();
        let c = R3_17_14.circuit();
        let sink = Arc::new(qsyn_trace::TableSink::new());
        let traced_cell = map_benchmark(&c, &d, &sweep(true, Some(sink.clone()), 1), None);
        let traced = traced_cell.metrics().unwrap();
        let plain_cell = map_benchmark(&c, &d, &sweep(true, None, 1), None);
        let plain = plain_cell.metrics().unwrap();
        assert_eq!(traced.unopt, plain.unopt);
        assert_eq!(traced.opt, plain.opt);
        assert_eq!(traced.pct_decrease, plain.pct_decrease);
        // One event per Fig. 2 pass: place, decompose, route, optimize, verify.
        assert_eq!(sink.events().len(), 5);
    }

    fn same_metrics_ignoring_time(a: &Cell, b: &Cell) {
        match (a, b) {
            (Cell::NotApplicable, Cell::NotApplicable) => {}
            (Cell::Failed(x), Cell::Failed(y)) => assert_eq!(x, y),
            (Cell::Mapped(x), Cell::Mapped(y)) => {
                assert_eq!(x.unopt, y.unopt);
                assert_eq!(x.opt, y.opt);
                assert_eq!(x.pct_decrease, y.pct_decrease);
                assert_eq!(x.verified, y.verified);
                assert_eq!(x.unverified, y.unverified);
            }
            _ => panic!("outcome mismatch between serial and parallel sweeps"),
        }
    }

    #[test]
    fn parallel_table5_sweep_matches_serial() {
        let serial = run_table5(&sweep(false, None, 1));
        let par = run_table5(&sweep(false, None, 4));
        assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.benchmark.name, b.benchmark.name);
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                same_metrics_ignoring_time(ca, cb);
            }
        }
    }

    #[test]
    fn parallel_sweep_stamps_row_major_job_ids() {
        let sink = Arc::new(qsyn_trace::TableSink::new());
        let rows = run_table5(&sweep(false, Some(sink.clone()), 4));
        let n_devices = devices::ibm_devices().len();
        let n_jobs = rows.len() * n_devices;
        let events = sink.events();
        assert!(!events.is_empty());
        for e in &events {
            let job = e.job.expect("sweep events carry a job id") as usize;
            assert!(job < n_jobs, "job {job} out of range {n_jobs}");
        }
        // Per job, events arrive in Fig. 2 order even when the stream as a
        // whole is interleaved across workers.
        for job in 0..n_jobs as u64 {
            let passes: Vec<_> = events
                .iter()
                .filter(|e| e.job == Some(job))
                .map(|e| e.pass)
                .collect();
            let order = qsyn_trace::Pass::FIG2_ORDER;
            let mut cursor = 0;
            for p in &passes {
                let pos = order[cursor..]
                    .iter()
                    .position(|o| o == p)
                    .expect("per-job passes follow Fig. 2 order");
                cursor += pos + 1;
            }
        }
    }

    #[test]
    fn map_benchmark_returns_na_for_too_wide() {
        let d = devices::ibmqx2();
        let mut too_wide = Circuit::new(6);
        too_wide.push(qsyn_gate::Gate::x(5));
        assert_eq!(
            map_benchmark(&too_wide, &d, &sweep(false, None, 1), None),
            Cell::NotApplicable
        );
    }

    #[test]
    fn strict_node_budget_yields_failed_cell_not_panic() {
        let mut cfg = sweep(true, None, 1);
        cfg.options.set_node_budget(2).unwrap();
        cfg.options.set_strict_verify(true);
        let cell = map_benchmark(&R3_17_14.circuit(), &devices::ibmqx4(), &cfg, None);
        let msg = cell.failure().expect("strict tiny budget must fail");
        assert!(msg.contains("budget"), "{msg}");
    }

    #[test]
    fn degraded_node_budget_maps_with_explicit_unverified() {
        let mut cfg = sweep(true, None, 1);
        cfg.options.set_node_budget(2).unwrap();
        let cell = map_benchmark(&R3_17_14.circuit(), &devices::ibmqx4(), &cfg, None);
        let m = cell.metrics().expect("degrade mode still maps");
        assert!(!m.verified);
        assert!(m.unverified, "must be loud about the skipped proof");
    }

    #[test]
    fn tables_3_and_5_mark_degraded_cells() {
        let metrics = |unverified: bool| MappingMetrics {
            unopt: (7, 20, 30.0),
            opt: (7, 18, 27.0),
            pct_decrease: 10.0,
            verified: !unverified,
            unverified,
            seconds: 0.0,
        };
        let cells = vec![Cell::Mapped(metrics(false)), Cell::Mapped(metrics(true))];
        let t3 = render_table3(&[Table3Row {
            function: STG_FUNCTIONS[0],
            tech_independent: (7, 18, 27.0),
            cells: cells.clone(),
        }]);
        let t5 = render_table5(&[Table5Row {
            benchmark: R3_17_14,
            cells,
        }]);
        for table in [t3, t5] {
            let row = table.lines().last().unwrap();
            assert_eq!(row.matches("UNVERIFIED").count(), 1, "{row}");
            assert!(
                row.contains("7/18/27.00 | 7/20/30.00"),
                "proven cell unmarked: {row}"
            );
        }
    }

    #[test]
    fn injected_panic_is_isolated_to_one_row() {
        use qsyn_core::{FaultKind, FaultSpec};
        let cfg = SweepConfig {
            inject: Some(FaultSpec {
                pass: qsyn_trace::Pass::Route,
                kind: FaultKind::Panic,
            }),
            ..sweep(false, None, 4)
        };
        let rows = run_table5(&cfg);
        assert_eq!(rows.len(), REVLIB_BENCHMARKS.len(), "one row per benchmark");
        let cells: Vec<&Cell> = rows.iter().flat_map(|r| &r.cells).collect();
        // Job 0 (first benchmark on the first device) carries the fault...
        let msg = cells[0].failure().expect("job 0 is poisoned");
        assert!(msg.contains("injected fault"), "{msg}");
        // ...and it is the only failure; every other job completed.
        assert_eq!(cells.iter().filter(|c| c.is_failed()).count(), 1);
        assert!(cells[1..].iter().any(|c| c.metrics().is_some()));
    }

    #[test]
    fn injected_budget_fault_is_a_structured_failure() {
        use qsyn_core::{FaultKind, FaultSpec};
        let cfg = SweepConfig {
            inject: Some(FaultSpec {
                pass: qsyn_trace::Pass::Decompose,
                kind: FaultKind::Budget,
            }),
            ..sweep(false, None, 1)
        };
        let cell = map_benchmark(&R3_17_14.circuit(), &devices::ibmqx4(), &cfg, Some(0));
        let msg = cell.failure().unwrap();
        assert!(msg.contains("budget exceeded"), "{msg}");
        // Other job ids are untouched by the injection.
        let clean = map_benchmark(&R3_17_14.circuit(), &devices::ibmqx4(), &cfg, Some(3));
        assert!(clean.metrics().is_some());
    }

    #[test]
    fn tech_independent_small_function() {
        let f = crate::stg::stg_by_id("3").unwrap();
        let (t, g, cost) = tech_independent_metrics(&f.cascade());
        // #3 is the linear function x0: no T gates at all.
        assert_eq!(t, 0);
        assert!(g <= 3);
        assert!(cost <= 4.0);
    }

    #[test]
    fn average_pct_ignores_na_and_failed() {
        let cells: Vec<Cell> = vec![
            Cell::Mapped(MappingMetrics {
                unopt: (0, 0, 10.0),
                opt: (0, 0, 5.0),
                pct_decrease: 50.0,
                verified: true,
                unverified: false,
                seconds: 0.0,
            }),
            Cell::NotApplicable,
            Cell::Failed("poisoned".into()),
        ];
        let rows: Vec<&[Cell]> = vec![&cells];
        let avg = average_pct_per_device(&rows, 3);
        assert_eq!(avg, vec![50.0, 0.0, 0.0]);
    }

    #[test]
    fn render_table7_lists_all_twenty_gates() {
        let text = render_table7();
        // 2 header lines + 20 gate rows (4 per benchmark, 5 benchmarks).
        assert_eq!(text.lines().count(), 22);
        assert!(text.contains("T6_b"));
        assert!(text.contains("q85"));
    }
}
