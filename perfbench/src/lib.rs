//! The repository's benchmark: four seeded workloads that time the qsyn
//! compiler end to end, check every output, and, in a separate traced
//! run, attribute the time to the compiler's layers by calling each
//! layer's public functions from benchmark code. README.md explains the
//! workloads and metrics; `run.py` builds and runs it.

pub mod common;
pub mod metrics;
pub mod mirror;
pub mod paper;
pub mod serve;
pub mod stream;

use common::Report;
use qsyn_trace::json::Value;
use std::path::PathBuf;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["paper-suite", "qc96", "grid-stream", "serve-closed"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// The `qsyn` binary serve-closed spawns.
    pub qsyn: Option<PathBuf>,
    /// Scratch directory for daemon caches and metrics files.
    pub work_dir: PathBuf,
}

/// Runs one workload; `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config) -> Option<Report> {
    Some(match workload {
        "paper-suite" => paper::run(paper::paper_suite, cfg),
        "qc96" => paper::run(paper::qc96_suite, cfg),
        "grid-stream" => stream::run(cfg),
        "serve-closed" => serve::run(cfg),
        _ => return None,
    })
}

/// Whether every metric of the run's table was reported exactly once.
pub fn metrics_complete(report: &Report, trace: bool) -> bool {
    let table = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    report.metrics.len() == table.len()
        && table
            .iter()
            .all(|(name, _)| report.metrics.iter().filter(|m| m.name == *name).count() == 1)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        (
            "correct".to_string(),
            Value::Bool(report.problems.is_empty()),
        ),
        ("attempted".to_string(), Value::Num(report.attempted as f64)),
        ("failed".to_string(), Value::Num(report.failed as f64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_string()
}
