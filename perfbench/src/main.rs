//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--qsyn PATH] [--revision REV]`
//!
//! Prints the run header, the output digest, any failed check and every
//! metric with its unit, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 only when
//! every output check passed.

use perfbench::{metrics_complete, result_line, run, Config, WORKLOADS};
use qsyn_trace::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--qsyn PATH] [--revision REV]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut qsyn, mut revision) = (None, "unknown".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--qsyn" => qsyn = Some(PathBuf::from(value)),
            "--revision" => revision = value.clone(),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    };
    let work_dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
    let cfg = Config {
        seed,
        seconds,
        trace,
        qsyn,
        work_dir: work_dir.clone(),
    };
    let report = run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    // Succeeds only once no other run is using the parent.
    let _ = std::fs::remove_dir(".bench_work");
    let Some(mut report) = report else {
        return usage(&format!("unknown workload {workload}"));
    };
    if !metrics_complete(&report, trace) {
        report
            .problems
            .push("the run did not report its full metric table".to_string());
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut header = vec![
        ("workload", workload.clone()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("revision", revision),
    ];
    header.extend(report.header.iter().cloned());
    let header = Value::Obj(
        header
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v)))
            .collect(),
    );
    println!("perfbench header {header}");
    println!("perfbench digest {workload} {}", report.digest);
    for problem in &report.problems {
        println!("perfbench check FAILED {problem}");
    }
    for m in &report.metrics {
        println!("perfbench metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
