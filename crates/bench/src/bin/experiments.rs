//! Runs the complete evaluation of the paper (Tables 2-8) and prints a
//! markdown report suitable for EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release --bin experiments > report.md
//! ```
//!
//! Pass `--no-verify` to skip the QMDD equivalence checks (they are part of
//! the paper's flow and on by default). Pass `--trace FILE` to stream one
//! JSON line per compiler pass of every benchmark mapping to FILE (each
//! line carries a job id so interleaved parallel streams stay parseable).
//! Pass `--jobs N` to fan the (circuit, device) jobs across N worker
//! threads (default: all CPUs); results are identical for every N.

use qsyn_bench::report::*;
use qsyn_core::Args;
use qsyn_trace::JsonlSink;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Args::parse(&raw, &["no-verify"], &["jobs", "trace"]).and_then(|args| {
        let mut cfg = SweepConfig::from_parsed(&args)?;
        if let Some(path) = args.value("trace") {
            let sink = JsonlSink::to_file(path).map_err(|e| format!("{path}: {e}"))?;
            cfg.trace = Some(Arc::new(sink));
        }
        Ok(cfg)
    });
    let cfg = parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (verify, jobs) = (cfg.options.verify, cfg.jobs);
    let t0 = Instant::now();

    println!("# qsyn experiment report\n");
    println!(
        "QMDD verification of every compiled output: **{}**\n",
        if verify { "on" } else { "off" }
    );
    println!("Sweep worker threads: **{jobs}**\n");

    println!("## Table 2 — device coupling complexity (exact)\n");
    print!("{}", render_table2(&run_table2()));

    println!("\n## Table 3 — single-target gates mapped to IBM devices\n");
    let t3 = Instant::now();
    let rows3 = run_table3(&cfg);
    print!("{}", render_table3(&rows3));
    println!("\n## Table 4 — percent cost decrease (single-target gates)\n");
    print!("{}", render_table4(&rows3));
    let t3 = t3.elapsed().as_secs_f64();

    println!("\n## Table 5 — RevLib Toffoli cascades mapped to IBM devices\n");
    let t5 = Instant::now();
    let rows5 = run_table5(&cfg);
    print!("{}", render_table5(&rows5));
    println!("\n## Table 6 — percent cost decrease (RevLib cascades)\n");
    print!("{}", render_table6(&rows5));
    let t5 = t5.elapsed().as_secs_f64();

    println!("\n## Table 7 — 96-qubit benchmark definitions\n");
    print!("{}", render_table7());

    println!("\n## Table 8 — 96-qubit compilation results\n");
    let t8 = Instant::now();
    let rows8 = run_table8(&cfg);
    print!("{}", render_table8(&rows8));
    let t8 = t8.elapsed().as_secs_f64();

    println!("\n## Runtime\n");
    println!("| Experiment | Wall time (s) |");
    println!("|---|---|");
    println!("| Tables 3+4 (24 functions x 5 devices) | {t3:.2} |");
    println!("| Tables 5+6 (5 cascades x 5 devices) | {t5:.2} |");
    println!("| Table 8 (5 cascades on qc96) | {t8:.2} |");
    println!("| Total | {:.2} |", t0.elapsed().as_secs_f64());
    if let Some(sink) = &cfg.trace {
        sink.flush();
    }
}
