//! Regenerates paper Table 3: the "Optimal Single-target Gates" suite
//! mapped to the five IBM devices, unoptimized and optimized, with the
//! technology-independent reference forms. Pass `--no-verify` to skip the
//! built-in QMDD equivalence checks and `--jobs N` to fan the sweep across
//! N worker threads (default: all CPUs). Resource-governance flags
//! (`--node-budget`, `--deadline`, `--strict-verify`, `--inject-fault`)
//! are documented in docs/ROBUSTNESS.md.

use qsyn_bench::report::{count_failed, render_table3, render_table4, run_table3, SweepConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match SweepConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "Table 3: single-target gates on IBM devices (verify = {}, jobs = {})\n",
        cfg.options.verify, cfg.jobs
    );
    let rows = run_table3(&cfg);
    print!("{}", render_table3(&rows));
    println!("\nTable 4: percent cost decrease after optimization\n");
    print!("{}", render_table4(&rows));
    println!(
        "\nfailed jobs: {}",
        count_failed(rows.iter().flat_map(|r| &r.cells))
    );
}
