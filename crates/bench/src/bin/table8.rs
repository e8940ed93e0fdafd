//! Regenerates paper Table 8: the Table 7 benchmarks compiled for the
//! 96-qubit Fig. 7 machine, unoptimized and optimized, with percent cost
//! decrease and QMDD verification. Pass `--no-verify` to skip the (wide)
//! miter equivalence checks and `--jobs N` to compile the benchmarks on N
//! worker threads (default: all CPUs). Resource governance flags
//! (`--node-budget`, `--deadline`, `--strict-verify`, `--inject-fault`)
//! are documented in docs/ROBUSTNESS.md.

use qsyn_bench::report::{count_failed, render_table8, run_table8, SweepConfig};

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
        "Table 8: 96-qubit QC benchmark compilation results (verify = {}, jobs = {})\n",
        cfg.options.verify, cfg.jobs
    );
    let rows = run_table8(&cfg);
    print!("{}", render_table8(&rows));
    println!(
        "\nfailed jobs: {}",
        count_failed(rows.iter().map(|r| &r.cell))
    );
}
