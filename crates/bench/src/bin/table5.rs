//! Regenerates paper Table 5: RevLib Toffoli cascades mapped to the five
//! IBM devices. Pass `--no-verify` to skip QMDD checks and `--jobs N` to
//! fan the sweep across N worker threads (default: all CPUs). Resource
//! governance flags (`--node-budget`, `--deadline`, `--strict-verify`,
//! `--inject-fault`) are documented in docs/ROBUSTNESS.md.

use qsyn_bench::report::{count_failed, render_table5, render_table6, run_table5, SweepConfig};

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
        "Table 5: RevLib Toffoli cascades on IBM devices (verify = {}, jobs = {})\n",
        cfg.options.verify, cfg.jobs
    );
    let rows = run_table5(&cfg);
    print!("{}", render_table5(&rows));
    println!("\nTable 6: percent cost decrease after optimization\n");
    print!("{}", render_table6(&rows));
    println!(
        "\nfailed jobs: {}",
        count_failed(rows.iter().flat_map(|r| &r.cells))
    );
}
