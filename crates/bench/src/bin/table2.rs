//! Regenerates paper Table 2: IBM Q device details and coupling
//! complexity. This reproduction is exact — the metric is a deterministic
//! function of the published coupling maps.

use qsyn_bench::report::{render_table2, run_table2};

fn main() {
    println!("Table 2: IBM Q device details (coupling complexity)\n");
    print!("{}", render_table2(&run_table2()));
    println!(
        "\nqc96 (paper Fig. 7 reconstruction): {}",
        qsyn_arch::devices::qc96()
    );
}
