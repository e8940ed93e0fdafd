//! Benchmark workloads and the experiment harness reproducing every table
//! of the paper's evaluation (Section 5).
//!
//! * [`stg`] — the "Optimal Single-target Gates" suite (Table 3/4);
//! * [`revlib`] — the RevLib Toffoli cascades (Table 5/6);
//! * [`big`] — the 96-qubit generalized-Toffoli cascades (Table 7/8);
//! * [`report`] — runs each experiment and renders the paper's tables with
//!   the paper's own numbers side by side.
//!
//! Binaries: `table2` .. `table8` regenerate individual tables; `fig5`
//! walks the paper's CTR example; `experiments` regenerates the full
//! EXPERIMENTS.md body.
//!
//! # Examples
//!
//! ```
//! use qsyn_bench::report::{render_table2, run_table2};
//! let table = render_table2(&run_table2());
//! assert!(table.contains("ibmqx5"));
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod arith;
pub mod big;
pub mod noise;
pub mod par;
pub mod random;
pub mod report;
pub mod revlib;
pub mod stg;
