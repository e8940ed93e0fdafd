//! Randomized stress run: compile many seeded random circuits onto the
//! whole device library, QMDD-verify every output, and summarize. Doubles
//! as a fuzzer for the pipeline — any verification failure or unexpected
//! error aborts loudly.
//!
//! ```text
//! cargo run --release --bin stress [-- <count-per-device> [--jobs N]]
//! ```
//!
//! `--jobs N` fans the (device, seed) compilations across N worker threads
//! (default: all CPUs). The aggregate summary is deterministic for every N
//! because each job is an independent seeded compilation.

use qsyn_arch::{devices, TransmonCost};
use qsyn_bench::par::{jobs_arg, par_map};
use qsyn_bench::random::random_classical;
use qsyn_core::{Args, CompileError, Compiler};

enum Outcome {
    Compiled { expansion: f64, improved: bool },
    NotApplicable,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Args::parse(&raw, &[], &["jobs"]).and_then(|args| {
        let count = match args.positional.as_slice() {
            [] => 25,
            [n] => n
                .parse::<u64>()
                .map_err(|_| format!("bad count `{n}` (want circuits per device)"))?,
            [_, extra, ..] => return Err(format!("unexpected argument `{extra}`")),
        };
        Ok((count, jobs_arg(&args)?))
    });
    let (count, jobs) = parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let cost = TransmonCost::default();

    let cases: Vec<(qsyn_arch::Device, u64)> = devices::ibm_devices()
        .into_iter()
        .flat_map(|d| (0..count).map(move |seed| (d.clone(), seed)))
        .collect();

    let outcomes = par_map(&cases, jobs, |_, (device, seed)| {
        let lines = device.n_qubits().min(6);
        let circuit = random_classical(lines, 12, seed * 31 + 7);
        match Compiler::new(device.clone()).compile(&circuit) {
            Ok(r) => {
                assert_eq!(
                    r.verified,
                    Some(true),
                    "VERIFICATION FAILED: seed {seed} on {}",
                    device.name()
                );
                Outcome::Compiled {
                    expansion: r.optimized.len() as f64 / circuit.len() as f64,
                    improved: r.percent_cost_decrease(&cost) > 0.0,
                }
            }
            Err(CompileError::NoAncilla { .. }) | Err(CompileError::TooWide { .. }) => {
                Outcome::NotApplicable
            }
            Err(e) => panic!("unexpected error: seed {seed} on {}: {e}", device.name()),
        }
    });

    let mut compiled = 0usize;
    let mut na = 0usize;
    let mut improved = 0usize;
    let mut expansion_sum = 0.0f64;
    for o in &outcomes {
        match o {
            Outcome::Compiled {
                expansion,
                improved: imp,
            } => {
                compiled += 1;
                expansion_sum += expansion;
                if *imp {
                    improved += 1;
                }
            }
            Outcome::NotApplicable => na += 1,
        }
    }

    println!(
        "stress run: {} circuits per device x {} devices (jobs = {jobs})",
        count, 5
    );
    println!("  compiled + verified : {compiled}");
    println!("  N/A (legitimate)    : {na}");
    println!(
        "  improved by opt     : {improved} ({:.0}%)",
        improved as f64 / compiled as f64 * 100.0
    );
    println!(
        "  mean expansion      : x{:.1}",
        expansion_sum / compiled as f64
    );
    println!("all outputs QMDD-verified, no unexpected failures");
}
