//! Run the Table 5-style experiment over a user-supplied directory of
//! circuit files (`.real`, `.qc`, `.qasm`, `.pla`) — point the harness at
//! your own benchmark suite.
//!
//! ```text
//! cargo run --release --bin suite -- <dir> [--jobs N] [device ...]
//! ```
//!
//! `--jobs N` fans the (circuit, device) compilations across N worker
//! threads (default: all CPUs); the table is printed in directory order
//! regardless of which job finished first.

use qsyn_arch::{devices, CostModel, TransmonCost};
use qsyn_bench::par::{jobs_arg, par_map};
use qsyn_circuit::Circuit;
use qsyn_core::{load_circuit, Args, CompileError, Compiler};
use std::path::Path;

/// Loads one circuit file, named after its file stem.
fn load(path: &Path) -> Result<Circuit, String> {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    Ok(load_circuit(path)?.with_name(name))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = Args::parse(&raw, &[], &["jobs"]).and_then(|args| Ok((jobs_arg(&args)?, args)));
    let (jobs, args) = parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut positional = args.positional.into_iter();
    let Some(dir) = positional.next() else {
        eprintln!("usage: suite <dir> [--jobs N] [device ...]");
        std::process::exit(2);
    };
    let device_names: Vec<String> = positional.collect();
    let devs: Vec<_> = if device_names.is_empty() {
        devices::ibm_devices()
    } else {
        device_names
            .iter()
            .map(|n| {
                devices::device_by_name(n).unwrap_or_else(|| {
                    eprintln!("error: unknown device `{n}`");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        eprintln!("error: {dir}: {e}");
        std::process::exit(1);
    });
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("real" | "qc" | "qasm" | "pla")
            )
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no circuit files in {dir}");
        std::process::exit(1);
    }

    let circuits: Vec<Circuit> = paths
        .iter()
        .filter_map(|path| match load(path) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("skipping {e}");
                None
            }
        })
        .collect();

    let cost = TransmonCost::default();
    // One job per (circuit, device) pair, row-major so output order is the
    // directory order no matter how the pool schedules them.
    let pairs: Vec<(usize, usize)> = (0..circuits.len())
        .flat_map(|c| (0..devs.len()).map(move |d| (c, d)))
        .collect();
    let cells: Vec<String> = par_map(&pairs, jobs, |_, &(c, d)| {
        let circuit = &circuits[c];
        match Compiler::new(devs[d].clone()).compile(circuit) {
            Ok(r) => {
                let (u, o) = (r.unoptimized.stats(), r.optimized.stats());
                assert_eq!(r.verified, Some(true), "verification failed");
                format!(
                    " {}/{}/{:.1} -> {}/{}/{:.1}, {:.1}% |",
                    u.t_count,
                    u.volume,
                    cost.cost(&u),
                    o.t_count,
                    o.volume,
                    cost.cost(&o),
                    r.percent_cost_decrease(&cost)
                )
            }
            Err(CompileError::TooWide { .. }) | Err(CompileError::NoAncilla { .. }) => {
                " N/A |".to_string()
            }
            Err(e) => panic!("{:?}: {e}", circuit.name()),
        }
    });

    print!("| circuit | qubits | gates |");
    for d in &devs {
        print!(" {} (T/g/cost -> T/g/cost, %dec) |", d.name());
    }
    println!();
    println!("|{}", "---|".repeat(3 + devs.len()));
    for (c, circuit) in circuits.iter().enumerate() {
        print!(
            "| {} | {} | {} |",
            circuit.name().unwrap_or("?"),
            circuit.n_qubits(),
            circuit.len()
        );
        for d in 0..devs.len() {
            print!("{}", cells[c * devs.len() + d]);
        }
        println!();
    }
}
