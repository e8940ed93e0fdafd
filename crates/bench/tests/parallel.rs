//! Determinism of the parallel sweep engine: fanning the same workload
//! across worker threads must be invisible in the results. Each (circuit x
//! device) job owns its own compiler and QMDD package, so gate sequences,
//! Eqn. 2 costs, and verification verdicts are bit-identical for any
//! `--jobs` value — only wall time changes.

use qsyn_arch::{devices, CostModel, TransmonCost};
use qsyn_bench::par::par_map;
use qsyn_bench::random::random_classical;
use qsyn_core::{CompileError, Compiler};

/// The observable outcome of one sweep job, with every field the tables
/// report derived from it.
#[derive(Debug, PartialEq)]
enum Outcome {
    Compiled {
        gates: Vec<qsyn_gate::Gate>,
        unopt_cost: f64,
        opt_cost: f64,
        pct_decrease: f64,
        verified: Option<bool>,
    },
    NotApplicable,
}

fn sweep(jobs: usize) -> Vec<Outcome> {
    let cost = TransmonCost::default();
    let cases: Vec<(qsyn_arch::Device, u64)> = devices::ibm_devices()
        .into_iter()
        .flat_map(|d| (0..6u64).map(move |seed| (d.clone(), seed)))
        .collect();
    par_map(&cases, jobs, |_, (device, seed)| {
        let lines = device.n_qubits().min(5);
        let circuit = random_classical(lines, 10, seed * 97 + 13);
        match Compiler::new(device.clone()).compile(&circuit) {
            Ok(r) => Outcome::Compiled {
                gates: r.optimized.gates().to_vec(),
                unopt_cost: cost.circuit_cost(&r.unoptimized),
                opt_cost: cost.circuit_cost(&r.optimized),
                pct_decrease: r.percent_cost_decrease(&cost),
                verified: r.verified,
            },
            Err(CompileError::NoAncilla { .. } | CompileError::TooWide { .. }) => {
                Outcome::NotApplicable
            }
            Err(e) => panic!("unexpected error on {}: {e}", device.name()),
        }
    })
}

#[test]
fn jobs_1_and_8_produce_identical_outcomes() {
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "job {i} diverged between --jobs 1 and --jobs 8");
    }
    // The sweep exercised real work: at least one compiled + verified job.
    assert!(serial.iter().any(|o| matches!(
        o,
        Outcome::Compiled {
            verified: Some(true),
            ..
        }
    )));
}

#[test]
fn forced_gc_sweeps_leave_verdicts_unchanged() {
    // GC stress: the same equivalence questions with collection disabled
    // vs. a watermark low enough to force repeated sweeps mid-check.
    for seed in 0..4u64 {
        let a = random_classical(5, 12, seed * 71 + 3);
        let mut b = a.clone();
        // A textually different but unitarily identical tail.
        b.push(qsyn_gate::Gate::t(0));
        b.push(qsyn_gate::Gate::tdg(0));
        let check = |gc_threshold| {
            let support = qsyn_qmdd::miter_support(&a, &b);
            let method = qsyn_qmdd::EquivMethod::Canonical;
            let budget = qsyn_qmdd::EquivBudget::with_gc_threshold(gc_threshold);
            qsyn_qmdd::try_equivalent_on(&support, &a, &b, method, budget).unwrap()
        };
        let (lax, forced) = (check(usize::MAX), check(64));
        assert!(lax.equivalent, "seed {seed}");
        assert_eq!(lax.equivalent, forced.equivalent, "seed {seed}");
        assert!(
            forced.gc_runs > 0,
            "seed {seed}: watermark 64 must force at least one sweep"
        );
    }
}
