//! The 96-qubit generalized-Toffoli benchmarks of paper Tables 7 and 8.
//!
//! Each benchmark `Tn_b` is a cascade of four `T_n` gates placed across the
//! Fig. 7 machine so consecutive gates share at least one qubit: gate `k`
//! (k = 1..4) controls on `q(20(k-1)+1) .. q(20(k-1)+n-1)` and targets
//! `q(20k+5)` — exactly the control/target lists of Table 7.

use qsyn_circuit::Circuit;
use qsyn_gate::Gate;

/// One Table 7/8 benchmark descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BigBenchmark {
    /// Paper row name (`T6_b` .. `T10_b`).
    pub name: &'static str,
    /// Qubits per gate (`n` of `T_n`), i.e. controls + target.
    pub gate_size: usize,
    /// Paper Table 8 unoptimized (T-count, gates, cost).
    pub paper_unopt: (usize, usize, f64),
    /// Paper Table 8 optimized (T-count, gates, cost).
    pub paper_opt: (usize, usize, f64),
    /// Paper Table 8 percent cost decrease.
    pub paper_pct: f64,
}

/// The five benchmarks of Tables 7 and 8, in row order, with the paper's
/// reported compilation results.
pub const BIG_BENCHMARKS: [BigBenchmark; 5] = [
    BigBenchmark {
        name: "T6_b",
        gate_size: 6,
        paper_unopt: (336, 17312, 19268.0),
        paper_opt: (336, 10156, 11359.0),
        paper_pct: 41.05,
    },
    BigBenchmark {
        name: "T7_b",
        gate_size: 7,
        paper_unopt: (448, 20112, 22400.0),
        paper_opt: (448, 12234, 13694.0),
        paper_pct: 38.87,
    },
    BigBenchmark {
        name: "T8_b",
        gate_size: 8,
        paper_unopt: (560, 21264, 23728.0),
        paper_opt: (560, 13134, 14746.0),
        paper_pct: 37.85,
    },
    BigBenchmark {
        name: "T9_b",
        gate_size: 9,
        paper_unopt: (672, 17696, 19784.0),
        paper_opt: (672, 11544, 13002.0),
        paper_pct: 34.28,
    },
    BigBenchmark {
        name: "T10_b",
        gate_size: 10,
        paper_unopt: (784, 17792, 19960.0),
        paper_opt: (784, 9518, 10846.0),
        paper_pct: 45.66,
    },
];

impl BigBenchmark {
    /// The Table 7 gate list: four `T_n` gates on the 96-qubit machine.
    ///
    /// Gate `k` (k = 0..3) has controls `q(20k+1) .. q(20k+n-1)` and target
    /// `q(20k+25)` — i.e. targets q25, q45, q65, q85 — so each gate shares
    /// its target region with the next gate's control block.
    pub fn circuit(&self) -> Circuit {
        let mut c = Circuit::new(96).with_name(self.name);
        let m = self.gate_size - 1; // controls per gate
        for k in 0..4usize {
            let base = 20 * k;
            let controls: Vec<usize> = (1..=m).map(|i| base + i).collect();
            let target = base + 25;
            c.push(Gate::mct(controls, target));
        }
        c
    }

    /// Expected T-count after decomposition with full dirty-ancilla chains:
    /// `4 gates x 4(m-2) Toffolis x 7 T` (matches the paper's Table 8
    /// column exactly).
    pub fn expected_t_count(&self) -> usize {
        let m = self.gate_size - 1;
        4 * (4 * (m - 2)) * 7
    }
}

/// Looks a Table 7/8 benchmark up by name.
pub fn big_by_name(name: &str) -> Option<BigBenchmark> {
    BIG_BENCHMARKS.iter().copied().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_control_and_target_lists() {
        let t6 = big_by_name("T6_b").unwrap().circuit();
        assert_eq!(t6.len(), 4);
        // First gate: controls q1..q5, target q25.
        assert_eq!(t6.gates()[0], Gate::mct(vec![1, 2, 3, 4, 5], 25));
        // Second gate: controls q21..q25, target q45 — shares q25.
        assert_eq!(t6.gates()[1], Gate::mct(vec![21, 22, 23, 24, 25], 45));
        // Fourth gate: controls q61..q65, target q85.
        assert_eq!(t6.gates()[3], Gate::mct(vec![61, 62, 63, 64, 65], 85));
    }

    #[test]
    fn consecutive_gates_share_a_qubit() {
        for b in BIG_BENCHMARKS {
            let c = b.circuit();
            for w in c.gates().windows(2) {
                assert!(w[0].overlaps(&w[1]), "{}: gates must chain", b.name);
            }
        }
    }

    #[test]
    fn t10_controls_match_table7() {
        let t10 = big_by_name("T10_b").unwrap().circuit();
        assert_eq!(
            t10.gates()[2],
            Gate::mct(vec![41, 42, 43, 44, 45, 46, 47, 48, 49], 65)
        );
    }

    #[test]
    fn expected_t_counts_match_table8() {
        for b in BIG_BENCHMARKS {
            assert_eq!(b.expected_t_count(), b.paper_unopt.0, "{}", b.name);
        }
    }

    #[test]
    fn circuits_are_classical_96_wide() {
        for b in BIG_BENCHMARKS {
            let c = b.circuit();
            assert_eq!(c.n_qubits(), 96);
            assert!(c.is_classical());
        }
    }
}
