//! The "Optimal Single-target Gates" benchmark suite (paper Table 3).
//!
//! The original suite \[23\] (quantumlib.stationq.com, now offline) provided
//! proven-optimal Clifford+T `.qc` circuits for single-target gates of 3-6
//! qubits, named by the hexadecimal truth table of their control function.
//! This module regenerates circuits for the *same functions* with the
//! workspace's own ESOP front-end, so the experiment exercises identical
//! code paths; absolute technology-independent gate counts differ from the
//! (optimal) originals, which EXPERIMENTS.md records side by side.

use qsyn_circuit::Circuit;
use qsyn_esop::{synthesize_single_target, TruthTable};

/// One entry of the Table 3 suite: the paper's function id, its qubit
/// count, and the technology-independent reference metrics the paper lists
/// (T-count, gate count, Eqn. 2 cost of the optimal circuit from \[23\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StgFunction {
    /// Paper id, e.g. `"033f"` (printed as `#033f`).
    pub id: &'static str,
    /// Total qubits of the single-target gate (control variables + 1).
    pub qubits: usize,
    /// Paper's technology-independent T-count.
    pub paper_t: usize,
    /// Paper's technology-independent total gate count.
    pub paper_gates: usize,
    /// Paper's technology-independent Eqn. 2 cost.
    pub paper_cost: f64,
}

/// The 24 functions of paper Table 3, in row order.
pub const STG_FUNCTIONS: [StgFunction; 24] = [
    StgFunction {
        id: "1",
        qubits: 3,
        paper_t: 7,
        paper_gates: 17,
        paper_cost: 22.25,
    },
    StgFunction {
        id: "3",
        qubits: 3,
        paper_t: 0,
        paper_gates: 3,
        paper_cost: 3.25,
    },
    StgFunction {
        id: "01",
        qubits: 5,
        paper_t: 15,
        paper_gates: 51,
        paper_cost: 63.75,
    },
    StgFunction {
        id: "03",
        qubits: 4,
        paper_t: 7,
        paper_gates: 20,
        paper_cost: 25.25,
    },
    StgFunction {
        id: "07",
        qubits: 5,
        paper_t: 16,
        paper_gates: 60,
        paper_cost: 75.0,
    },
    StgFunction {
        id: "0f",
        qubits: 4,
        paper_t: 0,
        paper_gates: 3,
        paper_cost: 3.25,
    },
    StgFunction {
        id: "17",
        qubits: 4,
        paper_t: 7,
        paper_gates: 43,
        paper_cost: 51.75,
    },
    StgFunction {
        id: "0001",
        qubits: 6,
        paper_t: 40,
        paper_gates: 186,
        paper_cost: 233.0,
    },
    StgFunction {
        id: "0003",
        qubits: 6,
        paper_t: 15,
        paper_gates: 66,
        paper_cost: 83.0,
    },
    StgFunction {
        id: "0007",
        qubits: 6,
        paper_t: 47,
        paper_gates: 246,
        paper_cost: 304.25,
    },
    StgFunction {
        id: "000f",
        qubits: 5,
        paper_t: 7,
        paper_gates: 21,
        paper_cost: 27.5,
    },
    StgFunction {
        id: "0017",
        qubits: 6,
        paper_t: 23,
        paper_gates: 129,
        paper_cost: 159.0,
    },
    StgFunction {
        id: "001f",
        qubits: 6,
        paper_t: 43,
        paper_gates: 194,
        paper_cost: 244.5,
    },
    StgFunction {
        id: "003f",
        qubits: 6,
        paper_t: 16,
        paper_gates: 73,
        paper_cost: 92.25,
    },
    StgFunction {
        id: "007f",
        qubits: 6,
        paper_t: 40,
        paper_gates: 189,
        paper_cost: 238.5,
    },
    StgFunction {
        id: "00ff",
        qubits: 5,
        paper_t: 0,
        paper_gates: 3,
        paper_cost: 3.25,
    },
    StgFunction {
        id: "0117",
        qubits: 6,
        paper_t: 79,
        paper_gates: 401,
        paper_cost: 498.0,
    },
    StgFunction {
        id: "011f",
        qubits: 6,
        paper_t: 27,
        paper_gates: 136,
        paper_cost: 169.5,
    },
    StgFunction {
        id: "013f",
        qubits: 6,
        paper_t: 48,
        paper_gates: 240,
        paper_cost: 299.5,
    },
    StgFunction {
        id: "017f",
        qubits: 6,
        paper_t: 80,
        paper_gates: 359,
        paper_cost: 455.0,
    },
    StgFunction {
        id: "033f",
        qubits: 5,
        paper_t: 7,
        paper_gates: 49,
        paper_cost: 60.75,
    },
    StgFunction {
        id: "0356",
        qubits: 5,
        paper_t: 12,
        paper_gates: 42,
        paper_cost: 54.75,
    },
    StgFunction {
        id: "0357",
        qubits: 6,
        paper_t: 61,
        paper_gates: 266,
        paper_cost: 336.5,
    },
    StgFunction {
        id: "035f",
        qubits: 6,
        paper_t: 23,
        paper_gates: 107,
        paper_cost: 135.5,
    },
];

impl StgFunction {
    /// The control function's truth table (hex id over `qubits - 1`
    /// variables).
    pub fn truth_table(&self) -> TruthTable {
        TruthTable::from_hex(self.qubits - 1, self.id)
            .expect("table 3 ids are valid hex of the right width")
    }

    /// Synthesizes the technology-independent single-target gate cascade
    /// for this function (NOT / CNOT / Toffoli / generalized Toffoli).
    pub fn cascade(&self) -> Circuit {
        synthesize_single_target(&self.truth_table()).with_name(format!("#{}", self.id))
    }
}

/// Looks up a Table 3 function by paper id.
pub fn stg_by_id(id: &str) -> Option<StgFunction> {
    STG_FUNCTIONS.iter().copied().find(|f| f.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_24_functions_like_table3() {
        assert_eq!(STG_FUNCTIONS.len(), 24);
    }

    #[test]
    fn hex_ids_parse_at_declared_widths() {
        for f in STG_FUNCTIONS {
            let tt = f.truth_table();
            assert_eq!(tt.n_vars(), f.qubits - 1, "#{}", f.id);
        }
    }

    #[test]
    fn hex_id_width_matches_qubit_count() {
        // The id encodes 2^(qubits-1) table bits: 4 hex digits for 5
        // vars... exactly ceil(2^(n-1)/4) digits in the paper's naming.
        for f in STG_FUNCTIONS {
            let rows = 1usize << (f.qubits - 1);
            assert!(f.id.len() * 4 <= rows.max(4), "#{} digits", f.id);
        }
    }

    #[test]
    fn cascades_realize_their_functions() {
        for f in STG_FUNCTIONS.iter().filter(|f| f.qubits <= 5) {
            let tt = f.truth_table();
            let c = f.cascade();
            assert_eq!(c.n_qubits(), f.qubits);
            let n = tt.n_vars();
            for x in 0..(1u64 << n) {
                let out = c.permute_basis(x << 1);
                assert_eq!(out, x << 1 | tt.eval(x) as u64, "#{} at {x}", f.id);
            }
        }
    }

    #[test]
    fn six_qubit_cascades_realize_their_functions() {
        for f in STG_FUNCTIONS.iter().filter(|f| f.qubits == 6).take(4) {
            let tt = f.truth_table();
            let c = f.cascade();
            for x in 0..32u64 {
                let out = c.permute_basis(x << 1);
                assert_eq!(out, x << 1 | tt.eval(x) as u64, "#{}", f.id);
            }
        }
    }

    #[test]
    fn trivial_functions_are_tiny() {
        // #3 is f = !x0 — paper reports 0 T, 3 gates, cost 3.25, and the
        // negative-polarity single-cube cascade gives exactly that.
        let c = stg_by_id("3").unwrap().cascade();
        assert_eq!(c.len(), 3, "X, CNOT, X");
        assert_eq!(c.stats().t_count, 0);
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(stg_by_id("033f").unwrap().qubits, 5);
        assert!(stg_by_id("zzz").is_none());
    }
}
