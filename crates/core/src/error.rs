//! Compilation errors.

use crate::budget::BudgetResource;
use qsyn_trace::Pass;
use std::error::Error;
use std::fmt;

/// Reasons the technology-dependent synthesis can fail.
///
/// The paper's tables mark such cases `N/A` — e.g. a 6-qubit benchmark on a
/// 5-qubit machine, or a generalized Toffoli whose decomposition needs an
/// ancilla line the device cannot supply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The circuit has more lines than the device has qubits.
    TooWide {
        /// Lines required by the circuit.
        needed: usize,
        /// Qubits available on the device.
        available: usize,
    },
    /// A generalized Toffoli decomposition needs at least one line outside
    /// the gate's own support, and none exists.
    NoAncilla {
        /// Number of controls of the offending gate.
        controls: usize,
    },
    /// No SWAP route exists between two qubits (disconnected coupling map).
    RouteNotFound {
        /// Requested CNOT control.
        control: usize,
        /// Requested CNOT target.
        target: usize,
    },
    /// A technology-independent gate survived to a stage that only accepts
    /// mapped gates (internal pipeline ordering error).
    UnmappedGate(String),
    /// The built-in QMDD equivalence check rejected the compiled output.
    VerificationFailed,
    /// A [`CompileBudget`](crate::CompileBudget) cap was hit: the compile
    /// stopped cleanly instead of growing without bound.
    BudgetExceeded {
        /// The pass that blew the cap.
        pass: Pass,
        /// Which resource ran out.
        resource: BudgetResource,
        /// The configured ceiling (ms for wall clock, counts otherwise).
        limit: u64,
        /// Observed usage when the cap tripped.
        used: u64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooWide { needed, available } => write!(
                f,
                "circuit needs {needed} qubits but the device has {available}"
            ),
            CompileError::NoAncilla { controls } => write!(
                f,
                "generalized Toffoli with {controls} controls needs an ancilla line \
                 outside its support and the device has none"
            ),
            CompileError::RouteNotFound { control, target } => write!(
                f,
                "no SWAP route from q{control} to q{target}; coupling map is disconnected"
            ),
            CompileError::UnmappedGate(g) => {
                write!(f, "gate `{g}` reached a stage that requires mapped gates")
            }
            CompileError::VerificationFailed => {
                f.write_str("QMDD equivalence check failed: output differs from specification")
            }
            CompileError::BudgetExceeded {
                pass,
                resource,
                limit,
                used,
            } => write!(
                f,
                "compile budget exceeded in {pass} pass: {resource} used {used} of limit {limit}"
            ),
        }
    }
}

impl Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CompileError::TooWide {
            needed: 6,
            available: 5,
        };
        assert!(e.to_string().contains("6 qubits"));
        assert!(CompileError::NoAncilla { controls: 4 }
            .to_string()
            .contains("ancilla"));
        assert!(CompileError::RouteNotFound {
            control: 1,
            target: 2
        }
        .to_string()
        .contains("SWAP route"));
        assert!(CompileError::VerificationFailed
            .to_string()
            .contains("QMDD"));
        assert!(CompileError::UnmappedGate("T5".into())
            .to_string()
            .contains("T5"));
        let b = CompileError::BudgetExceeded {
            pass: Pass::Verify,
            resource: BudgetResource::QmddNodes,
            limit: 1024,
            used: 1090,
        };
        let msg = b.to_string();
        assert!(msg.contains("verify"), "{msg}");
        assert!(msg.contains("qmdd-nodes"), "{msg}");
        assert!(msg.contains("1090"), "{msg}");
        assert!(msg.contains("1024"), "{msg}");
    }
}
