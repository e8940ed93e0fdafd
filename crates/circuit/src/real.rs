//! The RevLib `.real` reversible circuit format.
//!
//! Grammar subset (RevLib specification 2.0):
//!
//! ```text
//! .version 2.0
//! .numvars 4
//! .variables a b c d
//! .inputs / .outputs / .constants / .garbage      (informational)
//! .begin
//! t1 d            NOT on d
//! t2 a d          CNOT control a, target d
//! t3 a b d        Toffoli, last operand target
//! t5 a b c e d    generalized Toffoli
//! t2 -a d         negative control: expanded to X a; t2 a d; X a
//! f2 a b          SWAP
//! f3 a b c        Fredkin (controlled SWAP), first operand control
//! .end
//! ```
//!
//! Negative controls and Fredkin gates are expanded at parse time into the
//! NCT + SWAP vocabulary of [`Gate`], so downstream passes never see them.

use crate::circuit::Circuit;
use crate::error::ParseCircuitError;
use qsyn_gate::Gate;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses RevLib `.real` source into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`ParseCircuitError`] on unknown mnemonics, arity mismatches,
/// undeclared variables, or a missing `.numvars` header.
pub fn parse_real(src: &str) -> Result<Circuit, ParseCircuitError> {
    let mut numvars: Option<usize> = None;
    let mut vars: HashMap<String, usize> = HashMap::new();
    let mut gates: Vec<Gate> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let head = toks.next().expect("non-empty line");
        let rest: Vec<&str> = toks.collect();
        match head {
            ".version" | ".inputs" | ".outputs" | ".constants" | ".garbage" | ".begin" | ".end"
            | ".inputbus" | ".outputbus" | ".state" | ".module" => {}
            ".numvars" => {
                let n: usize = rest
                    .first()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ParseCircuitError::new(lineno, "bad .numvars"))?;
                numvars = Some(n);
            }
            ".variables" => {
                for v in rest {
                    vars.insert(v.to_string(), vars.len());
                }
            }
            mnemonic => {
                let n = numvars
                    .ok_or_else(|| ParseCircuitError::new(lineno, "gate before .numvars"))?;
                if vars.is_empty() {
                    // Default variable names x0..x{n-1} when .variables absent.
                    for i in 0..n {
                        vars.insert(format!("x{i}"), i);
                    }
                }
                parse_real_gate(mnemonic, &rest, &vars, n, lineno, &mut gates)?;
            }
        }
    }
    let n = numvars.ok_or_else(|| ParseCircuitError::new(0, "missing .numvars"))?;
    Ok(Circuit::from_gates(n, gates))
}

/// A line operand, possibly carrying a RevLib negative-control marker.
struct Operand {
    index: usize,
    negated: bool,
}

fn lookup(
    tok: &str,
    vars: &HashMap<String, usize>,
    lineno: usize,
) -> Result<Operand, ParseCircuitError> {
    let (negated, name) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let index = vars
        .get(name)
        .copied()
        .ok_or_else(|| ParseCircuitError::new(lineno, format!("unknown variable `{name}`")))?;
    Ok(Operand { index, negated })
}

fn parse_real_gate(
    mnemonic: &str,
    rest: &[&str],
    vars: &HashMap<String, usize>,
    numvars: usize,
    lineno: usize,
    gates: &mut Vec<Gate>,
) -> Result<(), ParseCircuitError> {
    let ops: Vec<Operand> = rest
        .iter()
        .map(|t| lookup(t, vars, lineno))
        .collect::<Result<_, _>>()?;
    // `.variables` may (erroneously) declare more names than `.numvars`
    // lines exist; a gate touching one of the excess lines is a malformed
    // input, and reversible gates always act on distinct lines. Both must
    // surface as parse errors, never as downstream register panics.
    for (i, o) in ops.iter().enumerate() {
        if o.index >= numvars {
            return Err(ParseCircuitError::new(
                lineno,
                format!("operand line {} exceeds .numvars {numvars}", o.index),
            ));
        }
        if ops[..i].iter().any(|p| p.index == o.index) {
            return Err(ParseCircuitError::new(
                lineno,
                format!("`{mnemonic}` repeats an operand line"),
            ));
        }
    }
    let arity_check = |want: usize| -> Result<(), ParseCircuitError> {
        if ops.len() == want {
            Ok(())
        } else {
            Err(ParseCircuitError::new(
                lineno,
                format!("`{mnemonic}` expects {want} operands, got {}", ops.len()),
            ))
        }
    };

    // Wrap negative controls in X pairs.
    let negated: Vec<usize> = ops.iter().filter(|o| o.negated).map(|o| o.index).collect();
    for &q in &negated {
        gates.push(Gate::x(q));
    }

    let first = mnemonic.chars().next().unwrap_or(' ');
    let arity: Option<usize> = mnemonic.get(1..).and_then(|s| s.parse().ok());
    match (first, arity) {
        ('t', Some(k)) if k >= 1 => {
            arity_check(k)?;
            let target = ops.last().expect("nonempty").index;
            if ops.last().expect("nonempty").negated {
                return Err(ParseCircuitError::new(lineno, "negated target"));
            }
            let controls: Vec<usize> = ops[..k - 1].iter().map(|o| o.index).collect();
            gates.push(Gate::mct(controls, target));
        }
        ('f', Some(2)) => {
            arity_check(2)?;
            gates.push(Gate::swap(ops[0].index, ops[1].index));
        }
        ('f', Some(k)) if k >= 3 => {
            arity_check(k)?;
            // Controlled SWAP of the last two operands; expand via the
            // standard CX / MCT / CX identity.
            let b = ops[k - 2].index;
            let c = ops[k - 1].index;
            let mut controls: Vec<usize> = ops[..k - 2].iter().map(|o| o.index).collect();
            gates.push(Gate::cx(c, b));
            controls.push(b);
            gates.push(Gate::mct(controls, c));
            gates.push(Gate::cx(c, b));
        }
        _ => {
            return Err(ParseCircuitError::new(
                lineno,
                format!("unknown gate `{mnemonic}`"),
            ))
        }
    }

    for &q in &negated {
        gates.push(Gate::x(q));
    }
    Ok(())
}

/// Renders a classical reversible circuit in `.real` format.
///
/// # Errors
///
/// Returns an error message if the circuit contains non-classical gates
/// (the `.real` format has no vocabulary for them).
pub fn to_real(circuit: &Circuit) -> Result<String, String> {
    let mut out = String::new();
    let names: Vec<String> = (0..circuit.n_qubits()).map(|i| format!("x{i}")).collect();
    let _ = writeln!(out, ".version 2.0");
    let _ = writeln!(out, ".numvars {}", circuit.n_qubits());
    let _ = writeln!(out, ".variables {}", names.join(" "));
    let _ = writeln!(out, ".begin");
    for g in circuit.gates() {
        match g {
            Gate::Single {
                op: qsyn_gate::SingleOp::X,
                qubit,
            } => {
                let _ = writeln!(out, "t1 {}", names[*qubit]);
            }
            Gate::Cx { control, target } => {
                let _ = writeln!(out, "t2 {} {}", names[*control], names[*target]);
            }
            Gate::Swap { a, b } => {
                let _ = writeln!(out, "f2 {} {}", names[*a], names[*b]);
            }
            Gate::Mct { controls, target } => {
                let ctl: Vec<&str> = controls.iter().map(|&c| names[c].as_str()).collect();
                let _ = writeln!(
                    out,
                    "t{} {} {}",
                    controls.len() + 1,
                    ctl.join(" "),
                    names[*target]
                );
            }
            other => return Err(format!("gate {other} not expressible in .real")),
        }
    }
    let _ = writeln!(out, ".end");
    Ok(out)
}

impl Circuit {
    /// Parses RevLib `.real` source; see [`parse_real`].
    ///
    /// # Errors
    ///
    /// See [`parse_real`].
    pub fn from_real(src: &str) -> Result<Circuit, ParseCircuitError> {
        parse_real(src)
    }

    /// Renders this circuit in `.real` format; see [`to_real`].
    ///
    /// # Errors
    ///
    /// See [`to_real`].
    pub fn to_real(&self) -> Result<String, String> {
        to_real(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_toffoli_cascade() {
        let src = "\
.version 2.0
.numvars 3
.variables a b c
.begin
t1 c
t2 a b
t3 a b c
.end
";
        let c = Circuit::from_real(src).unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.gates()[0], Gate::x(2));
        assert_eq!(c.gates()[1], Gate::cx(0, 1));
        assert_eq!(c.gates()[2], Gate::toffoli(0, 1, 2));
    }

    #[test]
    fn default_variable_names() {
        let src = ".numvars 2\nt2 x0 x1\n";
        let c = Circuit::from_real(src).unwrap();
        assert_eq!(c.gates()[0], Gate::cx(0, 1));
    }

    #[test]
    fn negative_controls_expand_to_x_pairs() {
        let src = ".numvars 2\n.variables a b\nt2 -a b\n";
        let c = Circuit::from_real(src).unwrap();
        assert_eq!(
            c.gates(),
            &[Gate::x(0), Gate::cx(0, 1), Gate::x(0)],
            "negative control wraps in X"
        );
        // Semantics: X when a = 0.
        assert_eq!(c.permute_basis(0b00), 0b01);
        assert_eq!(c.permute_basis(0b10), 0b10);
    }

    #[test]
    fn fredkin_expansion_is_controlled_swap() {
        let src = ".numvars 3\n.variables a b c\nf3 a b c\n";
        let c = Circuit::from_real(src).unwrap();
        assert_eq!(c.len(), 3);
        // a = 1 swaps b and c; a = 0 leaves them.
        assert_eq!(c.permute_basis(0b110), 0b101);
        assert_eq!(c.permute_basis(0b101), 0b110);
        assert_eq!(c.permute_basis(0b010), 0b010);
        assert_eq!(c.permute_basis(0b111), 0b111);
    }

    #[test]
    fn swap_gate_f2() {
        let src = ".numvars 2\n.variables a b\nf2 a b\n";
        let c = Circuit::from_real(src).unwrap();
        assert_eq!(c.gates()[0], Gate::swap(0, 1));
    }

    #[test]
    fn wide_mct() {
        let src = ".numvars 5\n.variables a b c d e\nt5 a b c d e\n";
        let c = Circuit::from_real(src).unwrap();
        assert_eq!(c.gates()[0], Gate::mct(vec![0, 1, 2, 3], 4));
    }

    #[test]
    fn round_trip() {
        let src = ".numvars 4\n.variables a b c d\n.begin\nt1 a\nt2 a b\nt3 a b c\nt4 a b c d\nf2 a d\n.end\n";
        let c = Circuit::from_real(src).unwrap();
        let again = Circuit::from_real(&c.to_real().unwrap()).unwrap();
        assert_eq!(c.gates(), again.gates());
    }

    #[test]
    fn to_real_rejects_hadamard() {
        let mut c = Circuit::new(1);
        c.push(Gate::h(0));
        assert!(c.to_real().is_err());
    }

    #[test]
    fn errors() {
        assert!(Circuit::from_real("t2 a b\n").is_err()); // gate before .numvars
        assert!(Circuit::from_real(".numvars 2\n.variables a b\nt2 a\n").is_err()); // arity
        assert!(Circuit::from_real(".numvars 2\n.variables a b\nq9 a b\n").is_err()); // unknown
        assert!(Circuit::from_real(".numvars 2\n.variables a b\nt2 a -b\n").is_err()); // neg target
        assert!(Circuit::from_real("").is_err()); // empty
    }
}
