//! OpenQASM 2.0 emission and a parser for the subset the compiler produces
//! and consumes.
//!
//! The back-end's final output is QASM restricted to the IBM transmon
//! library; the parser additionally accepts the technology-independent
//! gates (`cz`, `swap`, `ccx`) so QASM can also serve as an input format.

use crate::circuit::Circuit;
use crate::error::ParseCircuitError;
use qsyn_gate::{Gate, SingleOp, SINGLE_OPS};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders a circuit as OpenQASM 2.0 source.
///
/// Technology-independent gates are emitted with their standard `qelib1`
/// names (`ccx`, `cz`, `swap`); generalized Toffoli gates with more than two
/// controls have no `qelib1` equivalent and are rejected.
///
/// # Errors
///
/// Returns an error message when the circuit contains a generalized Toffoli
/// with more than two controls (decompose it first).
pub fn to_qasm(circuit: &Circuit) -> Result<String, String> {
    let mut out = qasm_header(circuit.n_qubits(), circuit.name());
    for g in circuit.gates() {
        write_gate_qasm(&mut out, g)?;
    }
    Ok(out)
}

/// The OpenQASM 2.0 preamble for an `n_qubits`-wide register, without any
/// gate statements — the fixed-size prefix a streaming emitter writes once
/// before appending gates with [`write_gate_qasm`] window by window.
pub fn qasm_header(n_qubits: usize, name: Option<&str>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "OPENQASM 2.0;");
    let _ = writeln!(out, "include \"qelib1.inc\";");
    if let Some(name) = name {
        let _ = writeln!(out, "// circuit: {name}");
    }
    let _ = writeln!(out, "qreg q[{n_qubits}];");
    let _ = writeln!(out, "creg c[{n_qubits}];");
    out
}

/// Appends one gate's QASM statement (with trailing newline) to `out`.
///
/// # Errors
///
/// Returns an error message when the gate is a generalized Toffoli with
/// more than two controls (no `qelib1` equivalent; decompose it first).
pub fn write_gate_qasm(out: &mut String, g: &Gate) -> Result<(), String> {
    match g {
        Gate::Single { op, qubit } => {
            let _ = writeln!(out, "{} q[{}];", op.qasm_name(), qubit);
        }
        Gate::Cx { control, target } => {
            let _ = writeln!(out, "cx q[{control}],q[{target}];");
        }
        Gate::Cz { control, target } => {
            let _ = writeln!(out, "cz q[{control}],q[{target}];");
        }
        Gate::Swap { a, b } => {
            let _ = writeln!(out, "swap q[{a}],q[{b}];");
        }
        Gate::Mct { controls, target } => {
            if controls.len() == 2 {
                let _ = writeln!(
                    out,
                    "ccx q[{}],q[{}],q[{}];",
                    controls[0], controls[1], target
                );
            } else {
                return Err(format!(
                    "generalized Toffoli with {} controls has no QASM 2.0 name; decompose first",
                    controls.len()
                ));
            }
        }
    }
    Ok(())
}

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// Supported statements: `OPENQASM`, `include`, `qreg`, `creg` (ignored),
/// `barrier` (ignored), `measure` (ignored), `id` (ignored), the one-qubit
/// library gates, `cx`, `cz`, `swap`, and `ccx`. Multiple quantum registers
/// are concatenated in declaration order.
///
/// # Errors
///
/// Returns a [`ParseCircuitError`] on malformed syntax, unknown gates,
/// undeclared registers, or out-of-range indices.
pub fn parse_qasm(src: &str) -> Result<Circuit, ParseCircuitError> {
    let mut regs: HashMap<String, (usize, usize)> = HashMap::new(); // name -> (offset, size)
    let mut total = 0usize;
    let mut gates: Vec<Gate> = Vec::new();
    let mut name: Option<String> = None;

    for (lineno, raw_line) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw_line.find("//") {
            Some(pos) => {
                if name.is_none() {
                    if let Some(rest) = raw_line[pos + 2..].trim().strip_prefix("circuit:") {
                        name = Some(rest.trim().to_string());
                    }
                }
                &raw_line[..pos]
            }
            None => raw_line,
        };
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            let (head, rest) = match stmt.find(|c: char| c.is_whitespace() || c == '(') {
                Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
                None => (stmt, ""),
            };
            match head {
                "OPENQASM" | "include" | "creg" | "barrier" | "measure" | "id" | "reset" => {}
                "qreg" => {
                    let (rname, size) = parse_reg_decl(rest, lineno)?;
                    regs.insert(rname, (total, size));
                    total += size;
                }
                "u1" | "p" => {
                    // Parameterized phase gate: exact only for multiples of
                    // pi/4, which map onto the T/S/Z tower.
                    let (angle, operands) = split_params(rest, lineno)?;
                    let steps = parse_pi_quarter_steps(angle, lineno)?;
                    let args = parse_args(operands, &regs, lineno)?;
                    if args.len() != 1 {
                        return Err(ParseCircuitError::new(lineno, "u1 expects 1 operand"));
                    }
                    for op in SingleOp::from_phase_steps(steps) {
                        gates.push(Gate::single(op, args[0]));
                    }
                }
                gate => {
                    let args = parse_args(rest, &regs, lineno)?;
                    gates.push(gate_from_qasm(gate, &args, lineno)?);
                }
            }
        }
    }
    if total == 0 {
        return Err(ParseCircuitError::new(0, "no qreg declaration found"));
    }
    let mut c = Circuit::from_gates(total, gates);
    if let Some(n) = name {
        c.set_name(n);
    }
    Ok(c)
}

/// Splits `"(angle) q[0]"` into the angle text and the operand text.
fn split_params(rest: &str, lineno: usize) -> Result<(&str, &str), ParseCircuitError> {
    let inner = rest
        .strip_prefix('(')
        .ok_or_else(|| ParseCircuitError::new(lineno, "expected `(angle)`"))?;
    let close = inner
        .find(')')
        .ok_or_else(|| ParseCircuitError::new(lineno, "unterminated `(`"))?;
    Ok((inner[..close].trim(), inner[close + 1..].trim()))
}

/// Parses a symbolic angle that is an exact multiple of `pi/4`, returning
/// the step count modulo 8. Accepted forms: `0`, `pi`, `-pi/2`, `3*pi/4`,
/// `7pi/4`, with arbitrary spacing.
fn parse_pi_quarter_steps(angle: &str, lineno: usize) -> Result<u8, ParseCircuitError> {
    let bad = || {
        ParseCircuitError::new(
            lineno,
            format!("angle `{angle}` is not an exact multiple of pi/4 (only the T/S/Z tower is technology-exact)"),
        )
    };
    let text: String = angle.chars().filter(|c| !c.is_whitespace()).collect();
    if text == "0" {
        return Ok(0);
    }
    let (negative, text) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text.as_str()),
    };
    let pi_pos = text.find("pi").ok_or_else(bad)?;
    let coeff_text = text[..pi_pos].trim_end_matches('*');
    let coeff: i64 = if coeff_text.is_empty() {
        1
    } else {
        coeff_text.parse().map_err(|_| bad())?
    };
    let denom_text = &text[pi_pos + 2..];
    let denom: i64 = if denom_text.is_empty() {
        1
    } else {
        denom_text
            .strip_prefix('/')
            .and_then(|d| d.parse().ok())
            .ok_or_else(bad)?
    };
    // steps/4 per pi: angle = coeff*pi/denom = (coeff*4/denom) * pi/4.
    if denom == 0 || (coeff * 4) % denom != 0 {
        return Err(bad());
    }
    let mut steps = (coeff * 4 / denom) % 8;
    if negative {
        steps = -steps;
    }
    Ok(steps.rem_euclid(8) as u8)
}

fn parse_reg_decl(rest: &str, lineno: usize) -> Result<(String, usize), ParseCircuitError> {
    // Form: name[size]
    let open = rest
        .find('[')
        .ok_or_else(|| ParseCircuitError::new(lineno, "malformed register declaration"))?;
    let close = rest
        .find(']')
        .ok_or_else(|| ParseCircuitError::new(lineno, "malformed register declaration"))?;
    let rname = rest[..open].trim().to_string();
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseCircuitError::new(lineno, "bad register size"))?;
    Ok((rname, size))
}

fn parse_args(
    rest: &str,
    regs: &HashMap<String, (usize, usize)>,
    lineno: usize,
) -> Result<Vec<usize>, ParseCircuitError> {
    let mut out = Vec::new();
    for piece in rest.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let open = piece.find('[').ok_or_else(|| {
            ParseCircuitError::new(lineno, format!("expected `reg[i]`, got `{piece}`"))
        })?;
        let close = piece.find(']').ok_or_else(|| {
            ParseCircuitError::new(lineno, format!("expected `reg[i]`, got `{piece}`"))
        })?;
        let rname = piece[..open].trim();
        let idx: usize = piece[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| ParseCircuitError::new(lineno, "bad qubit index"))?;
        let (offset, size) = regs
            .get(rname)
            .ok_or_else(|| ParseCircuitError::new(lineno, format!("unknown register `{rname}`")))?;
        if idx >= *size {
            return Err(ParseCircuitError::new(
                lineno,
                format!("index {idx} out of range for register `{rname}`"),
            ));
        }
        out.push(offset + idx);
    }
    Ok(out)
}

fn gate_from_qasm(
    mnemonic: &str,
    args: &[usize],
    lineno: usize,
) -> Result<Gate, ParseCircuitError> {
    let arity_err = |want: usize| {
        ParseCircuitError::new(
            lineno,
            format!(
                "gate `{mnemonic}` expects {want} operands, got {}",
                args.len()
            ),
        )
    };
    // Multi-qubit gates act on distinct lines; a repeated operand (e.g.
    // `cx q[0],q[0]`) is a malformed input, not a constructor panic.
    let distinct = || -> Result<(), ParseCircuitError> {
        for (i, a) in args.iter().enumerate() {
            if args[..i].contains(a) {
                return Err(ParseCircuitError::new(
                    lineno,
                    format!("gate `{mnemonic}` repeats operand q{a}"),
                ));
            }
        }
        Ok(())
    };
    for op in SINGLE_OPS {
        if op.qasm_name() == mnemonic {
            if args.len() != 1 {
                return Err(arity_err(1));
            }
            return Ok(Gate::single(op, args[0]));
        }
    }
    match mnemonic {
        "cx" | "CX" => {
            if args.len() != 2 {
                return Err(arity_err(2));
            }
            distinct()?;
            Ok(Gate::cx(args[0], args[1]))
        }
        "cz" => {
            if args.len() != 2 {
                return Err(arity_err(2));
            }
            distinct()?;
            Ok(Gate::cz(args[0], args[1]))
        }
        "swap" => {
            if args.len() != 2 {
                return Err(arity_err(2));
            }
            distinct()?;
            Ok(Gate::swap(args[0], args[1]))
        }
        "ccx" => {
            if args.len() != 3 {
                return Err(arity_err(3));
            }
            distinct()?;
            Ok(Gate::toffoli(args[0], args[1], args[2]))
        }
        other => Err(ParseCircuitError::new(
            lineno,
            format!("unknown gate `{other}`"),
        )),
    }
}

/// Convenience extension methods on [`Circuit`] for QASM I/O.
impl Circuit {
    /// Renders this circuit as OpenQASM 2.0; see [`to_qasm`].
    ///
    /// # Errors
    ///
    /// See [`to_qasm`].
    pub fn to_qasm(&self) -> Result<String, String> {
        to_qasm(self)
    }

    /// Parses OpenQASM 2.0 source; see [`parse_qasm`].
    ///
    /// # Errors
    ///
    /// See [`parse_qasm`].
    pub fn from_qasm(src: &str) -> Result<Circuit, ParseCircuitError> {
        parse_qasm(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3).with_name("sample");
        c.push(Gate::h(0));
        c.push(Gate::t(1));
        c.push(Gate::tdg(2));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cz(1, 2));
        c.push(Gate::swap(0, 2));
        c.push(Gate::toffoli(0, 1, 2));
        c
    }

    #[test]
    fn round_trip_preserves_gates_and_name() {
        let c = sample();
        let qasm = c.to_qasm().unwrap();
        let parsed = Circuit::from_qasm(&qasm).unwrap();
        assert_eq!(parsed.gates(), c.gates());
        assert_eq!(parsed.n_qubits(), 3);
        assert_eq!(parsed.name(), Some("sample"));
    }

    #[test]
    fn emits_standard_header() {
        let qasm = sample().to_qasm().unwrap();
        assert!(qasm.starts_with("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"));
        assert!(qasm.contains("qreg q[3];"));
        assert!(qasm.contains("ccx q[0],q[1],q[2];"));
    }

    #[test]
    fn rejects_wide_mct() {
        let mut c = Circuit::new(4);
        c.push(Gate::mct(vec![0, 1, 2], 3));
        assert!(c.to_qasm().is_err());
    }

    #[test]
    fn parses_measure_and_barrier_as_noops() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
                   h q[0];\nbarrier q[0],q[1];\nmeasure q[0] -> c[0];\n";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.gates()[0], Gate::h(0));
    }

    #[test]
    fn multiple_registers_concatenate() {
        let src = "qreg a[2];\nqreg b[2];\ncx a[1],b[0];\n";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.gates()[0], Gate::cx(1, 2));
    }

    #[test]
    fn error_on_unknown_gate() {
        let src = "qreg q[1];\nfrob q[0];\n";
        let err = Circuit::from_qasm(src).unwrap_err();
        assert!(err.to_string().contains("unknown gate"));
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn error_on_out_of_range_index() {
        let src = "qreg q[2];\nx q[5];\n";
        let err = Circuit::from_qasm(src).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn error_on_missing_qreg() {
        let err = Circuit::from_qasm("x q[0];").unwrap_err();
        assert!(err.to_string().contains("unknown register"));
    }

    #[test]
    fn error_on_bad_arity() {
        let src = "qreg q[3];\ncx q[0];\n";
        let err = Circuit::from_qasm(src).unwrap_err();
        assert!(err.to_string().contains("expects 2 operands"));
    }

    #[test]
    fn comments_are_ignored() {
        let src = "qreg q[1]; // register\n// full line comment\nx q[0]; // flip\n";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn u1_multiples_of_quarter_pi() {
        let src = "qreg q[1];\nu1(pi/4) q[0];\nu1(pi/2) q[0];\nu1(pi) q[0];\n\
                   u1(-pi/4) q[0];\nu1(3*pi/4) q[0];\np(0) q[0];\nu1(2*pi) q[0];\n";
        let c = Circuit::from_qasm(src).unwrap();
        use qsyn_gate::SingleOp::*;
        assert_eq!(
            c.gates(),
            &[
                Gate::single(T, 0),
                Gate::single(S, 0),
                Gate::single(Z, 0),
                Gate::single(Tdg, 0),
                Gate::single(S, 0),
                Gate::single(T, 0), // 3*pi/4 = S then T
            ]
        );
    }

    #[test]
    fn u1_matches_phase_matrix() {
        let c = Circuit::from_qasm("qreg q[1];\nu1(3*pi/4) q[0];\n").unwrap();
        let m = c.to_matrix();
        let expect = qsyn_gate::C64::cis(3.0 * std::f64::consts::FRAC_PI_4);
        assert!(m[(1, 1)].approx_eq(expect));
        assert!(m[(0, 0)].is_one());
    }

    #[test]
    fn u1_rejects_non_exact_angles() {
        for bad in ["pi/3", "0.5", "pi/8", "2*pi/3", "theta"] {
            let src = format!("qreg q[1];\nu1({bad}) q[0];\n");
            let err = Circuit::from_qasm(&src).unwrap_err();
            assert!(err.to_string().contains("pi/4"), "{bad}: {err}");
        }
    }

    #[test]
    fn u1_spacing_variants() {
        let src = "qreg q[1];\nu1( 7 * pi / 4 ) q[0];\nu1(7pi/4) q[0];\n";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.gates(), &[Gate::tdg(0), Gate::tdg(0)]);
    }

    #[test]
    fn semantics_preserved_through_round_trip() {
        let c = sample();
        let parsed = Circuit::from_qasm(&c.to_qasm().unwrap()).unwrap();
        assert!(c.to_matrix().approx_eq(&parsed.to_matrix()));
    }
}
