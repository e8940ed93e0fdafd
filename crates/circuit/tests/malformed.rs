//! Malformed-input corpus for the circuit parsers.
//!
//! Every parser front-end (`.qasm`, `.qc`, `.real`) must reject broken
//! input with a `ParseCircuitError` — never a panic. The corpus covers
//! byte-level truncations of valid sources (a partially written or
//! corrupted file), duplicate/out-of-range operand lines, and outright
//! garbage. Each case runs under `catch_unwind` so a panicking parser
//! names the offending input instead of aborting the whole suite.

use qsyn_circuit::Circuit;
use std::panic::{catch_unwind, AssertUnwindSafe};

const QASM_SEED: &str = "OPENQASM 2.0;
include \"qelib1.inc\";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1];
cz q[1],q[2];
swap q[2],q[3];
ccx q[0],q[1],q[2];
t q[3];
tdg q[3];
";

const QC_SEED: &str = ".v a b c d
.i a b c
.o d
BEGIN
H a
tof a b c
tof a b c d
cnot a b
swap c d
cz a d
T* b
END
";

const REAL_SEED: &str = ".version 2.0
.numvars 4
.variables a b c d
.begin
t1 d
t2 a d
t3 a b d
t2 -a d
f2 a b
f3 a b c
.end
";

/// Runs a parser over one input, distinguishing "clean result" from
/// "panic". Returns an error message naming the input on panic.
fn assert_no_panic<F>(format: &str, label: &str, input: &str, parse: F)
where
    F: FnOnce(&str) -> Result<Circuit, qsyn_circuit::ParseCircuitError>,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = parse(input);
    }));
    assert!(
        outcome.is_ok(),
        "{format} parser panicked on {label}: {input:?}"
    );
}

/// Truncation corpus: every char-boundary prefix of the seed. A torn file
/// must parse or error, never panic.
fn truncations(seed: &str) -> Vec<String> {
    let mut out: Vec<String> = seed
        .char_indices()
        .map(|(i, _)| seed[..i].to_string())
        .collect();
    out.push(seed.to_string());
    out
}

fn garbage() -> Vec<String> {
    vec![
        String::new(),
        " \t \n ".into(),
        "\u{0}\u{1}\u{2}binary trash".into(),
        "%!PS-Adobe postscript, not a circuit".into(),
        "{\"json\": \"also not a circuit\"}".into(),
        "\u{fe0f}\u{1f600} emoji soup \u{1f4a5}".into(),
        "-".repeat(512),
        "9".repeat(64),
    ]
}

#[test]
fn qasm_truncations_and_garbage_never_panic() {
    for (k, input) in truncations(QASM_SEED)
        .iter()
        .chain(garbage().iter())
        .enumerate()
    {
        assert_no_panic("qasm", &format!("case {k}"), input, Circuit::from_qasm);
    }
}

#[test]
fn qc_truncations_and_garbage_never_panic() {
    for (k, input) in truncations(QC_SEED)
        .iter()
        .chain(garbage().iter())
        .enumerate()
    {
        assert_no_panic("qc", &format!("case {k}"), input, Circuit::from_qc);
    }
}

#[test]
fn real_truncations_and_garbage_never_panic() {
    for (k, input) in truncations(REAL_SEED)
        .iter()
        .chain(garbage().iter())
        .enumerate()
    {
        assert_no_panic("real", &format!("case {k}"), input, Circuit::from_real);
    }
}

#[test]
fn qasm_duplicate_operands_are_parse_errors() {
    for line in [
        "cx q[0],q[0];",
        "cz q[1],q[1];",
        "swap q[2],q[2];",
        "ccx q[0],q[1],q[0];",
        "ccx q[0],q[0],q[1];",
    ] {
        let src = format!("OPENQASM 2.0;\nqreg q[4];\n{line}\n");
        let err = Circuit::from_qasm(&src);
        assert!(err.is_err(), "accepted duplicate operands: {line}");
    }
}

#[test]
fn qc_duplicate_operands_are_parse_errors() {
    for line in [
        "cnot a a",
        "swap b b",
        "cz c c",
        "tof a a",
        "tof a b a",
        "tof a a b",
    ] {
        let src = format!(".v a b c\nBEGIN\n{line}\nEND\n");
        let err = Circuit::from_qc(&src);
        assert!(err.is_err(), "accepted duplicate operands: {line}");
    }
}

#[test]
fn real_duplicate_operands_are_parse_errors() {
    for line in [
        "t2 a a", "t3 a b a", "t3 a a b", "f2 b b", "f3 a c c", "f3 a a c",
    ] {
        let src = format!(".numvars 3\n.variables a b c\n{line}\n");
        let err = Circuit::from_real(&src);
        assert!(err.is_err(), "accepted duplicate operands: {line}");
    }
}

#[test]
fn real_variables_beyond_numvars_are_parse_errors() {
    // `.variables` declares more names than `.numvars` admits; touching an
    // excess line must be a parse error, not a register-width panic.
    let src = ".numvars 1\n.variables a b\nt2 a b\n";
    let err = Circuit::from_real(src);
    assert!(err.is_err(), "accepted out-of-range .variables line");
    // An excess name that no gate touches stays harmless.
    let ok = Circuit::from_real(".numvars 1\n.variables a b\nt1 a\n");
    assert!(ok.is_ok());
}

#[test]
fn qasm_out_of_range_register_index_is_a_parse_error() {
    let src = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[7];\n";
    assert!(Circuit::from_qasm(src).is_err());
}
