//! Integration tests driving the `qsyn` command-line tool end to end,
//! through real process invocations and temporary files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qsyn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qsyn"))
        .args(args)
        .output()
        .expect("qsyn binary runs")
}

fn tmp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsyn-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp file");
    path
}

const TOFFOLI_REAL: &str = ".version 2.0\n.numvars 3\n.variables a b c\n.begin\nt3 a b c\n.end\n";

#[test]
fn devices_lists_the_library() {
    let out = qsyn(&["devices"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["ibmqx2", "ibmqx3", "ibmqx4", "ibmqx5", "ibmq_16", "qc96"] {
        assert!(text.contains(name), "missing {name}");
    }
    assert!(text.contains("0.3"), "complexity column");
}

#[test]
fn compile_real_to_qasm() {
    let input = tmp("tof.real", TOFFOLI_REAL);
    let out = qsyn(&["compile", input.to_str().unwrap(), "--device", "ibmqx4"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let qasm = String::from_utf8_lossy(&out.stdout);
    assert!(qasm.starts_with("OPENQASM 2.0;"));
    assert!(qasm.contains("cx q["));
    // Stats and verification report on stderr.
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("verified = Some(true)"), "{log}");
}

#[test]
fn compile_writes_out_file_and_round_trips() {
    let input = tmp("tof2.real", TOFFOLI_REAL);
    let output = tmp("tof2.qasm", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx2",
        "--out",
        output.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let qasm = std::fs::read_to_string(&output).unwrap();
    let mapped = qsyn::circuit::Circuit::from_qasm(&qasm).unwrap();
    let spec = qsyn::circuit::Circuit::from_real(TOFFOLI_REAL).unwrap();
    assert!(qsyn::qmdd::circuits_equal(&spec, &mapped));
}

#[test]
fn compile_reports_na_for_too_wide() {
    let input = tmp(
        "wide.real",
        ".numvars 6\n.variables a b c d e f\nt2 a f\n",
    );
    let out = qsyn(&["compile", input.to_str().unwrap(), "--device", "ibmqx2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("6 qubits"));
}

#[test]
fn compile_rejects_unknown_device() {
    let input = tmp("tof3.real", TOFFOLI_REAL);
    let out = qsyn(&["compile", input.to_str().unwrap(), "--device", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn compile_flags_greedy_and_no_opt() {
    let input = tmp("tof4.real", TOFFOLI_REAL);
    for extra in [&["--placement", "greedy"][..], &["--no-opt"], &["--cost", "fidelity"]] {
        let mut args = vec!["compile", input.to_str().unwrap(), "--device", "ibmqx5"];
        args.extend_from_slice(extra);
        let out = qsyn(&args);
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn check_equivalent_and_different() {
    let swap_native = tmp("s1.qasm", "qreg q[2]; swap q[0],q[1];");
    let swap_cnots = tmp(
        "s2.qasm",
        "qreg q[2]; cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1];",
    );
    let other = tmp("s3.qasm", "qreg q[2]; cx q[0],q[1];");

    let ok = qsyn(&[
        "check",
        swap_native.to_str().unwrap(),
        swap_cnots.to_str().unwrap(),
    ]);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("EQUIVALENT"));

    let bad = qsyn(&[
        "check",
        swap_native.to_str().unwrap(),
        other.to_str().unwrap(),
    ]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stdout).contains("DIFFERENT"));
}

#[test]
fn check_miter_and_ancilla_flags() {
    let swap_native = tmp("sm1.qasm", "qreg q[2]; swap q[0],q[1];");
    let swap_cnots = tmp(
        "sm2.qasm",
        "qreg q[2]; cx q[0],q[1]; cx q[1],q[0]; cx q[0],q[1];",
    );
    let ok = qsyn(&[
        "check",
        swap_native.to_str().unwrap(),
        swap_cnots.to_str().unwrap(),
        "--miter",
    ]);
    assert!(ok.status.success());

    // Partial equivalence: a CZ firing only on an excited ancilla input.
    let clean = tmp("anc1.qasm", "qreg q[3]; ccx q[0],q[1],q[2];");
    let messy = tmp("anc2.qasm", "qreg q[3]; cz q[2],q[0]; ccx q[0],q[1],q[2];");
    let full = qsyn(&["check", clean.to_str().unwrap(), messy.to_str().unwrap()]);
    assert!(!full.status.success(), "fully different");
    let partial = qsyn(&[
        "check",
        clean.to_str().unwrap(),
        messy.to_str().unwrap(),
        "--ancilla",
        "2",
    ]);
    assert!(partial.status.success(), "equal on the clean subspace");
}

#[test]
fn check_answers_different_on_a_one_gate_sabotage_of_wide_files() {
    // Two 64-line files that touch only lines 5, 40 and 63: the checker
    // runs on that 3-line support and still tells one flipped T apart,
    // by either method.
    let body = "h q[5]; cx q[5],q[40]; t q[63]; cx q[40],q[63]; h q[40];";
    let spec = tmp("wide-spec.qasm", &format!("qreg q[64]; {body}"));
    let same = tmp("wide-same.qasm", &format!("qreg q[64]; {body}"));
    let flipped = tmp(
        "wide-flipped.qasm",
        &format!("qreg q[64]; {}", body.replace("t q[63]", "tdg q[63]")),
    );
    let (a, b, c) = (
        spec.to_str().unwrap(),
        same.to_str().unwrap(),
        flipped.to_str().unwrap(),
    );
    for extra in [&[][..], &["--miter"][..]] {
        let ok = qsyn(&[&["check", a, b][..], extra].concat());
        assert!(ok.status.success(), "{extra:?}");
        assert_eq!(String::from_utf8_lossy(&ok.stdout), "EQUIVALENT\n");
        let bad = qsyn(&[&["check", a, c][..], extra].concat());
        assert_eq!(bad.status.code(), Some(1), "{extra:?}");
        assert_eq!(String::from_utf8_lossy(&bad.stdout), "DIFFERENT\n");
    }
}

/// Asserts a usage error: exit 2 with exactly one `error:` line naming
/// `needle` on stderr.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(lines[0].starts_with("error: ") && lines[0].contains(needle), "{stderr}");
}

#[test]
fn check_rejects_bad_ancilla_lists_and_miter_with_ancilla() {
    let clean = tmp("bad-anc1.qasm", "qreg q[3]; ccx q[0],q[1],q[2];");
    let messy = tmp("bad-anc2.qasm", "qreg q[3]; cz q[2],q[0]; ccx q[0],q[1],q[2];");
    let (a, b) = (clean.to_str().unwrap(), messy.to_str().unwrap());
    for spec in ["99", "3", "1,x", "2,", "-1"] {
        let out = qsyn(&["check", a, b, "--ancilla", spec]);
        assert_usage_error(&out, &format!("bad --ancilla `{spec}` (want comma-separated lines below 3)"));
    }
    let out = qsyn(&["check", a, b, "--ancilla", "2", "--miter"]);
    assert_usage_error(&out, "--miter and --ancilla cannot be combined");
}

#[test]
fn synth_rejects_more_variables_than_a_truth_table_holds() {
    for vars in ["25", "40", "64", "100"] {
        let out = qsyn(&["synth", "8", vars]);
        assert_usage_error(&out, &format!("{vars} variables exceed the 24-variable limit"));
    }
}

#[test]
fn stats_reports_counts() {
    let input = tmp(
        "stats.qc",
        ".v a b c\nBEGIN\nH a\nT a\nT* b\ntof a b\ntof a b c\nEND\n",
    );
    let out = qsyn(&["stats", input.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T / T-dagger    : 2"));
    assert!(text.contains("CNOT            : 1"));
    assert!(text.contains("technology-ready: false"));
}

#[test]
fn synth_emits_real_cascade() {
    let out = qsyn(&["synth", "8", "2"]); // AND of two variables
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(".numvars 3"));
    assert!(text.contains("t3 x0 x1 x2"));
}

#[test]
fn synth_then_compile_pipeline() {
    let cascade = tmp("maj.real", "");
    let out = qsyn(&[
        "synth",
        "e8", // 3-input majority: rows 3,5,6,7
        "3",
        "--out",
        cascade.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = qsyn(&["compile", cascade.to_str().unwrap(), "--device", "ibmqx4"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn compile_pla_through_the_esop_front_end() {
    // A half adder as a PLA: sum = a XOR b, carry = a AND b.
    let input = tmp(
        "half_adder.pla",
        ".i 2\n.o 2\n10 10\n01 10\n11 01\n.e\n",
    );
    let out = qsyn(&["compile", input.to_str().unwrap(), "--device", "ibmqx5"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("verified = Some(true)"));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("OPENQASM 2.0;"));
}

#[test]
fn dot_device_renders_coupling_map() {
    let out = qsyn(&["dot", "--device", "ibmqx2"]);
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.contains("digraph \"ibmqx2\""));
    assert!(dot.contains("q0 -> q1;"));
    assert_eq!(dot.matches("->").count(), 6, "six couplings");
}

#[test]
fn dot_circuit_renders_qmdd() {
    let input = tmp("cnot.qasm", "qreg q[2]; cx q[0],q[1];");
    let out = qsyn(&["dot", input.to_str().unwrap()]);
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.contains("digraph qmdd"));
    assert!(dot.contains("x0"));
    // The paper's Fig. 1: three non-terminal vertices for a CNOT.
    assert!(String::from_utf8_lossy(&out.stderr).contains("3 non-terminal nodes"));
}

#[test]
fn stats_reports_depth() {
    let input = tmp("depth.qc", ".v a b\nBEGIN\nT a\nT b\ntof a b\nT b\nEND\n");
    let out = qsyn(&["stats", input.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("depth           : 3"));
    assert!(text.contains("T-depth         : 2"));
}

#[test]
fn draw_renders_ascii_circuit() {
    let input = tmp("bell.qasm", "qreg q[2]; h q[0]; cx q[0],q[1];");
    let out = qsyn(&["draw", input.to_str().unwrap()]);
    assert!(out.status.success());
    let art = String::from_utf8_lossy(&out.stdout);
    assert!(art.contains("q0:") && art.contains('H') && art.contains('⊕'));
    assert!(String::from_utf8_lossy(&out.stderr).contains("depth 2"));
}

#[test]
fn compile_against_custom_device_file() {
    let device = tmp(
        "lab.device",
        "name lab\nqubits 3\nnative cz\ncoupling 0 1\ncoupling 1 2 0.01\n",
    );
    let input = tmp("tof5.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        device.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let qasm = String::from_utf8_lossy(&out.stdout);
    assert!(qasm.contains("cz q["), "CZ-native output:\n{qasm}");
    assert!(!qasm.contains("cx q["), "no CNOT on a CZ device");
    assert!(String::from_utf8_lossy(&out.stderr).contains("verified = Some(true)"));
}

#[test]
fn dot_accepts_device_file() {
    let device = tmp("dotlab.device", "name dotlab\nqubits 2\ncoupling 0 1\n");
    let out = qsyn(&["dot", "--device", device.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("digraph \"dotlab\""));
}

#[test]
fn no_args_prints_usage() {
    let out = qsyn(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_flag_is_named_in_the_error() {
    let input = tmp("tof6.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--frobnicate",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("unknown flag --frobnicate"), "{log}");
}

#[test]
fn compile_deadline_zero_is_a_usage_error() {
    // A zero deadline can only fail, so it is refused up front with the
    // shared range rule instead of failing in the place pass.
    let input = tmp("tof-deadline.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--deadline",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(
        log.contains("bad --deadline `0` (must be positive)"),
        "{log}"
    );
}

#[test]
fn value_flag_missing_its_value_is_named() {
    let input = tmp("tof7.real", TOFFOLI_REAL);
    let out = qsyn(&["compile", input.to_str().unwrap(), "--device"]);
    assert_eq!(out.status.code(), Some(2));
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("flag --device requires a value"), "{log}");
}

#[test]
fn boolean_flag_with_a_value_is_a_usage_error() {
    // `--no-verify=false` must not silently turn verification off.
    let input = tmp("tof-boolval.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--no-verify=false",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(
        log.contains("error: flag --no-verify takes no value"),
        "{log}"
    );
}

#[test]
fn compile_trace_file_emits_one_jsonl_event_per_pass() {
    let input = tmp("tof8.real", TOFFOLI_REAL);
    let trace = tmp("tof8.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        &format!("--trace={}", trace.to_str().unwrap()),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one event per Fig. 2 pass:\n{text}");
    let mut passes = Vec::new();
    for line in lines {
        let v = qsyn::trace::json::parse(line).expect("well-formed JSON");
        let e = qsyn::trace::PassEvent::from_json(&v).expect("a pass event");
        assert!(e.seconds >= 0.0);
        passes.push(e.pass);
    }
    assert_eq!(passes, qsyn::trace::Pass::FIG2_ORDER);
}

#[test]
fn compile_bare_trace_streams_jsonl_to_stderr() {
    let input = tmp("tof9.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--trace",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let log = String::from_utf8_lossy(&out.stderr);
    let events: Vec<&str> = log.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(events.len(), 5, "{log}");
    for line in events {
        qsyn::trace::json::parse(line).expect("well-formed JSON on stderr");
    }
}

#[test]
fn check_trace_validates_jsonl_files() {
    let input = tmp("tof11.real", TOFFOLI_REAL);
    let trace = tmp("tof11.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        &format!("--trace={}", trace.to_str().unwrap()),
    ]);
    assert!(out.status.success());

    let ok = qsyn(&["check-trace", trace.to_str().unwrap()]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stderr).contains("5 well-formed pass events"));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("optimize"));

    let broken = tmp("broken.jsonl", "{\"pass\":\"route\"\nnot json\n");
    let bad = qsyn(&["check-trace", broken.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains(":1:"), "names the line");
}

#[test]
fn compile_route_strategy_ctr_is_byte_identical_to_the_default() {
    let input = tmp("tof12.real", TOFFOLI_REAL);
    let default = qsyn(&["compile", input.to_str().unwrap(), "--device", "ibmqx3"]);
    assert!(default.status.success(), "{}", String::from_utf8_lossy(&default.stderr));
    let explicit = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx3",
        "--route-strategy",
        "ctr",
    ]);
    assert!(explicit.status.success(), "{}", String::from_utf8_lossy(&explicit.stderr));
    assert_eq!(default.stdout, explicit.stdout, "ctr selection perturbed the output");
}

#[test]
fn compile_route_strategy_smoke_through_check_trace() {
    // Every selectable strategy compiles, verifies, and leaves a trace
    // whose route event carries a tag `check-trace` resolves by name.
    let input = tmp("tof13.real", TOFFOLI_REAL);
    for (spec, tag) in [
        ("ctr", "ctr"),
        ("lookahead", "lookahead"),
        ("persistent", "persistent"),
        ("auto", "lookahead"), // default TransmonCost hints the lookahead
    ] {
        let trace = tmp(&format!("strategy-{spec}.trace.jsonl"), "");
        let out = qsyn(&[
            "compile",
            input.to_str().unwrap(),
            "--device",
            "ibmqx5",
            "--route-strategy",
            spec,
            &format!("--trace={}", trace.to_str().unwrap()),
        ]);
        assert!(out.status.success(), "{spec}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stderr).contains("verified = Some(true)"));
        let ok = qsyn(&["check-trace", trace.to_str().unwrap()]);
        assert!(ok.status.success(), "{spec}: {}", String::from_utf8_lossy(&ok.stderr));
        let log = String::from_utf8_lossy(&ok.stderr);
        assert!(log.contains(&format!("strategies: {tag}")), "{spec}: {log}");
    }
}

#[test]
fn compile_rejects_unknown_route_strategy() {
    let input = tmp("tof14.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--route-strategy",
        "teleport",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("teleport"));
}

#[test]
fn retired_strategy_and_cache_names_fail_with_the_current_choices() {
    // `lazy-synth` and `--cache off` were removed; both the compile flags
    // and serve request fields reject them, listing what is accepted.
    use std::io::Write as _;
    use std::process::Stdio;
    let input = tmp("tof16.real", TOFFOLI_REAL);
    for (flag, value, want) in [
        ("--route-strategy", "lazy-synth", "want ctr, lookahead, persistent or auto"),
        ("--cache", "off", "want tables or mem"),
    ] {
        let out = qsyn(&["compile", input.to_str().unwrap(), "--device", "ibmqx4", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let log = String::from_utf8_lossy(&out.stderr);
        assert!(log.contains(value) && log.contains(want), "{flag} {value}: {log}");
    }
    for (field, value, want) in [
        ("route_strategy", "lazy-synth", "want ctr, lookahead, persistent or auto"),
        ("cache", "off", "want tables or mem"),
    ] {
        let request = format!(
            "{{\"id\":\"r\",\"circuit\":\"{}\",\"device\":\"ibmqx4\",\"{field}\":\"{value}\"}}\n",
            "OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[3];\\nccx q[0],q[1],q[2];\\n"
        );
        let mut child = Command::new(env!("CARGO_BIN_EXE_qsyn"))
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("qsyn serve starts");
        child.stdin.take().unwrap().write_all(request.as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let row = String::from_utf8_lossy(&out.stdout);
        assert!(row.contains("\"kind\":\"bad-value\""), "{field}: {row}");
        assert!(row.contains(want), "{field}: {row}");
    }
}

#[test]
fn check_trace_rejects_route_events_that_blow_their_own_swap_cap() {
    // Start from a genuine trace, then tamper with the route event so it
    // claims more SWAPs than the budget cap recorded beside them.
    let input = tmp("tof15.real", TOFFOLI_REAL);
    let trace = tmp("tof15.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        &format!("--trace={}", trace.to_str().unwrap()),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    // Prepended keys win: PassEvent::counter returns the first match.
    let tampered: String = text
        .lines()
        .map(|line| {
            if line.contains("\"pass\":\"route\"") {
                line.replacen(
                    "\"counters\":{",
                    "\"counters\":{\"swaps_inserted\":9,\"swap_cap\":1,",
                    1,
                )
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(text, tampered, "route line not found to tamper with");
    let bad_file = tmp("tof15.tampered.jsonl", &tampered);
    let bad = qsyn(&["check-trace", bad_file.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    let log = String::from_utf8_lossy(&bad.stderr);
    assert!(log.contains("exceeding the budget cap"), "{log}");
}

#[test]
fn check_trace_rejects_streaming_counts_that_are_not_counts() {
    // A genuine streaming trace carries the windows' summed optimize and
    // verify counters on its aggregate route event; tampered copies whose
    // counts are negative or fractional are rejected.
    let input = tmp("tof-stream.real", TOFFOLI_REAL);
    let trace = tmp("tof-stream.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "grid:8x8",
        "--stream",
        "2",
        &format!("--trace={}", trace.to_str().unwrap()),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    for name in [
        "optimize_seconds_total",
        "optimize_rounds",
        "gates_removed",
        "verify_lookups",
        "verify_peak_nodes",
    ] {
        assert!(
            text.contains(&format!("\"{name}\":")),
            "{name} missing: {text}"
        );
    }
    let ok = qsyn(&["check-trace", trace.to_str().unwrap()]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    for (name, bad) in [
        ("optimize_rounds", "-1"),
        ("optimize_rounds", "1.5"),
        ("gates_removed", "2.5"),
        ("verify_lookups", "-3"),
    ] {
        // Prepended keys win: PassEvent::counter returns the first match.
        let tampered = text.replacen(
            "\"counters\":{\"streaming\"",
            &format!("\"counters\":{{\"{name}\":{bad},\"streaming\""),
            1,
        );
        assert_ne!(text, tampered, "streaming route event not found");
        let file = tmp("tof-stream.tampered.jsonl", &tampered);
        let out = qsyn(&["check-trace", file.to_str().unwrap()]);
        let log = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}={bad}: {log}");
        assert!(
            log.contains("must be a non-negative integer"),
            "{name}={bad}: {log}"
        );
    }
}

#[test]
fn check_trace_rejects_verify_events_with_impossible_support_counters() {
    // A genuine verify event carries the support it checked on and the
    // miter block (0: the canonical check decided); a tampered event
    // claiming a support wider than the device, or a miter rung with no
    // block, is rejected.
    let input = tmp("tof16.real", TOFFOLI_REAL);
    let trace = tmp("tof16.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        &format!("--trace={}", trace.to_str().unwrap()),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    let verify = text
        .lines()
        .find(|line| line.contains("\"pass\":\"verify\""))
        .expect("a verify event");
    assert!(verify.contains("\"support\":3,"), "{verify}");
    assert!(verify.contains("\"miter_block\":0,"), "{verify}");
    for (prepend, needle) in [
        ("\"support\":6,", "exceeds the device width 5"),
        ("\"ladder_rung\":3,\"miter_block\":0,", "must carry `miter_block` >= 1"),
        ("\"miter_block\":33,", "is not in 0..=32"),
    ] {
        let tampered = text.replacen(
            &verify.to_string(),
            &verify.replacen("\"counters\":{", &format!("\"counters\":{{{prepend}"), 1),
            1,
        );
        assert_ne!(text, tampered);
        let bad_file = tmp("tof16.tampered.jsonl", &tampered);
        let bad = qsyn(&["check-trace", bad_file.to_str().unwrap()]);
        assert_eq!(bad.status.code(), Some(1), "{prepend}");
        let log = String::from_utf8_lossy(&bad.stderr);
        assert!(log.contains(needle), "{prepend}: {log}");
    }
}

#[test]
fn check_trace_matches_the_miter_block_to_the_rung_method() {
    // Hand-written first-rung verify events. The `miter` counter names
    // the method the rung ran, so a miter rung without a fused block, or a
    // canonical rung with one, is rejected on any rung; events that
    // predate the counter validate as before.
    const STATS: &str = "{\"qubits\":5,\"gates\":31,\"t\":7,\"cnot\":6,\"other_single\":18,\
                         \"unmapped_multi\":0,\"max_mct_controls\":0,\"depth\":20,\"t_depth\":4}";
    let event = |counters: &str| {
        format!(
            "{{\"pass\":\"verify\",\"seconds\":0.001,\"input\":{STATS},\"output\":{STATS},\
             \"cost_in\":36,\"cost_out\":36,\"cost_delta\":0,\"counters\":{{\"support\":3,\
             {counters},\"ladder_rung\":1,\"unverified\":0}}}}\n"
        )
    };
    for (counters, rejection) in [
        ("\"miter\":1,\"miter_block\":2", None),
        ("\"miter\":0,\"miter_block\":0", None),
        ("\"miter_block\":0", None),
        ("\"miter_block\":2", None),
        (
            "\"miter\":1,\"miter_block\":0",
            Some("a miter rung (`miter` 1) must carry `miter_block` >= 1"),
        ),
        (
            "\"miter\":0,\"miter_block\":4",
            Some("a canonical rung (`miter` 0) must carry `miter_block` 0"),
        ),
        (
            "\"miter\":2,\"miter_block\":0",
            Some("`miter` counter must be 0 or 1"),
        ),
    ] {
        let file = tmp("miter-method.trace.jsonl", &event(counters));
        let out = qsyn(&["check-trace", file.to_str().unwrap()]);
        let log = String::from_utf8_lossy(&out.stderr);
        match rejection {
            None => assert!(out.status.success(), "{counters}: {log}"),
            Some(needle) => {
                assert_eq!(out.status.code(), Some(1), "{counters}: {log}");
                assert!(log.contains(needle), "{counters}: {log}");
            }
        }
    }
}

#[test]
fn compile_report_renders_the_stage_table() {
    let input = tmp("tof10.real", TOFFOLI_REAL);
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--report",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let log = String::from_utf8_lossy(&out.stderr);
    for pass in ["place", "decompose", "route", "optimize"] {
        assert!(log.contains(pass), "missing {pass} row:\n{log}");
    }
    assert!(log.contains("QMDD verification: passed"), "{log}");
}

#[test]
fn report_renders_tables_from_snapshot_and_trace_files() {
    // Trace source: compile with --trace, then `qsyn report` on the JSONL
    // renders per-pass latency rows replayed into histograms.
    let input = tmp("rep1.real", TOFFOLI_REAL);
    let trace = tmp("rep1.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        &format!("--trace={}", trace.to_str().unwrap()),
    ]);
    assert!(out.status.success());
    let report = qsyn(&["report", trace.to_str().unwrap()]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let text = String::from_utf8_lossy(&report.stdout);
    for name in ["pass.place_us", "pass.route_us", "p50", "p95", "p99"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    assert!(
        String::from_utf8_lossy(&report.stderr).contains("trace"),
        "source kind announced on stderr"
    );

    // A cached replay did no work, so the report agrees with live metrics:
    // two in-process runs under --cache mem leave one route sample, while
    // the five replayed events still count as cache-hit events.
    let cached = tmp("rep1.cached.trace.jsonl", "");
    let out = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--cache",
        "mem",
        "--repeat",
        "2",
        &format!("--trace={}", cached.to_str().unwrap()),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report = qsyn(&["report", cached.to_str().unwrap()]);
    assert!(report.status.success());
    let text = String::from_utf8_lossy(&report.stdout);
    let value_of = |name: &str| -> Option<u64> {
        text.lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.first() == Some(&name))
            .and_then(|cols| cols.get(1)?.parse().ok())
    };
    assert_eq!(value_of("pass.route_us"), Some(1), "replay counted:\n{text}");
    assert_eq!(value_of("trace.cache_hit_events"), Some(5), "{text}");

    // Snapshot source: a hand-built snapshot renders counters and hit
    // rates; --prometheus switches to the exposition format.
    let snap = tmp(
        "rep1.metrics.json",
        "{\"schema\":\"qsyn-metrics/1\",\
          \"counters\":{\"cache.compile.lookups\":10,\"cache.compile.hits\":4,\
                        \"cache.compile.misses\":6},\
          \"gauges\":{\"serve.queue_depth\":0},\"histograms\":{}}",
    );
    let rendered = qsyn(&["report", snap.to_str().unwrap()]);
    assert!(rendered.status.success());
    let text = String::from_utf8_lossy(&rendered.stdout);
    assert!(text.contains("40.0%"), "hit rate computed:\n{text}");
    let prom = qsyn(&["report", snap.to_str().unwrap(), "--prometheus"]);
    assert!(prom.status.success());
    let text = String::from_utf8_lossy(&prom.stdout);
    assert!(
        text.contains("qsyn_cache_compile_lookups 10"),
        "prometheus exposition:\n{text}"
    );
}

#[test]
fn check_metrics_accepts_valid_snapshots_and_names_violations() {
    let good = tmp(
        "cm-good.json",
        "{\"schema\":\"qsyn-metrics/1\",\
          \"counters\":{\"serve.requests\":3,\"serve.responses_ok\":2,\
                        \"serve.responses_error\":1},\
          \"gauges\":{\"serve.queue_depth\":0},\"histograms\":{}}",
    );
    let ok = qsyn(&["check-metrics", good.to_str().unwrap()]);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(
        String::from_utf8_lossy(&ok.stderr).contains("invariants hold"),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // More responses than requests: a reconciliation violation, named.
    let bad = tmp(
        "cm-bad.json",
        "{\"schema\":\"qsyn-metrics/1\",\
          \"counters\":{\"serve.requests\":1,\"serve.responses_ok\":2,\
                        \"serve.responses_error\":1},\
          \"gauges\":{},\"histograms\":{}}",
    );
    let fail = qsyn(&["check-metrics", bad.to_str().unwrap()]);
    assert!(!fail.status.success(), "violations must exit nonzero");
    let log = String::from_utf8_lossy(&fail.stderr);
    assert!(log.contains("violated"), "{log}");
    assert!(log.contains("responses 3 <= requests 1"), "{log}");

    // A wrong schema tag is a parse error, not a silent pass.
    let wrong = tmp("cm-wrong.json", "{\"schema\":\"other/9\",\"counters\":{}}");
    let rejected = qsyn(&["check-metrics", wrong.to_str().unwrap()]);
    assert!(!rejected.status.success());
}

#[test]
fn stream_verify_jobs_do_not_change_output() {
    // --stream-verify-jobs N is a pure throughput knob: serial and
    // pool-parallel window verification must produce byte-identical QASM
    // and the same windowed-miter verdict.
    let mut qasm = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[10];\n");
    for i in 0..48usize {
        match i % 3 {
            0 => qasm.push_str(&format!("h q[{}];\n", (i * 5 + 1) % 10)),
            1 => qasm.push_str(&format!("cx q[{}],q[{}];\n", (i * 7) % 10, (i * 7 + 3) % 10)),
            _ => qasm.push_str(&format!("t q[{}];\n", (i * 11 + 2) % 10)),
        }
    }
    let input = tmp("streamv.qasm", &qasm);
    let run = |jobs: &str, name: &str| {
        let out_path = tmp(name, "");
        let out = qsyn(&[
            "compile",
            input.to_str().unwrap(),
            "--device",
            "grid:4x4",
            "--stream",
            "6",
            "--stream-verify-jobs",
            jobs,
            "--out",
            out_path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let log = String::from_utf8_lossy(&out.stderr).into_owned();
        (std::fs::read_to_string(&out_path).unwrap(), log)
    };
    let (serial_qasm, serial_log) = run("1", "streamv1.qasm");
    let (par_qasm, par_log) = run("4", "streamv4.qasm");
    assert_eq!(serial_qasm, par_qasm, "parallel verification changed the QASM");
    let verdict_line = |log: &str| {
        log.lines()
            .find(|l| l.contains("verified") || l.contains("equivalence"))
            .map(str::to_string)
    };
    assert_eq!(verdict_line(&serial_log), verdict_line(&par_log));
    assert!(serial_log.contains("windowed-miter"), "{serial_log}");
}

#[test]
fn stream_verify_jobs_flag_is_validated() {
    let input = tmp("tof-svj.real", TOFFOLI_REAL);
    let without_stream = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--stream-verify-jobs",
        "2",
    ]);
    assert!(!without_stream.status.success());
    assert!(
        String::from_utf8_lossy(&without_stream.stderr).contains("requires --stream"),
        "{}",
        String::from_utf8_lossy(&without_stream.stderr)
    );
    let zero = qsyn(&[
        "compile",
        input.to_str().unwrap(),
        "--device",
        "ibmqx4",
        "--stream",
        "2",
        "--stream-verify-jobs",
        "0",
    ]);
    assert!(!zero.status.success());
    assert!(
        String::from_utf8_lossy(&zero.stderr).contains("worker count"),
        "{}",
        String::from_utf8_lossy(&zero.stderr)
    );
}
