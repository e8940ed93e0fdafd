//! Integration tests driving the experiment binaries end to end.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn table2_binary_matches_paper() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_table2"), &[]);
    assert!(ok);
    assert!(stdout.contains("| ibmqx2 | 5 | 0.300000 | 0.300000 |"));
    assert!(stdout.contains("qc96"));
}

#[test]
fn table7_binary_lists_benchmarks() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_table7"), &[]);
    assert!(ok);
    for name in ["T6_b", "T7_b", "T8_b", "T9_b", "T10_b"] {
        assert!(stdout.contains(name), "{name}");
    }
    assert!(stdout.contains("q85"));
}

#[test]
fn fig5_binary_reproduces_the_paper_path() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_fig5"), &[]);
    assert!(ok);
    assert!(stdout.contains("[5, 12, 11]"));
    assert!(stdout.contains("QMDD equivalence with the original CNOT: true"));
}

#[test]
fn table5_binary_without_verification() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_table5"), &["--no-verify"]);
    assert!(ok);
    assert!(stdout.contains("4gt12-v0_88"));
    assert!(stdout.contains("N/A"), "T5 rows are N/A on 5-qubit devices");
    assert!(stdout.contains("Table 6"));
}

#[test]
fn stress_binary_small_run() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_stress"), &["3"]);
    assert!(ok);
    assert!(stdout.contains("all outputs QMDD-verified"));
}

#[test]
fn suite_binary_runs_a_directory() {
    let dir = std::env::temp_dir().join(format!("qsyn-suite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("tof.real"),
        ".numvars 3\n.variables a b c\nt3 a b c\n",
    )
    .unwrap();
    std::fs::write(dir.join("xor.pla"), ".i 2\n.o 1\n10 1\n01 1\n.e\n").unwrap();
    let (ok, stdout, stderr) = run(
        env!("CARGO_BIN_EXE_suite"),
        &[dir.to_str().unwrap(), "ibmqx4"],
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("| tof |"), "{stdout}");
    assert!(stdout.contains("| xor |"));
}

#[test]
fn suite_binary_rejects_missing_dir() {
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn suite_binary_names_a_bad_argument_in_one_error_line() {
    let tmp = std::env::temp_dir();
    let missing = tmp.join(format!("qsyn-suite-missing-{}", std::process::id()));
    for (args, code, named) in [
        ([tmp.to_str().unwrap(), "nosuchdevice"], 2, "nosuchdevice"),
        (
            [missing.to_str().unwrap(), "ibmqx4"],
            1,
            "qsyn-suite-missing-",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(args)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(
            stderr.starts_with("error:") && stderr.contains(named),
            "{stderr}"
        );
    }
}

#[test]
fn scaling_binary_smallest_width() {
    let (ok, stdout, _) = run(env!("CARGO_BIN_EXE_scaling"), &["8"]);
    assert!(ok);
    assert!(stdout.contains("Width scaling"));
    assert!(stdout.contains("| 8 |"));
}
