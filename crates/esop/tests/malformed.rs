//! Malformed-input corpus for the `.pla` classical-specification parser:
//! truncations of a valid table and garbage must yield `Err`, never panic.

use qsyn_esop::parse_pla;
use std::panic::{catch_unwind, AssertUnwindSafe};

const PLA_SEED: &str = ".i 3
.o 2
.ilb a b c
.ob f g
.p 3
1-0 10
011 01
111 11
.e
";

#[test]
fn pla_truncations_and_garbage_never_panic() {
    let mut corpus: Vec<String> = PLA_SEED
        .char_indices()
        .map(|(i, _)| PLA_SEED[..i].to_string())
        .collect();
    corpus.push(PLA_SEED.to_string());
    corpus.extend([
        String::new(),
        ".i 3\n.o 1\n1--1-1 1\n.e\n".into(), // cube wider than .i
        ".i 2\n.o 1\n0 11\n.e\n".into(),     // outputs wider than .o
        ".i x\n.o 1\n.e\n".into(),           // non-numeric header
        "\u{0}\u{1}garbage".into(),
        "9".repeat(128),
    ]);
    for (k, input) in corpus.iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_pla(input);
        }));
        assert!(
            outcome.is_ok(),
            "pla parser panicked on case {k}: {input:?}"
        );
    }
}
