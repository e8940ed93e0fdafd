//! The paper's blanket claim, as one test: "All outputs were confirmed to
//! be the same function as their original technology-independent
//! description by building the QMDD data structure for each design and
//! testing for equivalence." Compile the full RevLib suite across every
//! IBM device with verification enabled and assert nothing slips.

use qsyn::bench::revlib::REVLIB_BENCHMARKS;
use qsyn::prelude::*;

#[test]
fn every_revlib_mapping_is_qmdd_verified() {
    let mut verified = 0usize;
    let mut na = 0usize;
    for b in REVLIB_BENCHMARKS {
        for device in devices::ibm_devices() {
            match Compiler::new(device.clone()).compile(&b.circuit()) {
                Ok(r) => {
                    assert_eq!(r.verified, Some(true), "{} on {}", b.name, device.name());
                    verified += 1;
                }
                Err(CompileError::NoAncilla { .. }) | Err(CompileError::TooWide { .. }) => {
                    na += 1;
                }
                Err(e) => panic!("{} on {}: {e}", b.name, device.name()),
            }
        }
    }
    // Table 5 shape: 23 mappings succeed, 2 are N/A (T5 on the 5-qubit
    // machines).
    assert_eq!(verified, 23);
    assert_eq!(na, 2);
}

#[test]
fn stg_small_functions_verified_everywhere() {
    for id in ["1", "3", "0f", "0356"] {
        let cascade = qsyn::bench::stg::stg_by_id(id).unwrap().cascade();
        for device in devices::ibm_devices() {
            if let Ok(r) = Compiler::new(device.clone()).compile(&cascade) {
                assert_eq!(r.verified, Some(true), "#{id} on {}", device.name());
            }
        }
    }
}
