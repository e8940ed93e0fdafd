//! The boolean QMDD check the integration tests assert with; each test
//! crate that needs it includes this as `mod check;`.

use qsyn::prelude::*;

/// Whether `a` and `b` realize the same unitary, exactly: the compiler's
/// canonical check on the pair's support, unbudgeted.
pub fn qmdd_equal(a: &Circuit, b: &Circuit) -> bool {
    let support = miter_support(a, b);
    try_equivalent_on(
        &support,
        a,
        b,
        EquivMethod::Canonical,
        EquivBudget::default(),
    )
    .expect("an unbudgeted check cannot exhaust")
    .equivalent
}
