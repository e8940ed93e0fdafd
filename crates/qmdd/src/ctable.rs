//! Canonical complex-weight table.
//!
//! QMDD canonicity requires that numerically equal edge weights are
//! represented by the *same* identifier, so that node hashing and pointer
//! comparison see them as identical. The table interns complex values with a
//! tolerance: a lookup within [`qsyn_gate::EPSILON`] of a stored value snaps
//! to that value, which also prevents floating-point drift from accumulating
//! across long gate sequences.

use crate::fxhash::FxHashMap;
use qsyn_gate::{C64, EPSILON};

/// Identifier of an interned complex weight.
pub type WeightId = u32;

/// The interned weight `0`.
pub const W_ZERO: WeightId = 0;
/// The interned weight `1`.
pub const W_ONE: WeightId = 1;
/// The interned weight `-1`.
pub const W_NEG_ONE: WeightId = 2;

const BUCKET: f64 = 1.0 / (4.0 * EPSILON);

/// Interning table of complex edge weights with tolerance-based lookup.
#[derive(Debug, Default)]
pub struct WeightTable {
    values: Vec<C64>,
    buckets: FxHashMap<(i64, i64), Vec<WeightId>>,
}

impl WeightTable {
    /// Creates a table pre-seeded with the distinguished weights
    /// [`W_ZERO`], [`W_ONE`], and [`W_NEG_ONE`].
    pub fn new() -> Self {
        let mut t = WeightTable {
            values: Vec::new(),
            buckets: FxHashMap::default(),
        };
        let zero = t.intern(C64::ZERO);
        let one = t.intern(C64::ONE);
        let neg = t.intern(-C64::ONE);
        debug_assert_eq!(zero, W_ZERO);
        debug_assert_eq!(one, W_ONE);
        debug_assert_eq!(neg, W_NEG_ONE);
        t
    }

    fn key(v: C64) -> (i64, i64) {
        ((v.re * BUCKET).round() as i64, (v.im * BUCKET).round() as i64)
    }

    /// Interns `v`, returning the id of an existing value within tolerance
    /// or a fresh id.
    pub fn intern(&mut self, v: C64) -> WeightId {
        // Exact seeds skip the bucket probe; the seeds are interned first,
        // so the probe would find them anyway.
        if v.im == 0.0 && self.values.len() >= 3 {
            if v.re == 0.0 {
                return W_ZERO;
            }
            if v.re == 1.0 {
                return W_ONE;
            }
            if v.re == -1.0 {
                return W_NEG_ONE;
            }
        }
        let (kr, ki) = Self::key(v);
        for dr in -1..=1i64 {
            for di in -1..=1i64 {
                if let Some(ids) = self.buckets.get(&(kr + dr, ki + di)) {
                    for &id in ids {
                        if self.values[id as usize].approx_eq(v) {
                            return id;
                        }
                    }
                }
            }
        }
        let id = self.values.len() as WeightId;
        self.values.push(v);
        self.buckets.entry((kr, ki)).or_default().push(id);
        id
    }

    /// The canonical value for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    #[inline]
    pub fn value(&self, id: WeightId) -> C64 {
        self.values[id as usize]
    }

    /// Number of distinct interned weights.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds only the pre-seeded weights.
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 3
    }

    /// Interns the product of two weights.
    #[inline]
    pub fn mul(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if a == W_ZERO || b == W_ZERO {
            return W_ZERO;
        }
        if a == W_ONE {
            return b;
        }
        if b == W_ONE {
            return a;
        }
        let v = self.value(a) * self.value(b);
        self.intern(v)
    }

    /// Interns the sum of two weights.
    #[inline]
    pub fn add(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if a == W_ZERO {
            return b;
        }
        if b == W_ZERO {
            return a;
        }
        let v = self.value(a) + self.value(b);
        self.intern(v)
    }

    /// Interns the quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when dividing by the zero weight.
    #[inline]
    pub fn div(&mut self, a: WeightId, b: WeightId) -> WeightId {
        debug_assert_ne!(b, W_ZERO, "division by zero weight");
        if a == W_ZERO {
            return W_ZERO;
        }
        if b == W_ONE {
            return a;
        }
        if a == b {
            return W_ONE;
        }
        let v = self.value(a) / self.value(b);
        self.intern(v)
    }

    /// Interns the complex conjugate of `a`.
    #[inline]
    pub fn conj(&mut self, a: WeightId) -> WeightId {
        if a == W_ZERO || a == W_ONE || a == W_NEG_ONE {
            return a; // real distinguished weights are self-conjugate
        }
        let v = self.value(a).conj();
        self.intern(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable() {
        let t = WeightTable::new();
        assert!(t.value(W_ZERO).is_zero());
        assert!(t.value(W_ONE).is_one());
        assert!(t.value(W_NEG_ONE).approx_eq(-C64::ONE));
    }

    #[test]
    fn interning_dedupes_within_tolerance() {
        let mut t = WeightTable::new();
        let a = t.intern(C64::new(0.5, 0.25));
        let b = t.intern(C64::new(0.5 + 1e-12, 0.25 - 1e-12));
        assert_eq!(a, b);
        let c = t.intern(C64::new(0.5 + 1e-6, 0.25));
        assert_ne!(a, c);
    }

    #[test]
    fn snapping_prevents_drift() {
        let mut t = WeightTable::new();
        let h = t.intern(C64::FRAC_1_SQRT_2);
        // Repeatedly nudge; every lookup snaps back to the canonical value.
        let mut v = t.value(h);
        for _ in 0..1000 {
            v = C64::new(v.re + 1e-13, v.im);
            let id = t.intern(v);
            assert_eq!(id, h);
            v = t.value(id);
        }
    }

    #[test]
    fn arithmetic_shortcuts() {
        let mut t = WeightTable::new();
        let i = t.intern(C64::I);
        assert_eq!(t.mul(W_ZERO, i), W_ZERO);
        assert_eq!(t.mul(W_ONE, i), i);
        assert_eq!(t.mul(i, W_ONE), i);
        assert_eq!(t.add(W_ZERO, i), i);
        assert_eq!(t.div(i, i), W_ONE);
        let minus_one = t.mul(i, i);
        assert_eq!(minus_one, W_NEG_ONE);
    }

    #[test]
    fn conj_of_i() {
        let mut t = WeightTable::new();
        let i = t.intern(C64::I);
        let ci = t.conj(i);
        assert!(t.value(ci).approx_eq(-C64::I));
        assert_eq!(t.conj(W_ONE), W_ONE);
    }

    #[test]
    fn boundary_values_near_bucket_edges() {
        let mut t = WeightTable::new();
        // A value that rounds into a neighboring bucket must still be found.
        let eps = qsyn_gate::EPSILON;
        let base = t.intern(C64::new(2.0 * eps, 0.0));
        let near = t.intern(C64::new(2.0 * eps + 0.9 * eps, 0.0));
        assert_eq!(base, near);
    }
}
