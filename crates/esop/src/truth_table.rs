//! Truth tables of classical switching functions.
//!
//! The front-end accepts completely specified single-output Boolean
//! functions; the "Optimal single-target gates" benchmark suite names its
//! functions by the hexadecimal value of exactly this table.

use std::fmt;

/// A completely specified Boolean function of `n` variables, stored as a
/// `2^n`-bit table. Bit `i` holds `f(i)`, where variable 0 is the
/// most-significant bit of the input index (matching the qubit-0-on-top
/// convention used throughout the workspace).
///
/// # Examples
///
/// ```
/// use qsyn_esop::TruthTable;
/// let and = TruthTable::from_hex(2, "8").unwrap(); // f = x0 AND x1
/// assert!(and.eval(0b11));
/// assert!(!and.eval(0b10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    n_vars: usize,
    bits: Vec<u64>,
}

impl TruthTable {
    /// Maximum supported variable count (bounded so tables stay in memory).
    pub const MAX_VARS: usize = 24;

    /// The constant-false function of `n_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars > Self::MAX_VARS`.
    pub fn zeros(n_vars: usize) -> Self {
        assert!(n_vars <= Self::MAX_VARS, "too many variables");
        let words = Self::words_for(n_vars);
        TruthTable {
            n_vars,
            bits: vec![0; words],
        }
    }

    fn words_for(n_vars: usize) -> usize {
        if n_vars >= 6 {
            1 << (n_vars - 6)
        } else {
            1
        }
    }

    /// Number of input variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of rows (`2^n_vars`).
    pub fn len(&self) -> usize {
        1 << self.n_vars
    }

    /// Whether the function is constant false.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Builds a table from a big-endian hexadecimal string: the paper's
    /// benchmark ids (`#033f` on 4 control variables means the 16-bit table
    /// `0x033f`, where the least-significant hex bit is `f(0)`).
    ///
    /// # Errors
    ///
    /// Returns an error for more than [`Self::MAX_VARS`] variables,
    /// non-hex characters, or a value that does not fit in `2^n_vars` bits.
    pub fn from_hex(n_vars: usize, hex: &str) -> Result<Self, String> {
        if n_vars > Self::MAX_VARS {
            return Err(format!(
                "{n_vars} variables exceed the {}-variable limit",
                Self::MAX_VARS
            ));
        }
        let mut tt = TruthTable::zeros(n_vars);
        let mut bit = 0usize;
        for ch in hex.trim().trim_start_matches("0x").chars().rev() {
            let v = ch
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit `{ch}`"))? as u64;
            for k in 0..4 {
                if v >> k & 1 == 1 {
                    let idx = bit + k;
                    if idx >= tt.len() {
                        return Err(format!(
                            "hex value needs {} rows but the table has only {}",
                            idx + 1,
                            tt.len()
                        ));
                    }
                    tt.set(idx as u64, true);
                }
            }
            bit += 4;
        }
        Ok(tt)
    }

    /// Builds a table from a predicate over input rows.
    pub fn from_fn(n_vars: usize, f: impl Fn(u64) -> bool) -> Self {
        let mut tt = TruthTable::zeros(n_vars);
        for i in 0..tt.len() as u64 {
            if f(i) {
                tt.set(i, true);
            }
        }
        tt
    }

    /// The value `f(input)`, reading variable 0 from the most significant
    /// input bit.
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^n_vars`.
    pub fn eval(&self, input: u64) -> bool {
        assert!((input as usize) < self.len(), "input out of range");
        self.bits[(input >> 6) as usize] >> (input & 63) & 1 == 1
    }

    /// Sets `f(input)`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= 2^n_vars`.
    pub fn set(&mut self, input: u64, value: bool) {
        assert!((input as usize) < self.len(), "input out of range");
        let w = &mut self.bits[(input >> 6) as usize];
        if value {
            *w |= 1 << (input & 63);
        } else {
            *w &= !(1 << (input & 63));
        }
    }

    /// Number of satisfying rows.
    pub fn popcount(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// XORs another table into this one.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn xor_assign(&mut self, other: &TruthTable) {
        assert_eq!(self.n_vars, other.n_vars, "variable count mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a ^= *b;
        }
    }

    /// The positive-polarity Reed-Muller (PPRM) spectrum: the result's bit
    /// `m` is the coefficient of the monomial whose variable set is the
    /// ones of `m` (with variable 0 = most significant bit). Computed with
    /// the in-place GF(2) butterfly in `O(2^n * n)`.
    pub fn pprm_spectrum(&self) -> TruthTable {
        let mut s = self.clone();
        // Butterfly over input-index bit positions (0 = lsb = variable
        // n_vars-1). For each position, coef[x | bit] ^= coef[x].
        for v in 0..self.n_vars {
            let step = 1u64 << v;
            if v < 6 {
                // Within-word butterfly using shift masks.
                let mask = splat_mask(v);
                for w in s.bits.iter_mut() {
                    *w ^= (*w & mask) << step;
                }
            } else {
                let word_step = 1usize << (v - 6);
                let mut i = 0usize;
                while i < s.bits.len() {
                    for k in 0..word_step {
                        let low = s.bits[i + k];
                        s.bits[i + k + word_step] ^= low;
                    }
                    i += word_step * 2;
                }
            }
        }
        s
    }
}

/// A 64-bit mask selecting, for a butterfly at bit position `v < 6`, the
/// lanes whose `v`-th index bit is zero.
fn splat_mask(v: usize) -> u64 {
    match v {
        0 => 0x5555_5555_5555_5555,
        1 => 0x3333_3333_3333_3333,
        2 => 0x0f0f_0f0f_0f0f_0f0f,
        3 => 0x00ff_00ff_00ff_00ff,
        4 => 0x0000_ffff_0000_ffff,
        5 => 0x0000_0000_ffff_ffff,
        _ => unreachable!("within-word positions only"),
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tt{}v:", self.n_vars)?;
        // Big-endian hex, most significant row first.
        let mut nibble = 0u8;
        let mut out = String::new();
        for row in (0..self.len() as u64).rev() {
            nibble = nibble << 1 | self.eval(row) as u8;
            if row % 4 == 0 {
                out.push(char::from_digit(nibble as u32, 16).expect("nibble"));
                nibble = 0;
            }
        }
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_hex_and_eval() {
        // 2 vars, table 0x8 = row 3 only -> AND.
        let and = TruthTable::from_hex(2, "8").unwrap();
        assert!(and.eval(3));
        assert!(!and.eval(0) && !and.eval(1) && !and.eval(2));
        assert_eq!(and.popcount(), 1);
    }

    #[test]
    fn from_hex_multi_word() {
        // 7 vars = 128 rows = 2 words.
        let t = TruthTable::from_hex(7, "80000000000000000000000000000001").unwrap();
        assert!(t.eval(0));
        assert!(t.eval(127));
        assert_eq!(t.popcount(), 2);
    }

    #[test]
    fn from_hex_rejects_garbage_and_overflow() {
        assert!(TruthTable::from_hex(2, "zz").is_err());
        assert!(TruthTable::from_hex(2, "1ff").is_err());
    }

    #[test]
    fn from_hex_rejects_too_many_variables() {
        for n in [TruthTable::MAX_VARS + 1, 40, 64, 100] {
            let err = TruthTable::from_hex(n, "8").unwrap_err();
            assert!(err.contains("24-variable limit"), "{n}: {err}");
        }
        assert!(TruthTable::from_hex(TruthTable::MAX_VARS, "8").is_ok());
    }

    #[test]
    fn set_and_eval_round_trip() {
        let mut t = TruthTable::zeros(6);
        t.set(63, true);
        t.set(0, true);
        assert!(t.eval(63) && t.eval(0));
        t.set(63, false);
        assert!(!t.eval(63));
    }

    #[test]
    fn xor_assign() {
        let a = TruthTable::from_hex(2, "9").unwrap();
        let mut b = TruthTable::from_hex(2, "3").unwrap();
        b.xor_assign(&a);
        assert_eq!(b, TruthTable::from_hex(2, "a").unwrap());
    }

    #[test]
    fn pprm_of_xor_function() {
        // f(x0, x1) = x0 XOR x1: table rows 1,2 -> 0x6.
        let f = TruthTable::from_hex(2, "6").unwrap();
        let s = f.pprm_spectrum();
        // Monomials: index bit pattern m (var0 = msb). Expect x0 and x1
        // coefficients set, no constant, no x0x1.
        assert!(!s.eval(0b00)); // constant
        assert!(s.eval(0b01)); // x1 (lsb index bit = variable 1)
        assert!(s.eval(0b10)); // x0
        assert!(!s.eval(0b11)); // x0 x1
    }

    #[test]
    fn pprm_of_and_function() {
        let f = TruthTable::from_hex(2, "8").unwrap();
        let s = f.pprm_spectrum();
        assert_eq!(s.popcount(), 1);
        assert!(s.eval(0b11)); // single monomial x0 x1
    }

    #[test]
    fn pprm_reconstructs_function() {
        // Verify the spectrum by re-evaluating the polynomial for every
        // function of 3 variables.
        for code in 0..256u64 {
            let f = TruthTable::from_fn(3, |i| code >> i & 1 == 1);
            let s = f.pprm_spectrum();
            for x in 0..8u64 {
                let mut acc = false;
                for m in 0..8u64 {
                    // Monomial m evaluates to 1 iff m's variables are all 1
                    // in x: m & x == m.
                    if s.eval(m) && m & x == m {
                        acc = !acc;
                    }
                }
                assert_eq!(acc, f.eval(x), "code {code} at {x}");
            }
        }
    }

    #[test]
    fn pprm_large_crosses_word_boundary() {
        let f = TruthTable::from_fn(8, |i| (i * 37 + 11) % 5 == 0);
        let s = f.pprm_spectrum();
        // Spot-check reconstruction on a few rows.
        for x in [0u64, 1, 100, 200, 255] {
            let mut acc = false;
            for m in 0..256u64 {
                if s.eval(m) && m & x == m {
                    acc = !acc;
                }
            }
            assert_eq!(acc, f.eval(x));
        }
    }

    #[test]
    fn display_round_trips_hex() {
        let f = TruthTable::from_hex(4, "033f").unwrap();
        assert_eq!(f.to_string(), "tt4v:033f");
    }
}
