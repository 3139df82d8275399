//! Arbitrary-precision unsigned integers.
//!
//! Representation: little-endian base-2⁶⁴ limbs with no trailing zero
//! limb (zero has none). Values below 2¹²⁸ — almost every probability
//! weight the engine meets — keep their limbs inline, so building,
//! cloning and dropping them never touches the heap; wider values spill
//! to a `Vec`. All arithmetic is exact; division is Knuth's Algorithm D,
//! GCD is binary (Stein's algorithm) so that rational normalization
//! never goes through slow repeated division.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Deref, Mul, MulAssign, Shl, Shr, Sub, SubAssign};

/// An arbitrary-precision unsigned integer.
///
/// ```
/// use pfq_num::BigUint;
/// let a = BigUint::from(2u64).pow(200);
/// let (q, r) = a.div_rem(&BigUint::from(3u64).pow(40));
/// assert_eq!(q.mul_ref(&BigUint::from(3u64).pow(40)).add_ref(&r), a);
/// assert_eq!(BigUint::from(12u64).gcd(&BigUint::from(18u64)), BigUint::from(6u64));
/// ```
#[derive(Clone, Default)]
pub struct BigUint {
    /// Little-endian base-2⁶⁴ limbs; invariant: no trailing zero limb.
    limbs: Limbs,
}

/// The limbs of a [`BigUint`]: inline up to two, on the heap beyond.
///
/// The inline length is implied by the no-trailing-zero invariant —
/// `[0, 0]` is 0, `[x, 0]` one limb, `[x, y]` with `y ≠ 0` two — so the
/// enum needs no length field, and its tag lives in the `Vec`'s
/// capacity niche: it is as wide as the `Vec` alone. `Heap` holds only
/// vectors of three or more limbs, so each value has one form.
#[derive(Clone)]
enum Limbs {
    Inline([u64; 2]),
    Heap(Vec<u64>),
}

// A `BigUint` is as wide as a `Vec`, and a `Ratio` (a sign, two
// magnitudes) fits the 56 bytes `pfq_data::Value` allows it.
const _: () = assert!(std::mem::size_of::<BigUint>() == 24);
const _: () = assert!(std::mem::size_of::<crate::Ratio>() <= 56);

impl Default for Limbs {
    fn default() -> Self {
        Limbs::Inline([0, 0])
    }
}

impl Limbs {
    /// The limbs as a `Vec`, reusing the heap buffer when there is one.
    fn into_vec(self) -> Vec<u64> {
        match self {
            Limbs::Heap(limbs) => limbs,
            inline => inline.to_vec(),
        }
    }
}

impl Deref for Limbs {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            // Two limbs unless the top one is 0, one fewer unless both are.
            Limbs::Inline(words) => {
                let [lo, hi] = *words;
                let len = 2 - (hi == 0) as usize - ((lo | hi) == 0) as usize;
                &words[..len]
            }
            Limbs::Heap(limbs) => limbs,
        }
    }
}

// Equality and hashing are those of the limb slice (a slice hashes its
// length, then its limbs), so a value hashes the same whichever variant
// holds it, and as a `Vec<u64>` of its limbs does.
impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        *self.limbs == *other.limbs
    }
}

impl Eq for BigUint {}

impl Hash for BigUint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.limbs).hash(state);
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint::default()
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint::from(1u64)
    }

    /// Builds from raw little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        let limbs = match *limbs {
            [] => Limbs::Inline([0, 0]),
            [lo] => Limbs::Inline([lo, 0]),
            [lo, hi] => Limbs::Inline([lo, hi]),
            _ => Limbs::Heap(limbs),
        };
        BigUint { limbs }
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Whether the value is 0.
    pub fn is_zero(&self) -> bool {
        matches!(self.limbs, Limbs::Inline([0, 0]))
    }

    /// Whether the value is 1.
    pub fn is_one(&self) -> bool {
        matches!(self.limbs, Limbs::Inline([1, 0]))
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(top) => limbs.len() as u64 * 64 - top.leading_zeros() as u64,
        }
    }

    /// Value of bit `i` (counting from the least-significant bit).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        self.limbs()
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Number of trailing zero bits; `None` for the value 0.
    pub fn trailing_zeros(&self) -> Option<u64> {
        trailing_zeros(&self.limbs)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs {
            Limbs::Inline([lo, 0]) => Some(lo),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs {
            Limbs::Inline([lo, hi]) => Some((hi as u128) << 64 | lo as u128),
            Limbs::Heap(_) => None,
        }
    }

    /// Lossy conversion to `f64` (rounds; huge values become `f64::INFINITY`).
    pub fn to_f64(&self) -> f64 {
        let limbs = self.limbs();
        match limbs.len() {
            0 => 0.0,
            1 => limbs[0] as f64,
            2 => self.to_u128().unwrap() as f64,
            n => {
                // Take the top 128 bits and scale by the remaining exponent.
                let hi = (limbs[n - 1] as u128) << 64 | limbs[n - 2] as u128;
                let exp = (n - 2) as i32 * 64;
                (hi as f64) * 2f64.powi(exp)
            }
        }
    }

    /// `self + other`.
    #[allow(clippy::needless_range_loop)] // lockstep carry propagation over two slices
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self.limbs(), other.limbs())
        } else {
            (other.limbs(), self.limbs())
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`; panics if `other > self`.
    pub fn sub_ref(&self, other: &BigUint) -> BigUint {
        assert!(
            *self >= *other,
            "BigUint subtraction underflow: {self} - {other}"
        );
        let (long, short) = (self.limbs(), other.limbs());
        let mut out = Vec::with_capacity(long.len());
        let mut borrow = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// `self * other` (schoolbook multiplication).
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let (x, y) = (self.limbs(), other.limbs());
        let mut out = vec![0u64; x.len() + y.len()];
        for (i, &a) in x.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in y.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + y.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Division with remainder by a single `u64`; panics on division by zero.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let limbs = self.limbs();
        let mut q = vec![0u64; limbs.len()];
        let mut rem = 0u128;
        for i in (0..limbs.len()).rev() {
            let cur = rem << 64 | limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(q), rem as u64)
    }

    /// Euclidean division with remainder; panics on division by zero.
    ///
    /// Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
    pub fn div_rem(&self, other: &BigUint) -> (BigUint, BigUint) {
        assert!(!other.is_zero(), "division by zero");
        if self < other {
            return (BigUint::zero(), self.clone());
        }
        if let Some(d) = other.to_u64() {
            let (q, r) = self.div_rem_u64(d);
            return (q, BigUint::from(r));
        }

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = other.limbs().last().unwrap().leading_zeros();
        let v = other.shl_bits(shift as u64);
        let v = v.limbs();
        let mut u = self.shl_bits(shift as u64).limbs.into_vec();
        let n = v.len();
        u.push(0); // extra high limb for the algorithm
        let m = u.len() - n - 1;
        let vtop = v[n - 1];
        let vsec = v[n - 2];
        let mut q = vec![0u64; m + 1];

        // D2..D7: compute one quotient limb per iteration, from the top.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two limbs of the current window.
            let top = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut qhat = top / vtop as u128;
            let mut rhat = top % vtop as u128;
            while qhat >> 64 != 0 || qhat * vsec as u128 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += vtop as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: multiply-and-subtract qhat * v from u[j .. j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;
            // D5/D6: if we subtracted too much, add v back once.
            if t < 0 {
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s1, c1) = u[j + i].overflowing_add(v[i]);
                    let (s2, c2) = s1.overflowing_add(carry);
                    u[j + i] = s2;
                    carry = (c1 as u64) + (c2 as u64);
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            q[j] = qhat as u64;
        }

        // D8: denormalize the remainder.
        let rem = BigUint::from_limbs(u[..n].to_vec()).shr_bits(shift as u64);
        (BigUint::from_limbs(q), rem)
    }

    /// Left shift by an arbitrary bit count.
    pub fn shl_bits(&self, bits: u64) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(self.limbs());
        } else {
            let mut carry = 0u64;
            for &l in self.limbs() {
                out.push(l << bit_shift | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by an arbitrary bit count (bits shifted out are dropped).
    pub fn shr_bits(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        let limbs = self.limbs();
        if limb_shift >= limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push(src[i] >> bit_shift | hi.checked_shl(64 - bit_shift as u32).unwrap_or(0));
        }
        BigUint::from_limbs(out)
    }

    /// Greatest common divisor (binary/Stein algorithm). Operands that
    /// fit in a `u128` are reduced in registers, without allocating per
    /// step; a unit operand answers at once, however wide the other.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_one() || other.is_one() {
            return BigUint::one();
        }
        match (self.to_u128(), other.to_u128()) {
            (Some(a), Some(b)) => BigUint::from(gcd_u128(a, b)),
            _ => self.gcd_multi_limb(other),
        }
    }

    /// [`BigUint::gcd`] on limb vectors: the path for operands wider
    /// than a `u128`. It subtracts and shifts in place on two owned
    /// buffers, so a step allocates nothing, and hands off to
    /// [`gcd_u128`] once both operands fit in one.
    pub(crate) fn gcd_multi_limb(&self, other: &BigUint) -> BigUint {
        let (Some(za), Some(zb)) = (self.trailing_zeros(), other.trailing_zeros()) else {
            return if self.is_zero() { other } else { self }.clone();
        };
        let mut a = self.limbs().to_vec();
        let mut b = other.limbs().to_vec();
        shr_in_place(&mut a, za);
        shr_in_place(&mut b, zb);
        // Invariant: a, b both odd.
        loop {
            match cmp_limbs(&a, &b) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            sub_in_place(&mut a, &b);
            // a is now even and nonzero.
            let z = trailing_zeros(&a).expect("a − b > 0");
            shr_in_place(&mut a, z);
            if let (Some(x), Some(y)) = (limbs_to_u128(&a), limbs_to_u128(&b)) {
                return BigUint::from(gcd_u128(x, y)).shl_bits(za.min(zb));
            }
        }
        BigUint::from_limbs(a).shl_bits(za.min(zb))
    }

    /// Number of decimal digits — `self.to_string().len()` without
    /// building the string (`0` has one digit).
    pub fn decimal_digits(&self) -> usize {
        if let Some(v) = self.to_u128() {
            return v.checked_ilog10().map_or(1, |d| d as usize + 1);
        }
        // Peel off 19 digits at a time, as `Display` does.
        let mut cur = self.clone();
        let mut digits = 0;
        while cur.limbs.len() > 2 {
            cur = cur.div_rem_u64(DECIMAL_CHUNK).0;
            digits += 19;
        }
        digits + cur.decimal_digits()
    }

    /// `self ^ exp` by repeated squaring.
    pub fn pow(&self, mut exp: u64) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp != 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp != 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// Parses a decimal string of ASCII digits.
    pub fn from_decimal(s: &str) -> Option<BigUint> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut acc = BigUint::zero();
        let ten = BigUint::from(10u64);
        for b in s.bytes() {
            acc = acc.mul_ref(&ten).add_ref(&BigUint::from((b - b'0') as u64));
        }
        Some(acc)
    }
}

/// `10¹⁹`, the largest power of ten below `2⁶⁴`.
const DECIMAL_CHUNK: u64 = 10_000_000_000_000_000_000;

/// Greatest common divisor of two machine words (binary/Stein, no
/// allocation); `gcd(0, b) = b`.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let common = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    // Invariant: a, b both odd.
    while a != b {
        if a < b {
            std::mem::swap(&mut a, &mut b);
        }
        a -= b;
        a >>= a.trailing_zeros();
    }
    a << common
}

/// [`gcd_u64`] on double words; drops to single words once both
/// operands fit.
pub(crate) fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let common = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    b >>= b.trailing_zeros();
    while a != b {
        if (a | b) >> 64 == 0 {
            return (gcd_u64(a as u64, b as u64) as u128) << common;
        }
        if a < b {
            std::mem::swap(&mut a, &mut b);
        }
        a -= b;
        a >>= a.trailing_zeros();
    }
    a << common
}

/// The order of two trimmed limb slices: more limbs is larger, then the
/// top limbs decide.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a -= b` on trimmed limbs, for `a ≥ b`; keeps `a` trimmed.
fn sub_in_place(a: &mut Vec<u64>, b: &[u64]) {
    let mut borrow = false;
    for (i, x) in a.iter_mut().enumerate() {
        let (d1, b1) = x.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 | b2;
    }
    debug_assert!(!borrow, "limb subtraction underflow");
    trim(a);
}

/// `a >>= bits` on trimmed limbs; keeps `a` trimmed.
fn shr_in_place(a: &mut Vec<u64>, bits: u64) {
    let limb_shift = ((bits / 64) as usize).min(a.len());
    a.drain(..limb_shift);
    let bit_shift = bits % 64;
    if bit_shift != 0 {
        for i in 0..a.len() {
            let hi = a.get(i + 1).map_or(0, |&h| h << (64 - bit_shift));
            a[i] = a[i] >> bit_shift | hi;
        }
    }
    trim(a);
}

/// Number of trailing zero bits of limbs; `None` for the value 0.
fn trailing_zeros(a: &[u64]) -> Option<u64> {
    let i = a.iter().position(|&l| l != 0)?;
    Some(i as u64 * 64 + a[i].trailing_zeros() as u64)
}

/// Drops trailing zero limbs.
fn trim(a: &mut Vec<u64>) {
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// The value of trimmed limbs, if it fits in a `u128`.
fn limbs_to_u128(a: &[u64]) -> Option<u128> {
    match *a {
        [] => Some(0),
        [lo] => Some(lo as u128),
        [lo, hi] => Some((hi as u128) << 64 | lo as u128),
        _ => None,
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint {
            limbs: Limbs::Inline([v, 0]),
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint {
            limbs: Limbs::Inline([v as u64, (v >> 64) as u64]),
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        // Two inline values compare as their (high, low) word pairs.
        if let (Limbs::Inline([a0, a1]), Limbs::Inline([b0, b1])) = (&self.limbs, &other.limbs) {
            return (a1, a0).cmp(&(b1, b0));
        }
        cmp_limbs(self.limbs(), other.limbs())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}
impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        self.add_ref(&rhs)
    }
}
impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_ref(rhs);
    }
}
impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.sub_ref(rhs)
    }
}
impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        self.sub_ref(&rhs)
    }
}
impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self.sub_ref(rhs);
    }
}
impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}
impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_ref(&rhs)
    }
}
impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = self.mul_ref(rhs);
    }
}
impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        self.shl_bits(bits)
    }
}
impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self.shr_bits(bits)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Peel off 19 decimal digits at a time (10^19 < 2^64).
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(DECIMAL_CHUNK);
            digits.push(r);
            cur = q;
        }
        let mut s = digits.pop().unwrap().to_string();
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Operands clustered at the word-size boundaries the fast paths
    /// switch on: tiny, around 2³² and 2⁶³, just below 2⁶⁴, and uniform.
    pub(crate) fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..16,
            (1u64 << 32) - 4..(1u64 << 32) + 4,
            (1u64 << 63) - 8..(1u64 << 63) + 8,
            u64::MAX - 15..=u64::MAX,
            any::<u64>(),
        ]
    }

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::zero(), BigUint::from(0u64));
    }

    #[test]
    fn from_limbs_normalizes() {
        assert_eq!(BigUint::from_limbs(vec![0, 0, 0]), BigUint::zero());
        assert_eq!(BigUint::from_limbs(vec![5, 0]), BigUint::from(5u64));
    }

    #[test]
    fn add_with_carry_chain() {
        let a = big(u128::MAX);
        let b = BigUint::one();
        let s = a.add_ref(&b);
        assert_eq!(s.limbs(), &[0, 0, 1]);
        assert_eq!(s.sub_ref(&b), big(u128::MAX));
    }

    #[test]
    fn sub_basic() {
        assert_eq!(big(1000).sub_ref(&big(1)), big(999));
        assert_eq!(big(1 << 64).sub_ref(&big(1)), big((1 << 64) - 1));
        assert_eq!(big(42).sub_ref(&big(42)), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1).sub_ref(&big(2));
    }

    #[test]
    fn mul_cross_limb() {
        let a = big(u64::MAX as u128);
        let sq = a.mul_ref(&a);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let expected = ((1u128 << 64) - 1).wrapping_mul((1u128 << 64) - 1);
        assert_eq!(sq.to_u128().unwrap(), expected);
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = big(123456789);
        assert_eq!(a.mul_ref(&BigUint::zero()), BigUint::zero());
        assert_eq!(a.mul_ref(&BigUint::one()), a);
    }

    #[test]
    fn div_rem_u64_matches() {
        let a = big(12345678901234567890123456789);
        let (q, r) = a.div_rem_u64(97);
        assert_eq!(q.to_u128().unwrap(), 12345678901234567890123456789 / 97);
        assert_eq!(r as u128, 12345678901234567890123456789 % 97);
    }

    #[test]
    fn div_rem_multi_limb() {
        // 2^192 / (2^64 + 3)
        let a = BigUint::one().shl_bits(192);
        let b = big((1u128 << 64) + 3);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul_ref(&b).add_ref(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_smaller_by_larger() {
        let (q, r) = big(5).div_rem(&big(7));
        assert!(q.is_zero());
        assert_eq!(r, big(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big(0xDEADBEEFCAFEBABE);
        assert_eq!(a.shl_bits(100).shr_bits(100), a);
        assert_eq!(a.shl_bits(0), a);
        assert_eq!(a.shr_bits(200), BigUint::zero());
    }

    #[test]
    fn bit_access() {
        let a = big(0b1010);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert!(!a.bit(1000));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
        assert_eq!(big(48).gcd(&big(48)), big(48));
        // Large power-of-two-heavy case.
        let a = BigUint::from(3u64).pow(40).shl_bits(50);
        let b = BigUint::from(3u64).pow(20).shl_bits(70);
        assert_eq!(a.gcd(&b), BigUint::from(3u64).pow(20).shl_bits(50));
    }

    #[test]
    fn gcd_with_one_is_one_on_a_wide_operand() {
        let wide = BigUint::from(3u64).pow(400);
        assert_eq!(wide.limbs().len(), 10);
        assert_eq!(wide.gcd(&BigUint::one()), BigUint::one());
        assert_eq!(BigUint::one().gcd(&wide), BigUint::one());
        assert_eq!(wide.gcd_multi_limb(&BigUint::one()), BigUint::one());
    }

    #[test]
    fn pow_basics() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(7).pow(0), BigUint::one());
        assert_eq!(big(0).pow(5), BigUint::zero());
        assert_eq!(big(2).pow(100).bits(), 101);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let a = big(2).pow(100);
        assert_eq!(a.to_string(), "1267650600228229401496703205376");
        assert_eq!(BigUint::from_decimal(&a.to_string()).unwrap(), a);
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from_decimal("x"), None);
        assert_eq!(BigUint::from_decimal(""), None);
    }

    #[test]
    fn to_f64_large() {
        let a = big(2).pow(100);
        let f = a.to_f64();
        assert!((f - 2f64.powi(100)).abs() / 2f64.powi(100) < 1e-10);
        assert_eq!(BigUint::zero().to_f64(), 0.0);
        assert_eq!(big(12345).to_f64(), 12345.0);
    }

    #[test]
    fn ordering() {
        assert!(big(5) < big(6));
        assert!(big(1 << 80) > big(u64::MAX as u128));
        assert!(BigUint::zero() < BigUint::one());
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let s = big(a as u128).add_ref(&big(b as u128));
            prop_assert_eq!(s.to_u128().unwrap(), a as u128 + b as u128);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let p = big(a as u128).mul_ref(&big(b as u128));
            prop_assert_eq!(p.to_u128().unwrap(), a as u128 * b as u128);
        }

        #[test]
        fn prop_div_rem_invariant(a in any::<u128>(), b in 1..=u128::MAX) {
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q.mul_ref(&big(b)).add_ref(&r), big(a));
            prop_assert!(r < big(b));
        }

        #[test]
        fn prop_div_rem_large(a_hi in any::<u64>(), a_lo in any::<u64>(),
                              b_hi in 1..=u64::MAX, b_lo in any::<u64>()) {
            // 3-limb dividend, 2-limb divisor exercises the Knuth D core.
            let a = BigUint::from_limbs(vec![a_lo, a_hi, 1]);
            let b = BigUint::from_limbs(vec![b_lo, b_hi]);
            let (q, r) = a.div_rem(&b);
            prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
            prop_assert!(r < b);
        }

        #[test]
        fn prop_gcd_matches_euclid(a in any::<u64>(), b in any::<u64>()) {
            fn euclid(mut a: u64, mut b: u64) -> u64 {
                while b != 0 { let t = a % b; a = b; b = t; }
                a
            }
            prop_assert_eq!(big(a as u128).gcd(&big(b as u128)), big(euclid(a, b) as u128));
        }

        #[test]
        fn prop_gcd_divides(a in any::<u64>(), b in 1..=u64::MAX) {
            let g = big(a as u128).gcd(&big(b as u128));
            let (_, r1) = big(b as u128).div_rem(&g);
            prop_assert!(r1.is_zero());
            if a != 0 {
                let (_, r2) = big(a as u128).div_rem(&g);
                prop_assert!(r2.is_zero());
            }
        }

        #[test]
        fn prop_sub_add_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            prop_assert_eq!(big(hi).sub_ref(&big(lo)).add_ref(&big(lo)), big(hi));
        }

        #[test]
        fn prop_shift_is_mul_by_pow2(a in any::<u64>(), s in 0u64..64) {
            let shifted = big(a as u128).shl_bits(s);
            prop_assert_eq!(shifted, big((a as u128) << s));
        }

        #[test]
        fn prop_display_roundtrip(a in any::<u128>()) {
            let x = big(a);
            prop_assert_eq!(BigUint::from_decimal(&x.to_string()).unwrap(), x);
        }
    }

    /// A limb: zero (so vectors carry trailing and inner zero limbs),
    /// all ones, or a word clustered at the fast paths' boundaries.
    fn limb() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(u64::MAX), edge_u64()]
    }

    /// `limbs` without its trailing zero limbs.
    fn trimmed(limbs: &[u64]) -> &[u64] {
        let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
        &limbs[..len]
    }

    /// The order of two trimmed limb slices: more limbs is larger, then
    /// the top limbs decide.
    fn limb_order(a: &[u64], b: &[u64]) -> Ordering {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn prop_limb_vectors_roundtrip(a in proptest::collection::vec(limb(), 0..=4),
                                       b in proptest::collection::vec(limb(), 0..=4),
                                       shift in 0u64..200) {
            // Values from 0 to 256 bits, on both sides of the inline
            // two-limb boundary, built from untrimmed limb vectors.
            let (x, y) = (BigUint::from_limbs(a.clone()), BigUint::from_limbs(b.clone()));
            prop_assert_eq!(x.limbs(), trimmed(&a));
            prop_assert_eq!(y.limbs(), trimmed(&b));
            prop_assert_eq!(x.cmp(&y), limb_order(trimmed(&a), trimmed(&b)));
            prop_assert_eq!(x == y, trimmed(&a) == trimmed(&b));
            if let (Some(u), Some(v)) = (x.to_u128(), y.to_u128()) {
                if let Some(s) = u.checked_add(v) {
                    prop_assert_eq!(x.add_ref(&y), big(s));
                }
                if let Some(p) = u.checked_mul(v) {
                    prop_assert_eq!(x.mul_ref(&y), big(p));
                }
                if u >= v {
                    prop_assert_eq!(x.sub_ref(&y), big(u - v));
                }
                if let (Some(q), Some(r)) = (u.checked_div(v), u.checked_rem(v)) {
                    prop_assert_eq!(x.div_rem(&y), (big(q), big(r)));
                }
            }
            let sum = x.add_ref(&y);
            prop_assert_eq!(sum.sub_ref(&y), x.clone());
            prop_assert_eq!(sum.sub_ref(&x), y.clone());
            if !y.is_zero() {
                let (q, r) = x.div_rem(&y);
                prop_assert_eq!(q.mul_ref(&y).add_ref(&r), x.clone());
                prop_assert!(r < y);
                prop_assert_eq!(x.mul_ref(&y).div_rem(&y), (x.clone(), BigUint::zero()));
            }
            prop_assert_eq!(x.shl_bits(shift).shr_bits(shift), x.clone());
            prop_assert_eq!(BigUint::from_decimal(&x.to_string()).unwrap(), x.clone());
            for v in [&x, &y, &sum] {
                prop_assert!(v.limbs().last() != Some(&0));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn prop_gcd_matches_multi_limb(a in edge_u64(), b in edge_u64(),
                                       c in edge_u64(), d in edge_u64(),
                                       shift in 0u64..64) {
            // Double words sharing the factor `c` and a power of two, a
            // full double word, single words, and zero.
            let x = big(a as u128 * c as u128);
            let y = big((b >> shift) as u128 * c as u128).shl_bits(shift);
            let z = big((a as u128) << 64 | d as u128);
            let (p, q) = (big(a as u128), big(b as u128));
            for (u, v) in [(&x, &y), (&y, &x), (&x, &z), (&z, &y), (&p, &q), (&x, &BigUint::zero())] {
                prop_assert_eq!(u.gcd(v), u.gcd_multi_limb(v));
            }
        }
    }

    /// A value of `lo.len() + 1` limbs: `lo` below a nonzero top limb.
    fn wide(lo: Vec<u64>, top: u64) -> BigUint {
        let mut limbs = lo;
        limbs.push(top);
        BigUint::from_limbs(limbs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]
        #[test]
        fn prop_wide_gcd_matches_euclid(a in proptest::collection::vec(limb(), 2..=7),
                                        a_top in 1..=u64::MAX,
                                        b in proptest::collection::vec(limb(), 2..=7),
                                        b_top in 1..=u64::MAX,
                                        c in proptest::collection::vec(limb(), 0..=2),
                                        c_top in 1..=u64::MAX,
                                        shift in 0u64..130) {
            // 3–8-limb operands that share the factor `c` (1–3 limbs)
            // and possibly a power of two, against Euclid on `div_rem`.
            fn euclid(mut a: BigUint, mut b: BigUint) -> BigUint {
                while !b.is_zero() {
                    let r = a.div_rem(&b).1;
                    a = std::mem::replace(&mut b, r);
                }
                a
            }
            let (a, b, c) = (wide(a, a_top), wide(b, b_top), wide(c, c_top));
            let x = a.mul_ref(&c).shl_bits(shift);
            let y = b.mul_ref(&c);
            for (u, v) in [(&a, &b), (&x, &y), (&y, &x), (&x, &x), (&x, &BigUint::one())] {
                let expected = euclid(u.clone(), v.clone());
                prop_assert_eq!(u.gcd_multi_limb(v), expected.clone());
                prop_assert_eq!(u.gcd(v), expected);
            }
        }
    }
}
