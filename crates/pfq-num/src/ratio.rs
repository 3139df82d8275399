//! Exact rational numbers — the probability type of the whole workspace.
//!
//! A [`Ratio`] is always kept in canonical form: the denominator is
//! strictly positive, the fraction is fully reduced, and zero is `0/1`.
//! Canonical form makes `Eq`/`Hash` structural and `Ord` a true total
//! order, so rationals can key `BTreeMap`s of possible worlds.

use crate::biguint::{gcd_u128, gcd_u64};
use crate::{BigInt, BigUint, Sign};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` in canonical (reduced) form.
///
/// ```
/// use pfq_num::Ratio;
/// let p = Ratio::new(1, 2).pow(100);          // 1/2^100, exactly
/// let sum: Ratio = std::iter::repeat(p.clone()).take(1 << 20).sum();
/// assert_eq!(sum, Ratio::new(1, 2).pow(80));  // no rounding anywhere
/// assert_eq!(Ratio::new(2, 3).to_decimal(5), "0.66667");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: BigInt,
    den: BigUint, // invariant: > 0 and gcd(|num|, den) == 1; zero is 0/1
}

impl Ratio {
    /// The value 0.
    pub fn zero() -> Self {
        Ratio {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        Ratio {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Builds `num/den` from machine integers; panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "zero denominator");
        let sign_flip = den < 0;
        let num = if sign_flip {
            BigInt::from(num).neg_ref()
        } else {
            BigInt::from(num)
        };
        Ratio::from_parts(num, BigUint::from(den.unsigned_abs()))
    }

    /// Builds `num/den` from big integers, normalizing; panics if `den == 0`.
    pub fn from_parts(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        if num.is_zero() {
            return Ratio::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            return Ratio { num, den };
        }
        let (nm, _) = num.magnitude().div_rem(&g);
        let (nd, _) = den.div_rem(&g);
        Ratio {
            num: BigInt::from_sign_mag(num.sign(), nm),
            den: nd,
        }
    }

    /// The integer `v` as a rational.
    pub fn from_integer(v: i64) -> Self {
        Ratio {
            num: BigInt::from(v),
            den: BigUint::one(),
        }
    }

    /// Numerator (signed, reduced).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (positive, reduced).
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// Whether the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Whether the value is 1.
    pub fn is_one(&self) -> bool {
        self.num.is_positive() && self.num.magnitude().is_one() && self.den.is_one()
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Whether the value lies in the closed interval `[0, 1]` — i.e. is a
    /// valid probability.
    pub fn is_probability(&self) -> bool {
        !self.is_negative() && *self <= Ratio::one()
    }

    /// `(negative, |num|, den)` when numerator and denominator both fit
    /// in a machine word — the operand shape of the word-sized fast
    /// paths.
    fn as_words(&self) -> Option<(bool, u64, u64)> {
        Some((
            self.num.is_negative(),
            self.num.magnitude().to_u64()?,
            self.den.to_u64()?,
        ))
    }

    /// The ratio `±num/den` from an already reduced double-word pair.
    fn from_reduced_words(negative: bool, num: u128, den: u128) -> Ratio {
        if num == 0 {
            return Ratio::zero();
        }
        let sign = if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Ratio {
            num: BigInt::from_sign_mag(sign, BigUint::from(num)),
            den: BigUint::from(den),
        }
    }

    /// `self + other`.
    pub fn add_ref(&self, other: &Ratio) -> Ratio {
        if let (Some(x), Some(y)) = (self.as_words(), other.as_words()) {
            if let Some(sum) = Ratio::add_words(x, y) {
                return sum;
            }
        }
        self.add_multi_limb(other)
    }

    /// `a/b + c/d` in `u128` with a register gcd; `None` when the
    /// cross-product sum overflows.
    fn add_words((an, a, b): (bool, u64, u64), (cn, c, d): (bool, u64, u64)) -> Option<Ratio> {
        let ad = a as u128 * d as u128;
        let cb = c as u128 * b as u128;
        let (negative, num) = if an == cn {
            (an, ad.checked_add(cb)?)
        } else if ad >= cb {
            (an, ad - cb)
        } else {
            (cn, cb - ad)
        };
        let den = b as u128 * d as u128;
        let g = gcd_u128(num, den);
        Some(Ratio::from_reduced_words(negative, num / g, den / g))
    }

    /// [`Ratio::add_ref`] on limb vectors.
    fn add_multi_limb(&self, other: &Ratio) -> Ratio {
        // a/b + c/d = (a*d + c*b) / (b*d)
        let num = self
            .num
            .mul_ref(&BigInt::from(other.den.clone()))
            .add_ref(&other.num.mul_ref(&BigInt::from(self.den.clone())));
        Ratio::from_parts(num, self.den.mul_ref(&other.den))
    }

    /// `self - other`.
    pub fn sub_ref(&self, other: &Ratio) -> Ratio {
        self.add_ref(&other.neg_ref())
    }

    /// `self * other`.
    pub fn mul_ref(&self, other: &Ratio) -> Ratio {
        if self.is_zero() || other.is_zero() {
            return Ratio::zero();
        }
        if let (Some((an, a, b)), Some((cn, c, d))) = (self.as_words(), other.as_words()) {
            // Cross-reduced single-word factors multiply into a reduced
            // double-word pair, which never overflows.
            let (g1, g2) = (gcd_u64(a, d), gcd_u64(c, b));
            return Ratio::from_reduced_words(
                an != cn,
                (a / g1) as u128 * (c / g2) as u128,
                (b / g2) as u128 * (d / g1) as u128,
            );
        }
        self.mul_multi_limb(other)
    }

    /// [`Ratio::mul_ref`] on limb vectors, for nonzero operands.
    fn mul_multi_limb(&self, other: &Ratio) -> Ratio {
        if other.is_one() {
            return self.clone();
        }
        if self.is_one() {
            return other.clone();
        }
        // Cross-reduce before multiplying to keep intermediates small.
        // A unit gcd (always, when a factor is ±1) divides nothing out.
        let reduce = |x: &BigUint, g: &BigUint| {
            if g.is_one() {
                x.clone()
            } else {
                x.div_rem(g).0
            }
        };
        let g1 = self.num.magnitude().gcd(&other.den);
        let g2 = other.num.magnitude().gcd(&self.den);
        let n1 = reduce(self.num.magnitude(), &g1);
        let d2 = reduce(&other.den, &g1);
        let n2 = reduce(other.num.magnitude(), &g2);
        let d1 = reduce(&self.den, &g2);
        let sign = if self.num.sign() == other.num.sign() {
            Sign::Positive
        } else {
            Sign::Negative
        };
        Ratio {
            num: BigInt::from_sign_mag(sign, n1.mul_ref(&n2)),
            den: d1.mul_ref(&d2),
        }
    }

    /// `self / other`; panics if `other == 0`.
    pub fn div_ref(&self, other: &Ratio) -> Ratio {
        self.mul_ref(&other.recip())
    }

    /// Multiplicative inverse; panics on 0.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "division by zero");
        Ratio {
            num: BigInt::from_sign_mag(self.num.sign(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// Negation.
    pub fn neg_ref(&self) -> Ratio {
        Ratio {
            num: self.num.neg_ref(),
            den: self.den.clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// `|self - other|`.
    pub fn abs_diff(&self, other: &Ratio) -> Ratio {
        self.sub_ref(other).abs()
    }

    /// `self ^ exp` by repeated squaring.
    pub fn pow(&self, exp: u64) -> Ratio {
        if exp == 0 {
            return Ratio::one();
        }
        Ratio {
            num: BigInt::from_sign_mag(
                if self.num.is_negative() && exp % 2 == 1 {
                    Sign::Negative
                } else if self.is_zero() {
                    Sign::Zero
                } else {
                    Sign::Positive
                },
                self.num.magnitude().pow(exp),
            ),
            den: self.den.pow(exp),
        }
    }

    /// Lossy conversion to `f64`, robust to huge numerators/denominators.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let nb = self.num.magnitude().bits() as i64;
        let db = self.den.bits() as i64;
        // Shift so the integer quotient carries ~64 significant bits.
        let shift = 64 + db - nb;
        let (q, _) = if shift >= 0 {
            self.num
                .magnitude()
                .shl_bits(shift as u64)
                .div_rem(&self.den)
        } else {
            self.num
                .magnitude()
                .div_rem(&self.den.shl_bits((-shift) as u64))
        };
        let v = q.to_f64() * 2f64.powi(-shift as i32);
        if self.num.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Exact decimal rendering with `digits` fractional digits, rounded
    /// half-away-from-zero: `Ratio::new(1, 3).to_decimal(4) == "0.3333"`.
    pub fn to_decimal(&self, digits: usize) -> String {
        let scale = BigUint::from(10u64).pow(digits as u64);
        // round(|num| · 10^d / den)
        let scaled = self.num.magnitude().mul_ref(&scale);
        let (q, r) = scaled.div_rem(&self.den);
        let twice_r = r.shl_bits(1);
        let q = if twice_r >= self.den {
            q.add_ref(&BigUint::one())
        } else {
            q
        };
        let digits_str = q.to_string();
        let sign = if self.is_negative() && !q.is_zero() {
            "-"
        } else {
            ""
        };
        if digits == 0 {
            return format!("{sign}{digits_str}");
        }
        let padded = format!("{digits_str:0>width$}", width = digits + 1);
        let (int_part, frac_part) = padded.split_at(padded.len() - digits);
        format!("{sign}{int_part}.{frac_part}")
    }

    /// The *exact* rational value of a finite `f64` (every finite float
    /// is `±m·2ᵉ` for integers `m`, `e`). Returns `None` for NaN and
    /// infinities. `from_f64(0.5) == 1/2` exactly, while
    /// `from_f64(0.1)` is the 55-digit-denominator rational the float
    /// actually denotes — use this when a float-typed tolerance must
    /// enter an exact computation without rounding.
    pub fn from_f64(x: f64) -> Option<Ratio> {
        if !x.is_finite() {
            return None;
        }
        let bits = x.to_bits();
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Subnormals have an implicit leading 0 and exponent −1074;
        // normals an implicit leading 1 and exponent `exp_bits − 1075`.
        let (mantissa, exp) = if exp_bits == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        let mut r = Ratio::from_parts(BigInt::from(mantissa), BigUint::one());
        if exp >= 0 {
            r = r.mul_ref(&Ratio::from_integer(2).pow(exp as u64));
        } else {
            r = r.mul_ref(&Ratio::new(1, 2).pow((-exp) as u64));
        }
        Some(if x.is_sign_negative() { r.neg_ref() } else { r })
    }

    /// Parses `"a"`, `"-a"`, `"a/b"`, or `"-a/b"` with decimal components.
    pub fn parse(s: &str) -> Option<Ratio> {
        let (neg, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s),
        };
        let (n, d) = match rest.split_once('/') {
            Some((n, d)) => (BigUint::from_decimal(n)?, BigUint::from_decimal(d)?),
            None => (BigUint::from_decimal(rest)?, BigUint::one()),
        };
        if d.is_zero() {
            return None;
        }
        let sign = if n.is_zero() {
            Sign::Zero
        } else if neg {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Some(Ratio::from_parts(BigInt::from_sign_mag(sign, n), d))
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::from_integer(v)
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        let signs = self.num.sign().cmp(&other.num.sign());
        if signs != Ordering::Equal || self.is_zero() {
            return signs;
        }
        match (self.as_words(), other.as_words()) {
            (Some((negative, a, b)), Some((_, c, d))) => {
                let by_magnitude = (a as u128 * d as u128).cmp(&(c as u128 * b as u128));
                if negative {
                    by_magnitude.reverse()
                } else {
                    by_magnitude
                }
            }
            _ => self.cmp_multi_limb(other),
        }
    }
}

impl Ratio {
    /// [`Ratio::cmp`] on limb vectors.
    fn cmp_multi_limb(&self, other: &Ratio) -> Ordering {
        // a/b ? c/d  ⇔  a*d ? c*b  (b, d > 0)
        self.num
            .mul_ref(&BigInt::from(other.den.clone()))
            .cmp(&other.num.mul_ref(&BigInt::from(self.den.clone())))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &Ratio) -> Ratio {
        self.add_ref(rhs)
    }
}
impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.add_ref(&rhs)
    }
}
impl Sub for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &Ratio) -> Ratio {
        self.sub_ref(rhs)
    }
}
impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self.sub_ref(&rhs)
    }
}
impl Mul for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &Ratio) -> Ratio {
        self.mul_ref(rhs)
    }
}
impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        self.mul_ref(&rhs)
    }
}
impl Div for &Ratio {
    type Output = Ratio;
    fn div(self, rhs: &Ratio) -> Ratio {
        self.div_ref(rhs)
    }
}
impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        self.div_ref(&rhs)
    }
}
impl Neg for &Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        self.neg_ref()
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc.add_ref(&x))
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc.add_ref(x))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biguint::tests::edge_u64;
    use proptest::prelude::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 7), Ratio::zero());
        assert_eq!(r(6, 3), Ratio::from_integer(2));
        assert_eq!(r(2, 4).numer(), &BigInt::from(1i64));
        assert_eq!(r(2, 4).denom(), &BigUint::from(2u64));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn from_f64_exact_values() {
        assert_eq!(Ratio::from_f64(0.5), Some(r(1, 2)));
        assert_eq!(Ratio::from_f64(-0.75), Some(r(-3, 4)));
        assert_eq!(Ratio::from_f64(0.0), Some(Ratio::zero()));
        assert_eq!(Ratio::from_f64(-0.0), Some(Ratio::zero()));
        assert_eq!(Ratio::from_f64(3.0), Some(Ratio::from_integer(3)));
        assert_eq!(Ratio::from_f64(0.03125), Some(r(1, 32)));
        // 0.1 is NOT 1/10 as a double; from_f64 recovers its true value.
        assert_eq!(
            Ratio::from_f64(0.1),
            Ratio::parse("3602879701896397/36028797018963968")
        );
        assert_eq!(Ratio::from_f64(f64::NAN), None);
        assert_eq!(Ratio::from_f64(f64::INFINITY), None);
        assert_eq!(Ratio::from_f64(f64::NEG_INFINITY), None);
        // Subnormals round-trip too.
        let tiny = f64::from_bits(1); // smallest positive subnormal, 2^-1074
        assert_eq!(Ratio::from_f64(tiny), Some(r(1, 2).pow(1074)));
    }

    proptest! {
        #[test]
        fn prop_from_f64_roundtrip(a in -10000i64..10000, b in 1i64..10000) {
            let x = (a as f64) / (b as f64);
            let q = Ratio::from_f64(x).unwrap();
            // Exactness: converting back to f64 is lossless.
            prop_assert_eq!(q.to_f64().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2).add_ref(&r(1, 3)), r(5, 6));
        assert_eq!(r(1, 2).sub_ref(&r(1, 3)), r(1, 6));
        assert_eq!(r(2, 3).mul_ref(&r(3, 4)), r(1, 2));
        assert_eq!(r(1, 2).div_ref(&r(1, 4)), Ratio::from_integer(2));
        assert_eq!(r(-1, 2).add_ref(&r(1, 2)), Ratio::zero());
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
        assert_eq!(r(1, 2).pow(10), r(1, 1024));
        assert_eq!(r(-1, 2).pow(3), r(-1, 8));
        assert_eq!(r(-1, 2).pow(2), r(1, 4));
        assert_eq!(r(7, 3).pow(0), Ratio::one());
        assert_eq!(Ratio::zero().pow(4), Ratio::zero());
    }

    #[test]
    fn probability_range() {
        assert!(Ratio::zero().is_probability());
        assert!(Ratio::one().is_probability());
        assert!(r(17, 20).is_probability());
        assert!(!r(21, 20).is_probability());
        assert!(!r(-1, 20).is_probability());
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 4) == r(1, 2));
        assert!(r(7, 8) < Ratio::one());
    }

    #[test]
    fn to_f64_accuracy() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert!((r(-22, 7).to_f64() + 22.0 / 7.0).abs() < 1e-14);
        assert_eq!(Ratio::zero().to_f64(), 0.0);
        // Huge numerator and denominator that individually overflow f64.
        let huge = Ratio::from_parts(
            BigInt::from(BigUint::from(3u64).pow(1000)),
            BigUint::from(3u64).pow(1000).mul_ref(&BigUint::from(2u64)),
        );
        assert!((huge.to_f64() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn tiny_probability_is_exact() {
        // 1/2^200 — the kind of value the 3-SAT reduction produces.
        let p = r(1, 2).pow(200);
        let sum: Ratio = std::iter::repeat_n(p.clone(), 1 << 10).sum();
        assert_eq!(sum, r(1, 2).pow(190));
    }

    #[test]
    fn decimal_rendering() {
        assert_eq!(r(1, 3).to_decimal(4), "0.3333");
        assert_eq!(r(2, 3).to_decimal(4), "0.6667"); // rounds up
        assert_eq!(r(1, 2).to_decimal(0), "1"); // half away from zero
        assert_eq!(r(-1, 3).to_decimal(3), "-0.333");
        assert_eq!(r(5, 4).to_decimal(2), "1.25");
        assert_eq!(Ratio::from_integer(42).to_decimal(2), "42.00");
        assert_eq!(Ratio::zero().to_decimal(3), "0.000");
        assert_eq!(r(-1, 1000000).to_decimal(2), "0.00"); // rounds to signless zero
                                                          // Exactness far past f64: 1/3 to 40 digits.
        assert_eq!(
            r(1, 3).to_decimal(40),
            "0.3333333333333333333333333333333333333333"
        );
    }

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Ratio::parse("17/20"), Some(r(17, 20)));
        assert_eq!(Ratio::parse("-3/9"), Some(r(-1, 3)));
        assert_eq!(Ratio::parse("5"), Some(Ratio::from_integer(5)));
        assert_eq!(Ratio::parse("0/9"), Some(Ratio::zero()));
        assert_eq!(Ratio::parse("1/0"), None);
        assert_eq!(Ratio::parse("a/b"), None);
        assert_eq!(Ratio::parse(""), None);
    }

    #[test]
    fn display() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(-4, 2).to_string(), "-2");
        assert_eq!(Ratio::zero().to_string(), "0");
    }

    #[test]
    fn sum_iterator() {
        let parts = [r(1, 4), r(1, 4), r(1, 2)];
        let total: Ratio = parts.iter().sum();
        assert_eq!(total, Ratio::one());
    }

    /// `±num/den` (with `den` forced nonzero), normalized by the
    /// multi-limb gcd.
    fn words(negative: bool, num: u64, den: u64) -> Ratio {
        let sign = if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Ratio::from_parts(
            BigInt::from_sign_mag(sign, BigUint::from(num)),
            BigUint::from(den.max(1)),
        )
    }

    fn assert_canonical(x: &Ratio) {
        assert!(!x.den.is_zero());
        if x.is_zero() {
            assert!(x.den.is_one(), "zero must be 0/1, got {x:?}");
        } else {
            assert!(x.num.magnitude().gcd_multi_limb(&x.den).is_one(), "{x:?}");
        }
    }

    #[test]
    fn add_overflow_edge_falls_back_to_limbs() {
        // (2⁶⁴−1)/(2⁶⁴−2) + itself: the cross-product sum is ≈ 2¹²⁹.
        let x = words(false, u64::MAX, u64::MAX - 1);
        assert!(Ratio::add_words(x.as_words().unwrap(), x.as_words().unwrap()).is_none());
        let sum = x.add_ref(&x);
        assert_eq!(sum, x.add_multi_limb(&x));
        assert_canonical(&sum);
        // Opposite signs never overflow and cancel exactly.
        assert!(x.add_ref(&x.neg_ref()).is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn prop_word_paths_match_multi_limb(
            (xn, a, b) in (any::<bool>(), edge_u64(), edge_u64()),
            (yn, c, d) in (any::<bool>(), edge_u64(), edge_u64()),
        ) {
            let (x, y) = (words(xn, a, b), words(yn, c, d));
            let sum = x.add_ref(&y);
            prop_assert_eq!(&sum, &x.add_multi_limb(&y));
            assert_canonical(&sum);
            if !x.is_zero() && !y.is_zero() {
                let product = x.mul_ref(&y);
                prop_assert_eq!(&product, &x.mul_multi_limb(&y));
                assert_canonical(&product);
            }
            prop_assert_eq!(x.cmp(&y), x.cmp_multi_limb(&y));
            prop_assert_eq!(y.cmp(&x), y.cmp_multi_limb(&x));
            prop_assert_eq!(x.cmp(&x), Ordering::Equal);
        }

    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in -100i64..100, b in 1i64..100,
                             c in -100i64..100, d in 1i64..100,
                             e in -100i64..100, f in 1i64..100) {
            let (x, y, z) = (r(a, b), r(c, d), r(e, f));
            // Commutativity and associativity.
            prop_assert_eq!(x.add_ref(&y), y.add_ref(&x));
            prop_assert_eq!(x.mul_ref(&y), y.mul_ref(&x));
            prop_assert_eq!(x.add_ref(&y).add_ref(&z), x.add_ref(&y.add_ref(&z)));
            prop_assert_eq!(x.mul_ref(&y).mul_ref(&z), x.mul_ref(&y.mul_ref(&z)));
            // Distributivity.
            prop_assert_eq!(x.mul_ref(&y.add_ref(&z)),
                            x.mul_ref(&y).add_ref(&x.mul_ref(&z)));
            // Identities & inverses.
            prop_assert_eq!(x.add_ref(&Ratio::zero()), x.clone());
            prop_assert_eq!(x.mul_ref(&Ratio::one()), x.clone());
            prop_assert_eq!(x.sub_ref(&x), Ratio::zero());
            if !x.is_zero() {
                prop_assert_eq!(x.mul_ref(&x.recip()), Ratio::one());
            }
        }

        #[test]
        fn prop_cmp_matches_f64(a in -1000i64..1000, b in 1i64..1000,
                                c in -1000i64..1000, d in 1i64..1000) {
            let (x, y) = (r(a, b), r(c, d));
            let (fx, fy) = (a as f64 / b as f64, c as f64 / d as f64);
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x < y, fx < fy);
            }
        }

        #[test]
        fn prop_to_f64_close(a in -10000i64..10000, b in 1i64..10000) {
            let x = r(a, b);
            prop_assert!((x.to_f64() - a as f64 / b as f64).abs() < 1e-12);
        }

        #[test]
        fn prop_parse_display_roundtrip(a in any::<i64>(), b in 1i64..i64::MAX) {
            let x = r(a, b);
            prop_assert_eq!(Ratio::parse(&x.to_string()), Some(x));
        }
    }
}
