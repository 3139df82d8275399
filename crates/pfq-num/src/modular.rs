//! Word-sized modular arithmetic, Chinese remaindering and rational
//! reconstruction: the pieces of a multi-modular exact solve.
//!
//! A linear system over the rationals can be solved modulo one prime
//! after another. The residues modulo the product `M` of the primes so
//! far determine each rational `n/d` of the answer once `2·|n|·d < M`
//! (Wang, "A p-adic algorithm for univariate partial fractions", 1981):
//! [`Crt::reconstruct`] recovers it with one extended Euclid run per
//! entry. Nothing here knows whether `M` is large enough yet; the caller
//! decides by checking the reconstructed answer exactly, and adds a
//! prime when the check fails.
//!
//! The first prime is the Mersenne prime `2⁶¹ − 1`, whose products
//! reduce by shifts and adds; [`primes`] continues with the primes
//! below `2⁶²`, in descending order. With a single prime every value is
//! a `u64`, and no [`BigUint`] is built until a second prime is needed.

use crate::biguint::gcd_u64;
use crate::{BigInt, BigUint, Ratio};

/// The Mersenne prime `2⁶¹ − 1`, the first modulus of [`primes`].
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// Arithmetic modulo one odd prime `p < 2⁶²`, on residues in `0..p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prime(u64);

impl Prime {
    /// The modulus `p`; panics unless `p` is an odd prime below `2⁶²`.
    pub fn new(p: u64) -> Prime {
        assert!(
            p > 2 && p < 1 << 62 && is_prime(p),
            "{p} is not an odd prime below 2^62"
        );
        Prime(p)
    }

    /// The modulus.
    pub fn get(self) -> u64 {
        self.0
    }

    /// `x mod p` for any double word: by two shift-add folds modulo the
    /// Mersenne prime, by one division otherwise.
    fn reduce(self, x: u128) -> u64 {
        if self.0 == MERSENNE_61 {
            let m = MERSENNE_61 as u128;
            let x = (x & m) + (x >> 61); // < 2⁶¹ + 2⁶⁷
            let x = ((x & m) + (x >> 61)) as u64; // ≤ 2⁶¹ + 2⁷
            if x >= MERSENNE_61 {
                x - MERSENNE_61
            } else {
                x
            }
        } else {
            (x % self.0 as u128) as u64
        }
    }

    /// `a + b mod p`.
    pub fn add(self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.0 {
            s - self.0
        } else {
            s
        }
    }

    /// `a − b mod p`.
    fn sub(self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.0 - b
        }
    }

    /// `a · b mod p`.
    pub fn mul(self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }

    /// `a⁻¹ mod p` by the extended Euclidean algorithm on words; `None`
    /// for `a = 0`. The cofactors stay within `±p`, so they fit an `i64`.
    pub fn inv(self, a: u64) -> Option<u64> {
        if a == 0 {
            return None;
        }
        let (mut r0, mut r1) = (self.0, a);
        let (mut t0, mut t1) = (0i64, 1i64);
        while r1 != 0 {
            let q = r0 / r1;
            (r0, r1) = (r1, r0 - q * r1);
            (t0, t1) = (t1, t0 - q as i64 * t1);
        }
        debug_assert_eq!(r0, 1, "a nonzero residue is a unit modulo a prime");
        Some(if t0 < 0 {
            (t0 + self.0 as i64) as u64
        } else {
            t0 as u64
        })
    }

    /// The residue of a little-endian limb string.
    fn reduce_limbs(self, limbs: &[u64]) -> u64 {
        limbs.iter().rev().fold(0, |acc, &limb| {
            self.reduce((acc as u128) << 64 | limb as u128)
        })
    }

    /// The image of `r` modulo `p`; `None` when `p` divides its
    /// denominator.
    pub fn residue(self, r: &Ratio) -> Option<u64> {
        let den = self.inv(self.reduce_limbs(r.denom().limbs()))?;
        let num = self.reduce_limbs(r.numer().magnitude().limbs());
        let num = if r.is_negative() {
            self.sub(0, num)
        } else {
            num
        };
        Some(self.mul(num, den))
    }
}

/// The moduli of a multi-modular solve: [`MERSENNE_61`], then the primes
/// below `2⁶²` in descending order.
pub fn primes() -> impl Iterator<Item = Prime> {
    let below = (1..(1u64 << 61))
        .map(|k| (1u64 << 62) - (2 * k - 1))
        .filter(|&n| is_prime(n));
    std::iter::once(MERSENNE_61).chain(below).map(Prime)
}

/// Deterministic Miller–Rabin: exact for every `u64`.
fn is_prime(n: u64) -> bool {
    const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for b in BASES {
        if n.is_multiple_of(b) {
            return n == b;
        }
    }
    let mul = |a: u64, b: u64| (a as u128 * b as u128 % n as u128) as u64;
    let pow = |mut a: u64, mut e: u64| {
        let mut acc = 1;
        while e != 0 {
            if e & 1 == 1 {
                acc = mul(acc, a);
            }
            a = mul(a, a);
            e >>= 1;
        }
        acc
    };
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    BASES.iter().all(|&b| {
        let mut x = pow(b, d);
        if x == 1 || x == n - 1 {
            return true;
        }
        (1..s).any(|_| {
            x = mul(x, x);
            x == n - 1
        })
    })
}

/// Wang's bound exponent `k` for a modulus of `bits` bits: numerators
/// and denominators up to `2ᵏ − 1`, so `2·N·D < 2^(2k+1) ≤ M`, and a
/// fraction within the bounds is the only one with its residue.
fn wang_exponent(bits: u64) -> u64 {
    bits.saturating_sub(2) / 2
}

/// Residue vectors combined by Chinese remaindering: each entry's value
/// modulo the product of the primes pushed so far.
#[derive(Clone, Debug)]
pub struct Crt {
    primes: usize,
    values: Residues,
}

#[derive(Clone, Debug)]
enum Residues {
    /// One prime: words only.
    Word { p: Prime, values: Vec<u64> },
    /// Several primes: the product and the combined values.
    Wide {
        modulus: BigUint,
        values: Vec<BigUint>,
    },
}

impl Crt {
    /// The residues of a vector modulo `p`.
    pub fn new(p: Prime, values: Vec<u64>) -> Crt {
        Crt {
            primes: 1,
            values: Residues::Word { p, values },
        }
    }

    /// The number of primes combined.
    pub fn primes(&self) -> usize {
        self.primes
    }

    /// Combines the residues of the same vector modulo a further prime
    /// `p`, distinct from the earlier ones: the value `x` modulo `M`
    /// becomes `x + M·((r − x)·M⁻¹ mod p)` modulo `M·p`.
    pub fn push(&mut self, p: Prime, residues: &[u64]) {
        let (modulus, values) = match &mut self.values {
            Residues::Word { p: q, values } => (
                BigUint::from(q.get()),
                values.iter().map(|&v| BigUint::from(v)).collect(),
            ),
            Residues::Wide { modulus, values } => (std::mem::take(modulus), std::mem::take(values)),
        };
        assert_eq!(
            values.len(),
            residues.len(),
            "residue vectors differ in length"
        );
        let m_inv = p
            .inv(p.reduce_limbs(modulus.limbs()))
            .expect("the primes of one solve are distinct");
        let values = values
            .into_iter()
            .zip(residues)
            .map(|(x, &r)| {
                let t = p.mul(p.sub(r, p.reduce_limbs(x.limbs())), m_inv);
                x.add_ref(&modulus.mul_ref(&BigUint::from(t)))
            })
            .collect();
        self.values = Residues::Wide {
            modulus: modulus.mul_ref(&BigUint::from(p.get())),
            values,
        };
        self.primes += 1;
    }

    /// The rationals the residues stand for, by Wang's reconstruction
    /// of each entry; `None` when some entry has no fraction within the
    /// bounds the modulus allows. A result is the answer only if it is
    /// within the bounds: the caller must check it.
    pub fn reconstruct(&self) -> Option<Vec<Ratio>> {
        match &self.values {
            Residues::Word { p, values } => {
                let k = wang_exponent(64 - p.get().leading_zeros() as u64);
                let bound = (1u64 << k) - 1;
                values
                    .iter()
                    .map(|&u| {
                        let (n, d) = wang_word(u, p.get(), bound)?;
                        Some(Ratio::new(n, d as i64))
                    })
                    .collect()
            }
            Residues::Wide { modulus, values } => {
                let k = wang_exponent(modulus.bits());
                values.iter().map(|u| wang_wide(u, modulus, k)).collect()
            }
        }
    }
}

/// Wang's reconstruction on words: the fraction `n/d`, in lowest terms,
/// with `|n|, d ≤ bound` and `n ≡ u·d (mod m)`, if there is one.
fn wang_word(u: u64, m: u64, bound: u64) -> Option<(i64, u64)> {
    let (mut r0, mut r1) = (m, u);
    let (mut t0, mut t1) = (0i64, 1i64);
    while r1 > bound {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q as i64 * t1);
    }
    let d = t1.unsigned_abs();
    if d == 0 || d > bound || gcd_u64(r1, d) != 1 {
        return None;
    }
    Some((if t1 < 0 { -(r1 as i64) } else { r1 as i64 }, d))
}

/// [`wang_word`] on big integers, with bounds `2ᵏ − 1`.
fn wang_wide(u: &BigUint, m: &BigUint, k: u64) -> Option<Ratio> {
    let (mut r0, mut r1) = (m.clone(), u.clone());
    let (mut t0, mut t1) = (BigInt::zero(), BigInt::one());
    while r1.bits() > k {
        let (q, r) = r0.div_rem(&r1);
        (r0, r1) = (r1, r);
        let next = t0.sub_ref(&BigInt::from(q).mul_ref(&t1));
        (t0, t1) = (t1, next);
    }
    let d = t1.magnitude();
    if d.is_zero() || d.bits() > k || !r1.gcd(d).is_one() {
        return None;
    }
    Some(Ratio::from_parts(
        BigInt::from_sign_mag(t1.sign(), r1),
        d.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn mersenne_reduction_matches_division() {
        let p = Prime::new(MERSENNE_61);
        for (a, b) in [
            (MERSENNE_61 - 1, MERSENNE_61 - 1),
            (MERSENNE_61 - 1, 2),
            (1 << 60, 1 << 60),
            (0, 5),
            (12345, 678910),
        ] {
            let want = (a as u128 * b as u128 % MERSENNE_61 as u128) as u64;
            assert_eq!(p.mul(a, b), want, "{a} · {b}");
        }
        assert_eq!(
            p.reduce(u128::MAX),
            (u128::MAX % MERSENNE_61 as u128) as u64
        );
        assert_eq!(p.reduce(MERSENNE_61 as u128), 0);
    }

    #[test]
    fn inverses_and_residues() {
        for p in primes().take(3) {
            for a in [1, 2, 3, 4, 84, p.get() - 1, 1 << 40] {
                assert_eq!(p.mul(a, p.inv(a).unwrap()), 1, "{a} mod {}", p.get());
            }
            assert_eq!(p.inv(0), None);
            let third = p.residue(&r(1, 3)).unwrap();
            assert_eq!(p.mul(third, 3), 1);
            let minus = p.residue(&r(-2, 3)).unwrap();
            assert_eq!(p.add(minus, p.mul(third, 2)), 0);
        }
        let seven = Prime::new(7);
        assert_eq!(seven.residue(&r(1, 14)), None);
        assert_eq!(seven.residue(&r(14, 3)), Some(0));
        // A denominator wider than a word reduces limb by limb.
        let wide = Ratio::from_parts(BigInt::one(), BigUint::from(3u64).pow(100));
        let p = Prime::new(MERSENNE_61);
        let x = p.residue(&wide).unwrap();
        let three_100 = (0..100).fold(1, |acc, _| p.mul(acc, 3));
        assert_eq!(p.mul(x, three_100), 1);
    }

    #[test]
    fn primes_descend_below_two_to_the_62() {
        let ps: Vec<u64> = primes().take(4).map(Prime::get).collect();
        assert_eq!(ps[0], MERSENNE_61);
        assert!(ps[1] < 1 << 62 && ps[1] > ps[2] && ps[2] > ps[3]);
        assert!(ps[1..].iter().all(|&p| is_prime(p)));
        assert!(((ps[1] + 2)..(1 << 62)).step_by(2).all(|n| !is_prime(n)));
        assert!(is_prime(7) && !is_prime(1) && !is_prime(91) && !is_prime(3215031751));
    }

    #[test]
    fn one_prime_reconstructs_small_fractions() {
        let p = Prime::new(MERSENNE_61);
        let want = vec![r(1, 84), r(83, 84), r(0, 1), r(-5, 7), r(1, 3), r(2, 9)];
        let residues = want.iter().map(|x| p.residue(x).unwrap()).collect();
        assert_eq!(Crt::new(p, residues).reconstruct(), Some(want));
    }

    #[test]
    fn a_wide_answer_needs_more_primes() {
        // 3⁶⁰/2¹⁰⁰ needs about 196 bits of modulus, so four primes.
        let x = Ratio::from_parts(
            BigInt::from(BigUint::from(3u64).pow(60)),
            BigUint::from(2u64).pow(100),
        );
        let want = vec![x.clone(), Ratio::one().sub_ref(&x).mul_ref(&r(1, 5))];
        let mut crt: Option<Crt> = None;
        let mut found = None;
        for p in primes().take(6) {
            let residues: Vec<u64> = want.iter().map(|v| p.residue(v).unwrap()).collect();
            match &mut crt {
                None => crt = Some(Crt::new(p, residues)),
                Some(c) => c.push(p, &residues),
            }
            let c = crt.as_ref().unwrap();
            if c.reconstruct().as_ref() == Some(&want) {
                found = Some(c.primes());
                break;
            }
        }
        assert_eq!(found, Some(4));
    }

    proptest! {
        #[test]
        fn prop_wang_inverts_residues(n in -(1i64 << 28)..(1i64 << 28), d in 1i64..(1 << 28)) {
            let x = r(n, d);
            let p = Prime::new(MERSENNE_61);
            let crt = Crt::new(p, vec![p.residue(&x).unwrap()]);
            prop_assert_eq!(crt.reconstruct(), Some(vec![x.clone()]));
            // The wide path agrees once a second prime is in.
            let mut two = crt.clone();
            let q = primes().nth(1).unwrap();
            two.push(q, &[q.residue(&x).unwrap()]);
            prop_assert_eq!(two.reconstruct(), Some(vec![x]));
        }
    }
}
