//! Exact certificates for solved chains.
//!
//! The multi-modular solves in [`crate::gth`] rebuild rationals from
//! residues, and nothing in that code is trusted: a rebuilt vector is
//! accepted only when one of the checks here holds for it, in exact
//! arithmetic. Each check scales the vector and the transition
//! probabilities once by their common denominators and then sums
//! integers over the chain's edges; it shares no code with the solver.
//!
//! Both systems checked have exactly one solution: the stationary
//! distribution of an irreducible class, and the expected visits of a
//! walk to the transient states before absorption, `x (I − Q) = e_s`,
//! where `I − Q` is invertible because every transient state reaches a
//! leaf. So a vector that
//! passes *is* the exact answer, whatever produced it. The condensation
//! that says which states form a class, or are transient, is the
//! caller's (computed by [`crate::scc`], not by the solver).

use crate::{Condensation, MarkovChain};
use pfq_num::{BigInt, BigUint, Ratio};

/// Whether `pi` (in `members` order) is the stationary distribution of
/// the class `members` (sorted state indices, irreducible): every
/// member's transitions stay in the class, `π P = π` on it, and
/// `Σ π = 1`.
///
/// The check runs on integers: with `D` the common denominator of `π`
/// and `L` that of the class's transition probabilities, `a = D·π` and
/// `c = L·P` are integer, and the conditions read `Σ_i a_i c_ij = L a_j`
/// and `Σ a = D`, exactly equivalent and free of per-sum reductions. It
/// runs in `i128` and again in [`BigInt`] only if a value overflows.
pub fn stationary<S: Ord + Clone>(chain: &MarkovChain<S>, members: &[usize], pi: &[Ratio]) -> bool {
    pi.len() == members.len()
        && stationary_in::<i128, S>(chain, members, pi)
            .or_else(|| stationary_in::<BigInt, S>(chain, members, pi))
            .expect("BigInt arithmetic does not overflow")
}

/// [`stationary`] over `T`; `None` if a value overflows `T`.
fn stationary_in<T: Int, S: Ord + Clone>(
    chain: &MarkovChain<S>,
    members: &[usize],
    pi: &[Ratio],
) -> Option<bool> {
    let (a, d) = scaled::<T>(pi)?;
    let mut l = Denominator::<T>::of(members.iter().flat_map(|&i| chain.row(i)).map(|(_, p)| p))?;
    let mut inflow = vec![T::zero(); members.len()];
    for (a_i, &i) in a.iter().zip(members) {
        for (j, p) in chain.row(i) {
            let Ok(b) = members.binary_search(j) else {
                return Some(false); // the class is not closed
            };
            inflow[b] = inflow[b].add(&a_i.mul(&l.scale(p)?)?)?;
        }
    }
    let total = a.iter().try_fold(T::zero(), |sum, a_i| sum.add(a_i))?;
    Some(total == d && l.balances(&inflow, &a)?)
}

/// Whether `x` holds the expected visits of a walk from the transient
/// state `start` to each of `cond`'s transient states (those outside
/// every leaf of [`Condensation::leaves`], in index order) before it is
/// absorbed: `x_i = [i = start] + Σ_t x_t · P(t, i)` over the transient
/// states `t`. As in [`stationary`], the check runs on `D·x` and `L·P`:
/// `L a_i = [i = start] D L + Σ_t a_t c_ti`.
pub fn absorption<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    cond: &Condensation,
    start: usize,
    x: &[Ratio],
) -> bool {
    let mut is_leaf = vec![false; cond.len()];
    for l in cond.leaves() {
        is_leaf[l] = true;
    }
    let transient: Vec<usize> = (0..chain.len())
        .filter(|&i| !is_leaf[cond.component_of[i]])
        .collect();
    let Ok(s) = transient.binary_search(&start) else {
        return false; // not a transient start
    };
    x.len() == transient.len()
        && absorption_in::<i128, S>(chain, &transient, s, x)
            .or_else(|| absorption_in::<BigInt, S>(chain, &transient, s, x))
            .expect("BigInt arithmetic does not overflow")
}

/// [`absorption`] over `T`, for the start at position `s` of
/// `transient`; `None` if a value overflows `T`.
fn absorption_in<T: Int, S: Ord + Clone>(
    chain: &MarkovChain<S>,
    transient: &[usize],
    s: usize,
    x: &[Ratio],
) -> Option<bool> {
    let (a, d) = scaled::<T>(x)?;
    let mut l = Denominator::<T>::of(transient.iter().flat_map(|&t| chain.row(t)).map(|(_, p)| p))?;
    let mut inflow = vec![T::zero(); transient.len()];
    inflow[s] = d.mul(&l.den)?;
    for (a_t, &t) in a.iter().zip(transient) {
        for (j, p) in chain.row(t) {
            if let Ok(b) = transient.binary_search(j) {
                inflow[b] = inflow[b].add(&a_t.mul(&l.scale(p)?)?)?;
            }
        }
    }
    l.balances(&inflow, &a)
}

/// The integers the checks sum in: `i128`, whose operations report an
/// overflow as `None`, or [`BigInt`], whose never overflow.
trait Int: Clone + PartialEq + Sized {
    fn zero() -> Self;
    /// `v` as `Self`, if it fits.
    fn of(v: &BigInt) -> Option<Self>;
    fn add(&self, other: &Self) -> Option<Self>;
    fn mul(&self, other: &Self) -> Option<Self>;
    /// The least common multiple of `self` (positive) and `d`.
    fn lcm(&self, d: &BigUint) -> Option<Self>;
    /// `self / d`, for a divisor `d` of `self`.
    fn quotient(&self, d: &BigUint) -> Option<Self>;
}

/// `i128` holds values within `i64` (numerators, denominators and their
/// quotients), so that one product of two always fits; the sums of
/// products are checked.
impl Int for i128 {
    fn zero() -> i128 {
        0
    }

    fn of(v: &BigInt) -> Option<i128> {
        v.to_i64().map(i128::from)
    }

    fn add(&self, other: &i128) -> Option<i128> {
        self.checked_add(*other)
    }

    fn mul(&self, other: &i128) -> Option<i128> {
        self.checked_mul(*other)
    }

    fn lcm(&self, d: &BigUint) -> Option<i128> {
        let (a, b) = (u64::try_from(*self).ok()?, d.to_u64()?);
        let (mut x, mut y) = (a, b);
        while y != 0 {
            (x, y) = (y, x % y);
        }
        let l = (a / x).checked_mul(b)?;
        i64::try_from(l).ok().map(i128::from)
    }

    fn quotient(&self, d: &BigUint) -> Option<i128> {
        Some(i128::from(u64::try_from(*self).ok()? / d.to_u64()?))
    }
}

impl Int for BigInt {
    fn zero() -> BigInt {
        BigInt::zero()
    }

    fn of(v: &BigInt) -> Option<BigInt> {
        Some(v.clone())
    }

    fn add(&self, other: &BigInt) -> Option<BigInt> {
        Some(self.add_ref(other))
    }

    fn mul(&self, other: &BigInt) -> Option<BigInt> {
        Some(self.mul_ref(other))
    }

    fn lcm(&self, d: &BigUint) -> Option<BigInt> {
        let a = self.magnitude();
        Some(BigInt::from(a.div_rem(&a.gcd(d)).0.mul_ref(d)))
    }

    fn quotient(&self, d: &BigUint) -> Option<BigInt> {
        Some(BigInt::from(self.magnitude().div_rem(d).0))
    }
}

/// `v` over its least common denominator `D`: the integers `D·v_i`, and
/// `D`.
fn scaled<T: Int>(v: &[Ratio]) -> Option<(Vec<T>, T)> {
    let mut d = Denominator::<T>::of(v.iter())?;
    let a = v.iter().map(|v_i| d.scale(v_i)).collect::<Option<_>>()?;
    Some((a, d.den))
}

/// The least common multiple of some rationals' denominators, which
/// scales each of them to an integer.
struct Denominator<T> {
    den: T,
    /// The last denominator scaled by, and `den` divided by it: the
    /// values of a chain row mostly share one denominator.
    last: (BigUint, T),
}

impl<T: Int> Denominator<T> {
    /// `None` if the multiple overflows `T`.
    fn of<'a>(values: impl Iterator<Item = &'a Ratio>) -> Option<Denominator<T>> {
        let one = T::of(&BigInt::one())?;
        let mut den = one.clone();
        let mut last = BigUint::one();
        for v in values {
            if *v.denom() != last {
                den = den.lcm(v.denom())?;
                last = v.denom().clone();
            }
        }
        Some(Denominator {
            last: (BigUint::one(), den.clone()),
            den,
        })
    }

    /// `den · v`, an integer for every `v` the denominator was taken of.
    fn scale(&mut self, v: &Ratio) -> Option<T> {
        if *v.denom() != self.last.0 {
            self.last = (v.denom().clone(), self.den.quotient(v.denom())?);
        }
        T::of(v.numer())?.mul(&self.last.1)
    }

    /// Whether `inflow[k] = den · a[k]` for every `k`.
    fn balances(&self, inflow: &[T], a: &[T]) -> Option<bool> {
        for (f, a_k) in inflow.iter().zip(a) {
            if *f != a_k.mul(&self.den)? {
                return Some(false);
            }
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::scc::condensation;
    use proptest::prelude::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    /// The stationary check in reduced `Ratio` arithmetic, written from
    /// the definition: the reference the integer check must agree with.
    fn stationary_by_ratios<S: Ord + Clone>(
        chain: &MarkovChain<S>,
        members: &[usize],
        pi: &[Ratio],
    ) -> bool {
        if pi.len() != members.len() {
            return false;
        }
        let mut inflow = vec![Ratio::zero(); members.len()];
        for (p_i, &i) in pi.iter().zip(members) {
            for (j, p) in chain.row(i) {
                let Ok(b) = members.binary_search(j) else {
                    return false;
                };
                inflow[b] = inflow[b].add_ref(&p_i.mul_ref(p));
            }
        }
        inflow == pi && pi.iter().sum::<Ratio>().is_one()
    }

    /// The absorption check in reduced `Ratio` arithmetic (reference).
    fn absorption_by_ratios(
        chain: &MarkovChain<usize>,
        transient: &[usize],
        start: usize,
        x: &[Ratio],
    ) -> bool {
        if x.len() != transient.len() {
            return false;
        }
        let s = transient.binary_search(&start).unwrap();
        let mut inflow = vec![Ratio::zero(); transient.len()];
        inflow[s] = Ratio::one();
        for (x_t, &t) in x.iter().zip(transient) {
            for (j, p) in chain.row(t) {
                if let Ok(b) = transient.binary_search(j) {
                    inflow[b] = inflow[b].add_ref(&x_t.mul_ref(p));
                }
            }
        }
        inflow == x
    }

    /// A chain over `0..n` whose row `i` is `weights[i·n..(i+1)·n]`
    /// normalized (a row of zeros becomes a self-loop).
    fn chain_of(n: usize, weights: &[i64]) -> MarkovChain<usize> {
        let rows = (0..n)
            .map(|i| {
                let w = &weights[i * n..(i + 1) * n];
                let total: i64 = w.iter().sum();
                if total == 0 {
                    return vec![(i, Ratio::one())];
                }
                (0..n)
                    .filter(|&j| w[j] > 0)
                    .map(|j| (j, r(w[j], total)))
                    .collect()
            })
            .collect();
        MarkovChain::from_rows((0..n).collect(), rows).unwrap()
    }

    /// Candidate vectors near `exact`: itself, one entry nudged by
    /// `nudge`, the whole vector doubled, and `noise` read as fractions.
    fn candidates(
        exact: &[Ratio],
        nudge: &Ratio,
        at: usize,
        noise: &[(i64, i64)],
    ) -> Vec<Vec<Ratio>> {
        let mut nudged = exact.to_vec();
        if !nudged.is_empty() {
            let k = at % nudged.len();
            nudged[k] = nudged[k].add_ref(nudge);
        }
        let doubled = exact.iter().map(|v| v.add_ref(v)).collect();
        let random = noise
            .iter()
            .take(exact.len())
            .map(|&(n, d)| r(n, d))
            .collect();
        vec![exact.to_vec(), nudged, doubled, random]
    }

    proptest! {
        /// On random chains, the integer checks accept and reject exactly
        /// the vectors the `Ratio` reference does: the exact answer, a
        /// nudged one, a doubled one and a random one.
        #[test]
        fn prop_integer_checks_match_the_ratio_reference(
            n in 1usize..6,
            weights in proptest::collection::vec(0i64..5, 25),
            nudge in (-3i64..4, 1i64..7),
            at in 0usize..6,
            noise in proptest::collection::vec((-4i64..9, 1i64..9), 6),
        ) {
            let chain = chain_of(n, &weights);
            let nudge = r(nudge.0, nudge.1);
            let all: Vec<usize> = (0..n).collect();
            if let Ok(pi) = dense::stationary(&chain) {
                prop_assert!(stationary(&chain, &all, &pi));
                for v in candidates(&pi, &nudge, at, &noise) {
                    prop_assert_eq!(stationary(&chain, &all, &v), stationary_by_ratios(&chain, &all, &v));
                }
            }
            let cond = condensation(&chain);
            let mut is_leaf = vec![false; cond.len()];
            for l in cond.leaves() {
                is_leaf[l] = true;
            }
            let transient: Vec<usize> =
                all.iter().copied().filter(|&i| !is_leaf[cond.component_of[i]]).collect();
            for (i, members) in cond.components.iter().enumerate() {
                // Every component, closed or not, against a random vector.
                let v: Vec<Ratio> = noise.iter().take(members.len()).map(|&(n, d)| r(n, d)).collect();
                prop_assert_eq!(
                    stationary(&chain, members, &v),
                    stationary_by_ratios(&chain, members, &v),
                    "component {}", i
                );
            }
            let Some(&start) = transient.get(at % transient.len().max(1)) else {
                return Ok(());
            };
            // Expected visits: x (I − Q) = e_start, solved densely.
            let m = transient.len();
            let a: Vec<Vec<Ratio>> = (0..m)
                .map(|row| {
                    (0..m)
                        .map(|col| {
                            let id = if row == col { Ratio::one() } else { Ratio::zero() };
                            id.sub_ref(&chain.prob(transient[col], transient[row]))
                        })
                        .collect()
                })
                .collect();
            let e: Vec<Ratio> =
                transient.iter().map(|&t| if t == start { Ratio::one() } else { Ratio::zero() }).collect();
            let x = dense::solve(a, e).expect("I − Q is invertible");
            prop_assert!(absorption(&chain, &cond, start, &x));
            for v in candidates(&x, &nudge, at, &noise) {
                prop_assert_eq!(
                    absorption(&chain, &cond, start, &v),
                    absorption_by_ratios(&chain, &transient, start, &v)
                );
            }
        }
    }

    #[test]
    fn stationary_accepts_only_the_solution() {
        // 0 → 1; 1 → {0: 1/2, 1: 1/2}: π = (1/3, 2/3).
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(0, r(1, 2)), (1, r(1, 2))]],
        )
        .unwrap();
        assert!(stationary(&c, &[0, 1], &[r(1, 3), r(2, 3)]));
        // Invariant but not normalized, normalized but not invariant,
        // and the wrong length.
        assert!(!stationary(&c, &[0, 1], &[r(2, 3), r(4, 3)]));
        assert!(!stationary(&c, &[0, 1], &[r(1, 2), r(1, 2)]));
        assert!(!stationary(&c, &[0, 1], &[Ratio::one()]));
        // {1} is not closed: 1 leaves it for 0.
        assert!(!stationary(&c, &[1], &[Ratio::one()]));
    }

    #[test]
    fn absorption_accepts_only_the_expected_visits() {
        // 0 → {0: 1/2, 1: 1/8, 2: 3/8}; 1 and 2 absorbing. A walk from 0
        // stays there 1 / (1 − 1/2) = 2 visits.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(0, r(1, 2)), (1, r(1, 8)), (2, r(3, 8))],
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
            ],
        )
        .unwrap();
        let cond = condensation(&c);
        assert!(absorption(&c, &cond, 0, &[r(2, 1)]));
        assert!(!absorption(&c, &cond, 0, &[r(1, 1)]));
        assert!(!absorption(&c, &cond, 0, &[r(2, 1), r(0, 1)]));
        // A start inside a leaf has no visits to certify.
        assert!(!absorption(&c, &cond, 1, &[r(2, 1)]));
    }
}
