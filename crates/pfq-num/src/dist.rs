//! Finite exact probability distributions over ordered supports.
//!
//! [`Distribution<T>`] is the workhorse of possible-world semantics: a
//! `repair-key` application yields a `Distribution<Relation>`, a transition
//! kernel yields a `Distribution<Database>`, and so on. Supports are kept
//! in a `BTreeMap` so equal outcomes merge and iteration is deterministic.

use crate::biguint::gcd_u64;
use crate::Ratio;
use std::collections::BTreeMap;
use std::fmt;

/// A finitely-supported probability distribution with exact rational
/// weights. Invariant: every stored weight is strictly positive (zero-mass
/// outcomes are dropped on insertion).
///
/// ```
/// use pfq_num::{Distribution, Ratio};
/// let coin: Distribution<u8> = [(0u8, Ratio::new(1, 2)), (1, Ratio::new(1, 2))]
///     .into_iter()
///     .collect();
/// let two = coin.product(&coin, |a, b| a + b); // sum of two flips
/// assert_eq!(two.mass(&1), Ratio::new(1, 2));
/// assert!(two.is_proper());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Distribution<T: Ord> {
    weights: BTreeMap<T, Ratio>,
}

impl<T: Ord> Distribution<T> {
    /// The empty (sub-)distribution with no outcomes.
    pub fn new() -> Self {
        Distribution {
            weights: BTreeMap::new(),
        }
    }

    /// The point distribution concentrated on `value`.
    pub fn singleton(value: T) -> Self {
        let mut d = Distribution::new();
        d.add(value, Ratio::one());
        d
    }

    /// Adds mass `p` to `value` (merging with existing mass).
    pub fn add(&mut self, value: T, p: Ratio) {
        if p.is_zero() {
            return;
        }
        assert!(p.is_positive(), "negative probability mass {p}");
        self.weights
            .entry(value)
            .and_modify(|w| *w = w.add_ref(&p))
            .or_insert(p);
    }

    /// Number of distinct outcomes.
    pub fn support_size(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no outcomes.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total probability mass (1 for a proper distribution).
    pub fn total_mass(&self) -> Ratio {
        self.weights.values().sum()
    }

    /// Whether the total mass is exactly 1.
    pub fn is_proper(&self) -> bool {
        self.total_mass().is_one()
    }

    /// The mass on `value` (0 if absent).
    pub fn mass(&self, value: &T) -> Ratio {
        self.weights.get(value).cloned().unwrap_or_else(Ratio::zero)
    }

    /// Iterates `(outcome, mass)` pairs in outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, &Ratio)> + '_ {
        self.weights.iter()
    }

    /// Consumes the distribution, yielding `(outcome, mass)` pairs.
    #[allow(clippy::should_implement_trait)] // returns impl Iterator, no concrete IntoIter type to name
    pub fn into_iter(self) -> impl Iterator<Item = (T, Ratio)> {
        self.weights.into_iter()
    }

    /// Maps outcomes through `f`, merging collisions (pushforward).
    pub fn map<U: Ord>(self, mut f: impl FnMut(T) -> U) -> Distribution<U> {
        let mut out = Distribution::new();
        for (v, p) in self.weights {
            out.add(f(v), p);
        }
        out
    }

    /// Maps outcomes through a fallible `f`.
    pub fn try_map<U: Ord, E>(
        self,
        mut f: impl FnMut(T) -> Result<U, E>,
    ) -> Result<Distribution<U>, E> {
        let mut out = Distribution::new();
        for (v, p) in self.weights {
            out.add(f(v)?, p);
        }
        Ok(out)
    }

    /// Product of two independent distributions, combined with `f`.
    pub fn product<U: Ord + Clone, V: Ord>(
        &self,
        other: &Distribution<U>,
        mut f: impl FnMut(&T, &U) -> V,
    ) -> Distribution<V> {
        let mut out = Distribution::new();
        for (a, pa) in &self.weights {
            for (b, pb) in &other.weights {
                out.add(f(a, b), pa.mul_ref(pb));
            }
        }
        out
    }

    /// Total mass of outcomes satisfying `pred`.
    pub fn probability_that(&self, mut pred: impl FnMut(&T) -> bool) -> Ratio {
        self.weights
            .iter()
            .filter(|(v, _)| pred(v))
            .map(|(_, p)| p)
            .sum()
    }

    /// Scales every mass by `factor` (for conditioning / sub-walk weighting).
    pub fn scale(mut self, factor: &Ratio) -> Distribution<T> {
        assert!(!factor.is_negative(), "negative scale factor");
        if factor.is_zero() {
            return Distribution::new();
        }
        for w in self.weights.values_mut() {
            *w = w.mul_ref(factor);
        }
        self
    }

    /// Merges another distribution's mass into this one.
    pub fn merge(&mut self, other: Distribution<T>) {
        for (v, p) in other.weights {
            self.add(v, p);
        }
    }
}

/// Picks an index proportional to exact rational `weights` (not
/// necessarily normalized), from a single uniform 64-bit draw.
///
/// The draw is interpreted as the dyadic rational `draw/2⁶⁴`, scaled by
/// the weight total, and matched against the cumulative weights — the
/// weight arithmetic stays exact and the per-pick bias is bounded by
/// `2⁻⁶⁴`. Panics if `weights` is empty or any weight is non-positive.
pub fn pick_weighted_index(weights: &[Ratio], draw: u64) -> usize {
    assert!(!weights.is_empty(), "cannot pick from no weights");
    if let Some(pick) = pick_integer_weighted_index(weights, draw) {
        return pick;
    }
    let total: Ratio = weights.iter().sum();
    assert!(total.is_positive(), "weights must be positive");
    let u = Ratio::from_parts(
        crate::BigInt::from(draw),
        crate::BigUint::one().shl_bits(64),
    );
    let target = u.mul_ref(&total);
    let mut acc = Ratio::zero();
    for (i, w) in weights.iter().enumerate() {
        assert!(w.is_positive(), "weights must be positive");
        acc = acc.add_ref(w);
        if target < acc {
            return i;
        }
    }
    weights.len() - 1 // 2⁻⁶⁴ edge case: draw = 2⁶⁴ − 1 rounding
}

/// [`pick_weighted_index`] in the integer domain: with `L` the common
/// denominator, `Aᵢ = L·(w₀ + … + wᵢ)` and `T = A_last`, the rational
/// test `draw/2⁶⁴ · total < accᵢ` is exactly `draw·T < Aᵢ·2⁶⁴`, one
/// `u128` comparison. `None` (take the rational path) when a weight is
/// non-positive or `L` or `T` does not fit in a `u64`.
fn pick_integer_weighted_index(weights: &[Ratio], draw: u64) -> Option<usize> {
    let mut lcm = 1u64;
    for w in weights {
        if !w.is_positive() {
            return None;
        }
        let d = w.denom().to_u64()?;
        lcm = lcm.checked_mul(d / gcd_u64(lcm, d))?;
    }
    let mut total = 0u64;
    for w in weights {
        let scale = lcm / w.denom().to_u64()?;
        total = total.checked_add(w.numer().magnitude().to_u64()?.checked_mul(scale)?)?;
    }
    let target = draw as u128 * total as u128;
    let mut acc = 0u64;
    for (i, w) in weights.iter().enumerate() {
        // Every prefix is at most `total`, so these cannot overflow.
        acc += w.numer().magnitude().to_u64()? * (lcm / w.denom().to_u64()?);
        if target < (acc as u128) << 64 {
            return Some(i);
        }
    }
    Some(weights.len() - 1) // 2⁻⁶⁴ edge case, as in the rational path
}

impl<T: Ord> Default for Distribution<T> {
    fn default() -> Self {
        Distribution::new()
    }
}

impl<T: Ord> FromIterator<(T, Ratio)> for Distribution<T> {
    fn from_iter<I: IntoIterator<Item = (T, Ratio)>>(iter: I) -> Self {
        let mut d = Distribution::new();
        for (v, p) in iter {
            d.add(v, p);
        }
        d
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for Distribution<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.weights.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn half() -> Ratio {
        Ratio::new(1, 2)
    }

    #[test]
    fn singleton_is_proper() {
        let d = Distribution::singleton(7);
        assert!(d.is_proper());
        assert_eq!(d.mass(&7), Ratio::one());
        assert_eq!(d.mass(&8), Ratio::zero());
        assert_eq!(d.support_size(), 1);
    }

    #[test]
    fn add_merges_and_drops_zero() {
        let mut d = Distribution::new();
        d.add(1, half());
        d.add(1, half());
        d.add(2, Ratio::zero());
        assert_eq!(d.support_size(), 1);
        assert_eq!(d.mass(&1), Ratio::one());
    }

    #[test]
    #[should_panic(expected = "negative probability")]
    fn negative_mass_panics() {
        let mut d = Distribution::new();
        d.add(1, Ratio::new(-1, 2));
    }

    #[test]
    fn map_merges_collisions() {
        let d: Distribution<i64> = [(1, half()), (2, Ratio::new(1, 4)), (3, Ratio::new(1, 4))]
            .into_iter()
            .collect();
        let folded = d.map(|v| v % 2);
        assert_eq!(folded.mass(&1), Ratio::new(3, 4));
        assert_eq!(folded.mass(&0), Ratio::new(1, 4));
        assert!(folded.is_proper());
    }

    #[test]
    fn product_is_independent() {
        let coin: Distribution<i64> = [(0, half()), (1, half())].into_iter().collect();
        let two = coin.product(&coin, |a, b| (*a, *b));
        assert_eq!(two.support_size(), 4);
        assert!(two.is_proper());
        assert_eq!(two.mass(&(1, 0)), Ratio::new(1, 4));
    }

    #[test]
    fn probability_that() {
        let die: Distribution<i64> = (1..=6).map(|v| (v, Ratio::new(1, 6))).collect();
        assert_eq!(die.probability_that(|v| v % 2 == 0), half());
        assert_eq!(die.probability_that(|_| false), Ratio::zero());
        assert_eq!(die.probability_that(|_| true), Ratio::one());
    }

    #[test]
    fn scale_and_merge() {
        let d = Distribution::singleton(1).scale(&half());
        assert_eq!(d.total_mass(), half());
        let mut acc = d;
        acc.merge(Distribution::singleton(2).scale(&half()));
        assert!(acc.is_proper());
        assert_eq!(acc.mass(&2), half());
        // Scaling by zero empties the distribution.
        let z = Distribution::singleton(1).scale(&Ratio::zero());
        assert!(z.is_empty());
    }

    /// The rational definition of [`pick_weighted_index`], kept here as
    /// the reference for its integer-domain fast path.
    fn reference_pick(weights: &[Ratio], draw: u64) -> usize {
        let total: Ratio = weights.iter().sum();
        let u = Ratio::from_parts(
            crate::BigInt::from(draw),
            crate::BigUint::one().shl_bits(64),
        );
        let target = u.mul_ref(&total);
        let mut acc = Ratio::zero();
        for (i, w) in weights.iter().enumerate() {
            acc = acc.add_ref(w);
            if target < acc {
                return i;
            }
        }
        weights.len() - 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn prop_pick_matches_rational_reference(
            parts in proptest::collection::vec(
                (
                    prop_oneof![1u64..5, 1u64..1_000_000, u64::MAX - 3..=u64::MAX],
                    prop_oneof![1u64..=1, 1u64..13, 1u64..1_000_000, u64::MAX - 3..=u64::MAX],
                ),
                1..7,
            ),
            draw in prop_oneof![Just(0u64), Just(u64::MAX), Just(1u64 << 63), any::<u64>()],
        ) {
            let weights: Vec<Ratio> = parts
                .iter()
                .map(|&(n, d)| {
                    Ratio::from_parts(crate::BigInt::from(n), crate::BigUint::from(d))
                })
                .collect();
            prop_assert_eq!(pick_weighted_index(&weights, draw), reference_pick(&weights, draw));
        }
    }

    #[test]
    fn integer_pick_covers_boundaries_and_declines_overflow() {
        // Weights 1/3, 1/6, 1/2: L = 6, integer weights 2, 1, 3.
        let weights = vec![Ratio::new(1, 3), Ratio::new(1, 6), Ratio::new(1, 2)];
        // Boundary draws ⌈2⁶⁴·k/6⌉ land exactly on the next region.
        for (draw, want) in [
            (0, 0),
            (6_148_914_691_236_517_205, 0),
            (6_148_914_691_236_517_206, 1),
            (9_223_372_036_854_775_807, 1),
            (9_223_372_036_854_775_808, 2),
            (u64::MAX, 2),
        ] {
            assert_eq!(
                pick_integer_weighted_index(&weights, draw),
                Some(want),
                "{draw}"
            );
            assert_eq!(reference_pick(&weights, draw), want, "{draw}");
        }
        // A total past u64 declines the fast path; the rational path answers.
        let huge = vec![
            Ratio::from_integer(i64::MAX),
            Ratio::from_integer(i64::MAX),
            Ratio::new(1, 2),
        ];
        assert_eq!(pick_integer_weighted_index(&huge, 5), None);
        assert_eq!(
            pick_weighted_index(&huge, u64::MAX),
            reference_pick(&huge, u64::MAX)
        );
    }

    #[test]
    fn pick_weighted_index_respects_weights() {
        let weights = vec![Ratio::new(1, 4), Ratio::new(3, 4)];
        // draw = 0 → first region; draw near max → last region.
        assert_eq!(pick_weighted_index(&weights, 0), 0);
        assert_eq!(pick_weighted_index(&weights, u64::MAX), 1);
        // Quarter boundary: draws below 2⁶²· are index 0.
        assert_eq!(pick_weighted_index(&weights, 1 << 61), 0);
        assert_eq!(pick_weighted_index(&weights, 1 << 63), 1);
        // Unnormalized weights behave the same.
        let w2 = vec![Ratio::from_integer(1), Ratio::from_integer(3)];
        assert_eq!(pick_weighted_index(&w2, 1 << 61), 0);
        assert_eq!(pick_weighted_index(&w2, 1 << 63), 1);
    }

    #[test]
    #[should_panic(expected = "no weights")]
    fn pick_weighted_index_empty_panics() {
        pick_weighted_index(&[], 0);
    }

    #[test]
    fn try_map_propagates_errors() {
        let d: Distribution<i64> = [(1, half()), (2, half())].into_iter().collect();
        let ok: Result<Distribution<i64>, String> = d.clone().try_map(|v| Ok(v * 10));
        assert_eq!(ok.unwrap().mass(&20), half());
        let err: Result<Distribution<i64>, String> =
            d.try_map(|v| if v == 2 { Err("bad".into()) } else { Ok(v) });
        assert_eq!(err.unwrap_err(), "bad");
    }
}
