//! Total-variation distance and exact mixing times (paper §2.3).
//!
//! The mixing time `t(ε)` is the smallest `t` such that the distribution
//! after `t` steps is within `ε` of stationary *for every start state* —
//! the quantity Theorem 5.6's sampling algorithm pays for per sample.

use crate::{gth, scc, MarkovChain};
use pfq_num::Ratio;

/// Total-variation distance `½·Σ|aᵢ − bᵢ|` between two f64 distributions.
pub fn tv_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// Exact total-variation distance between two rational distributions.
pub fn tv_distance_exact(a: &[Ratio], b: &[Ratio]) -> Ratio {
    assert_eq!(a.len(), b.len());
    let sum: Ratio = a.iter().zip(b).map(|(x, y)| x.abs_diff(y)).sum();
    sum.mul_ref(&Ratio::new(1, 2))
}

/// Estimates the mixing time `t(ε)` of an *ergodic* chain in f64 by
/// explicitly evolving the distribution from every start state until all
/// are within TV-distance `ε` of the stationary distribution.
///
/// Returns `None` if the chain is not ergodic or `max_t` is exceeded.
/// Cost is `O(max_t · n²)` — this is an analysis tool for experiments,
/// not a production estimator.
///
/// **Caveat**: this float version stops at strict `TV < ε`, so when the
/// exact TV distance *equals* `ε` at some step it answers one step later
/// than §2.3's `t(ε) = min{t : TV ≤ ε}`. Use [`mixing_time_exact`]
/// wherever the answer feeds an exactness-sensitive computation (e.g.
/// the burn-in `T(q, D)` of Theorem 5.6 sampling).
pub fn mixing_time<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    epsilon: f64,
    max_t: usize,
) -> Option<usize> {
    let pi: Vec<f64> = ergodic_stationary(chain)?
        .iter()
        .map(Ratio::to_f64)
        .collect();
    let n = chain.len();
    // One distribution per start state, beginning as point masses.
    let mut dists: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            let mut d = vec![0.0; n];
            d[s] = 1.0;
            d
        })
        .collect();
    for t in 0..=max_t {
        let worst = dists
            .iter()
            .map(|d| tv_distance(d, &pi))
            .fold(0.0f64, f64::max);
        if worst < epsilon {
            return Some(t);
        }
        for d in &mut dists {
            *d = chain.step_distribution_f64(d);
        }
    }
    None
}

/// The exact mixing time `t(ε)` of an *ergodic* chain, per the paper's
/// §2.3 definition: the smallest `t` such that the distribution after
/// `t` steps is within TV-distance **≤** `ε` of stationary for every
/// start state — computed entirely in [`Ratio`], so a chain whose TV
/// hits `ε` exactly at step `t` answers `t`, not `t + 1` (the float
/// [`mixing_time`] is off by one there).
///
/// Returns `None` if the chain is not ergodic or `max_t` is exceeded.
/// Cost is `O(max_t · n²)` rational operations.
pub fn mixing_time_exact<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    epsilon: &Ratio,
    max_t: usize,
) -> Option<usize> {
    let pi = ergodic_stationary(chain)?;
    let n = chain.len();
    let mut dists: Vec<Vec<Ratio>> = (0..n)
        .map(|s| {
            let mut d = vec![Ratio::zero(); n];
            d[s] = Ratio::one();
            d
        })
        .collect();
    for t in 0..=max_t {
        let worst = dists
            .iter()
            .map(|d| tv_distance_exact(d, &pi))
            .max()
            .unwrap_or_else(Ratio::zero);
        if worst <= *epsilon {
            return Some(t);
        }
        for d in &mut dists {
            *d = chain.step_distribution(d);
        }
    }
    None
}

/// The stationary distribution of an ergodic chain; `None` otherwise.
/// The ergodicity check condenses the chain, so the solve does not
/// check irreducibility again.
fn ergodic_stationary<S: Ord + Clone>(chain: &MarkovChain<S>) -> Option<Vec<Ratio>> {
    if !scc::is_ergodic(chain) {
        return None;
    }
    let all: Vec<usize> = (0..chain.len()).collect();
    gth::class_stationary(chain, &all).ok().map(|(pi, _)| pi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn tv_basics() {
        assert_eq!(tv_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(tv_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((tv_distance(&[0.7, 0.3], &[0.5, 0.5]) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn tv_exact() {
        let a = vec![Ratio::one(), Ratio::zero()];
        let b = vec![r(1, 2), r(1, 2)];
        assert_eq!(tv_distance_exact(&a, &b), r(1, 2));
        assert_eq!(tv_distance_exact(&a, &a), Ratio::zero());
    }

    #[test]
    fn instant_mixing_for_memoryless_chain() {
        // Every row identical ⇒ mixed after one step.
        let row = vec![(0, r(1, 2)), (1, r(1, 2))];
        let c = MarkovChain::from_rows(vec![0u32, 1], vec![row.clone(), row]).unwrap();
        assert_eq!(mixing_time(&c, 1e-9, 100), Some(1));
    }

    /// Genuinely lazy flip chain: stay w.p. 3/4, flip w.p. 1/4. The
    /// second eigenvalue is λ = 1 − 2q = 1/2, so from a point mass
    /// TV after t steps is exactly 2^−(t+1).
    fn lazy_flip_quarter() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, r(3, 4)), (1, r(1, 4))],
                vec![(0, r(1, 4)), (1, r(3, 4))],
            ],
        )
        .unwrap()
    }

    #[test]
    fn lazy_two_state_mixes_geometrically() {
        // TV(t) = 2^-(t+1): the first t with 2^-(t+1) ≤ 0.01 is t = 6
        // (2^-7 = 1/128), not t = 1 — a memoryless chain with identical
        // rows (the old test fixture) mixes in one step and proves
        // nothing about geometric decay.
        let c = lazy_flip_quarter();
        assert_eq!(mixing_time(&c, 0.01, 100), Some(6));
        assert_eq!(mixing_time_exact(&c, &r(1, 100), 100), Some(6));
    }

    #[test]
    fn exact_mixing_time_is_inclusive_at_the_boundary() {
        // §2.3: t(ε) = min{t : TV ≤ ε}. With ε = 1/32 the lazy flip
        // chain has TV(4) = 2^-5 = 1/32 exactly, so the exact answer is
        // 4. The float path demands strict TV < ε (1/32 = 0.03125 is
        // exactly representable, so no rounding rescues it) and answers
        // 5 — the off-by-one this regression test pins down.
        let c = lazy_flip_quarter();
        assert_eq!(mixing_time_exact(&c, &r(1, 32), 100), Some(4));
        assert_eq!(mixing_time(&c, 0.03125, 100), Some(5));
    }

    #[test]
    fn exact_mixing_time_handles_non_ergodic_and_budget() {
        let periodic = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(0, Ratio::one())]],
        )
        .unwrap();
        assert_eq!(mixing_time_exact(&periodic, &r(1, 100), 1000), None);
        assert_eq!(
            mixing_time_exact(&lazy_flip_quarter(), &r(1, 1024), 3),
            None
        );
    }

    #[test]
    fn slow_chain_has_larger_mixing_time() {
        // Sticky two-state chain: flip w.p. 1/10 only.
        let sticky = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, r(9, 10)), (1, r(1, 10))],
                vec![(0, r(1, 10)), (1, r(9, 10))],
            ],
        )
        .unwrap();
        let fast = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, r(1, 2)), (1, r(1, 2))],
                vec![(0, r(1, 2)), (1, r(1, 2))],
            ],
        )
        .unwrap();
        let t_sticky = mixing_time(&sticky, 0.01, 1000).unwrap();
        let t_fast = mixing_time(&fast, 0.01, 1000).unwrap();
        assert!(t_sticky > t_fast, "{t_sticky} vs {t_fast}");
        // TV decays as (4/5)^t: t(0.01) = ceil(log(0.01·2)/log(0.8)) ≈ 18.
        assert!((15..=25).contains(&t_sticky), "{t_sticky}");
    }

    #[test]
    fn periodic_chain_has_no_mixing_time() {
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(0, Ratio::one())]],
        )
        .unwrap();
        assert_eq!(mixing_time(&c, 0.01, 1000), None);
    }

    #[test]
    fn max_t_exceeded_returns_none() {
        let sticky = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, r(99, 100)), (1, r(1, 100))],
                vec![(0, r(1, 100)), (1, r(99, 100))],
            ],
        )
        .unwrap();
        assert_eq!(mixing_time(&sticky, 1e-6, 2), None);
    }
}
