//! Stationary distributions: exact (sparse GTH elimination modulo
//! word-sized primes, certified exactly — the Proposition 5.4 route)
//! and numeric (power iteration on the lazy chain). [`exact_stationary`]
//! condenses the chain once to check irreducibility, then runs the
//! stationary driver of the one GTH censoring routine ([`crate::gth`]),
//! which the absorption solve shares. The dense Gaussian-elimination
//! oracle lives in [`crate::dense`].

use crate::{gth, MarkovChain};
use pfq_num::Ratio;
use std::fmt;

/// Errors from stationary-distribution computation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StationaryError {
    /// The chain is not irreducible; a unique stationary distribution
    /// exists iff the chain is irreducible and positively recurrent
    /// (always the case for finite irreducible chains).
    NotIrreducible,
    /// The linear system was singular (cannot happen for a stochastic
    /// matrix of an irreducible chain; kept as defense in depth).
    Singular,
}

impl fmt::Display for StationaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StationaryError::NotIrreducible => {
                write!(
                    f,
                    "chain is not irreducible; no unique stationary distribution"
                )
            }
            StationaryError::Singular => write!(f, "stationary linear system was singular"),
        }
    }
}

impl std::error::Error for StationaryError {}

/// Computes the exact stationary distribution `π` of an irreducible
/// chain: the unique solution of `π = π·P`, `Σπ = 1`.
///
/// For a finite irreducible chain `π` exists regardless of periodicity
/// and equals the Cesàro (time-average) limit — precisely the paper's
/// `Pr(s)` for forever-queries.
///
/// Computed by sparse GTH elimination modulo primes and accepted by an
/// exact check ([`crate::gth`]); the dense oracle
/// [`crate::dense::stationary`] returns the same vector bit for bit.
pub fn exact_stationary<S: Ord + Clone>(
    chain: &MarkovChain<S>,
) -> Result<Vec<Ratio>, StationaryError> {
    gth::stationary_solve(chain).map(|(pi, _)| pi)
}

/// Approximates the stationary distribution by power iteration on the
/// *lazy* chain `P' = (P + I)/2`, which is aperiodic and shares `π`
/// with `P`. Stops when the L1 change per step drops below `tol`, or
/// returns `None` after `max_iters`.
pub fn power_iteration<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    tol: f64,
    max_iters: usize,
) -> Option<Vec<f64>> {
    let n = chain.len();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut x = vec![1.0 / n as f64; n];
    for _ in 0..max_iters {
        let stepped = chain.step_distribution_f64(&x);
        let next: Vec<f64> = stepped
            .iter()
            .zip(&x)
            .map(|(s, xi)| 0.5 * s + 0.5 * xi)
            .collect();
        let delta: f64 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
        x = next;
        if delta < tol {
            return Some(x);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    /// 0 → 1 w.p. 1; 1 → {0: 1/2, 1: 1/2}. π = (1/3, 2/3).
    fn two_state() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0, 1],
            vec![vec![(1, Ratio::one())], vec![(0, r(1, 2)), (1, r(1, 2))]],
        )
        .unwrap()
    }

    #[test]
    fn exact_two_state() {
        let pi = exact_stationary(&two_state()).unwrap();
        assert_eq!(pi, vec![r(1, 3), r(2, 3)]);
    }

    #[test]
    fn exact_is_invariant() {
        let c = two_state();
        let pi = exact_stationary(&c).unwrap();
        assert_eq!(c.step_distribution(&pi), pi);
    }

    #[test]
    fn exact_periodic_cycle_is_uniform() {
        // Deterministic 3-cycle: periodic, but π = uniform still solves
        // π = πP and equals the time-average limit.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap();
        let pi = exact_stationary(&c).unwrap();
        assert_eq!(pi, vec![r(1, 3), r(1, 3), r(1, 3)]);
    }

    #[test]
    fn exact_rejects_reducible() {
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(1, Ratio::one())]],
        )
        .unwrap();
        assert_eq!(exact_stationary(&c), Err(StationaryError::NotIrreducible));
    }

    #[test]
    fn single_state() {
        let c = MarkovChain::from_rows(vec![0u32], vec![vec![(0, Ratio::one())]]).unwrap();
        assert_eq!(exact_stationary(&c).unwrap(), vec![Ratio::one()]);
    }

    #[test]
    fn methods_agree_bit_for_bit() {
        let c = two_state();
        assert_eq!(
            crate::dense::stationary(&c).unwrap(),
            exact_stationary(&c).unwrap()
        );
    }

    #[test]
    fn power_iteration_matches_exact() {
        let c = two_state();
        let exact = exact_stationary(&c).unwrap();
        let approx = power_iteration(&c, 1e-12, 10_000).unwrap();
        for (e, a) in exact.iter().zip(&approx) {
            assert!((e.to_f64() - a).abs() < 1e-9);
        }
    }

    #[test]
    fn power_iteration_handles_periodic_chains() {
        // Plain power iteration would oscillate on a 2-cycle; the lazy
        // variant converges to the uniform stationary distribution.
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(0, Ratio::one())]],
        )
        .unwrap();
        let pi = power_iteration(&c, 1e-12, 10_000).unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
        assert!((pi[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn power_iteration_gives_up() {
        let c = two_state();
        assert_eq!(power_iteration(&c, 0.0, 3), None);
    }

    #[test]
    fn random_walk_on_weighted_triangle() {
        // Birth–death chain on {0,1,2}: detailed balance gives an easy
        // hand-computable π.
        // 0 → 1 (1); 1 → 0 (1/4), 1 → 2 (3/4); 2 → 1 (1).
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(0, r(1, 4)), (2, r(3, 4))],
                vec![(1, Ratio::one())],
            ],
        )
        .unwrap();
        // Balance: π0·1 = π1·1/4 and π2·1 = π1·3/4 → π ∝ (1/4, 1, 3/4).
        let pi = exact_stationary(&c).unwrap();
        assert_eq!(pi, vec![r(1, 8), r(1, 2), r(3, 8)]);
    }
}
