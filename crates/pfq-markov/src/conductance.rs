//! Conductance and Cheeger-style mixing-time bounds.
//!
//! The paper closes §5.1 by noting that “there are several techniques
//! studied in the literature (e.g., conductance and coupling) for
//! characterizing Markov Chains with mixing time that is polynomial in
//! the number of states”, and poses syntactic counterparts as future
//! work. This module provides the analysis side: exact conductance of an
//! explicit chain and the classic Jerrum–Sinclair bound
//!
//! ```text
//! t(ε) ≤ (2/Φ²) · ln(1/(ε·π_min))        (lazy, reversible chains)
//! ```
//!
//! which certifies rapid mixing whenever the conductance `Φ` is large.
//! Computing `Φ` exactly enumerates all state subsets — `O(2ⁿ)` — so this
//! is an *experiment calibration* tool for small chains, matching how the
//! E7 experiment uses measured mixing times.

use crate::stationary::exact_stationary;
use crate::MarkovChain;
use pfq_num::Ratio;

/// Whether the chain is reversible w.r.t. its stationary distribution:
/// `π_i·P(i,j) = π_j·P(j,i)` for all pairs (checked exactly).
/// Returns `None` when the chain is not irreducible.
pub fn is_reversible<S: Ord + Clone>(chain: &MarkovChain<S>) -> Option<bool> {
    let pi = exact_stationary(chain).ok()?;
    Some(reversible(chain, &pi))
}

/// Detailed balance against the stationary distribution `pi`.
fn reversible<S: Ord + Clone>(chain: &MarkovChain<S>, pi: &[Ratio]) -> bool {
    (0..chain.len()).all(|i| {
        chain
            .row(i)
            .iter()
            .all(|(j, p_ij)| pi[i].mul_ref(p_ij) == pi[*j].mul_ref(&chain.prob(*j, i)))
    })
}

/// Whether every state holds at least probability 1/2 (a *lazy* chain —
/// the precondition of the Cheeger-style bound below).
pub fn is_lazy<S: Ord + Clone>(chain: &MarkovChain<S>) -> bool {
    let half = Ratio::new(1, 2);
    (0..chain.len()).all(|i| chain.prob(i, i) >= half)
}

/// The exact conductance `Φ = min_{S: 0 < π(S) ≤ 1/2} Q(S, S̄)/π(S)`
/// where `Q(S, S̄) = Σ_{i∈S, j∉S} π_i·P(i, j)`, computed entirely in
/// [`Ratio`] — the subset filter `π(S) ≤ 1/2` and the minimisation are
/// exact comparisons, so boundary cuts are classified correctly where
/// f64 flows could mis-rank two near-equal cuts.
///
/// Enumerates all `2ⁿ` subsets; panics if the chain has more than 25
/// states (use sampling-based estimates beyond that). Returns `None` if
/// the chain is not irreducible.
pub fn conductance<S: Ord + Clone>(chain: &MarkovChain<S>) -> Option<Ratio> {
    let pi = exact_stationary(chain).ok()?;
    conductance_of(chain, &pi)
}

/// [`conductance`] against the stationary distribution `pi`.
fn conductance_of<S: Ord + Clone>(chain: &MarkovChain<S>, pi: &[Ratio]) -> Option<Ratio> {
    let n = chain.len();
    assert!(
        n <= 25,
        "exact conductance enumerates 2^n subsets; n = {n} is too large"
    );
    // Precompute edge flows π_i·P(i,j).
    let flows: Vec<Vec<(usize, Ratio)>> = (0..n)
        .map(|i| {
            chain
                .row(i)
                .iter()
                .map(|(j, p)| (*j, pi[i].mul_ref(p)))
                .collect()
        })
        .collect();

    let half = Ratio::new(1, 2);
    let mut best: Option<Ratio> = None;
    // Iterate proper non-empty subsets; by symmetry of the minimization
    // over S vs S̄ we restrict to π(S) ≤ 1/2 explicitly.
    for mask in 1u32..((1u32 << n) - 1) {
        let pi_s: Ratio = (0..n)
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| pi[i].clone())
            .sum();
        if !pi_s.is_positive() || pi_s > half {
            continue;
        }
        let mut q = Ratio::zero();
        for i in (0..n).filter(|&i| mask >> i & 1 == 1) {
            for (j, f) in &flows[i] {
                if mask >> *j & 1 == 0 {
                    q = q.add_ref(f);
                }
            }
        }
        let cut = q.div_ref(&pi_s);
        best = Some(match best {
            None => cut,
            Some(b) => b.min(cut),
        });
    }
    best
}

/// The Jerrum–Sinclair upper bound `t(ε) ≤ (2/Φ²)·ln(1/(ε·π_min))` for
/// lazy reversible chains. Returns `None` when the preconditions fail
/// (not irreducible, not lazy, not reversible) or `Φ = 0`. The
/// stationary distribution is solved once, for all three of its uses.
pub fn cheeger_mixing_bound<S: Ord + Clone>(chain: &MarkovChain<S>, epsilon: f64) -> Option<f64> {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    if !is_lazy(chain) {
        return None;
    }
    let pi = exact_stationary(chain).ok()?;
    if !reversible(chain, &pi) {
        return None;
    }
    let phi_exact = conductance_of(chain, &pi)?;
    if !phi_exact.is_positive() {
        return None;
    }
    // The bound itself involves ln(), so f64 enters only here — after
    // the conductance minimisation has been decided exactly.
    let phi = phi_exact.to_f64();
    let pi_min = pi.iter().map(Ratio::to_f64).fold(f64::INFINITY, f64::min);
    Some((2.0 / (phi * phi)) * (1.0 / (epsilon * pi_min)).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::mixing_time;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    /// Lazy symmetric 2-state chain: flip w.p. q ≤ 1/2.
    fn lazy_flip(q_num: i64, q_den: i64) -> MarkovChain<u32> {
        let q = r(q_num, q_den);
        let stay = Ratio::one().sub_ref(&q);
        MarkovChain::from_rows(
            vec![0, 1],
            vec![
                vec![(0, stay.clone()), (1, q.clone())],
                vec![(0, q), (1, stay)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn two_state_conductance_is_flip_probability() {
        // π = (1/2, 1/2); the only cut has Q = 1/2·q, π(S) = 1/2 → Φ = q.
        assert_eq!(conductance(&lazy_flip(1, 4)), Some(r(1, 4)));
        assert_eq!(conductance(&lazy_flip(1, 2)), Some(r(1, 2)));
    }

    #[test]
    fn conductance_is_exact_not_float() {
        // Regression for the documented-exact-but-computed-in-f64 bug:
        // with flip probability 1/3 the conductance is exactly 1/3, a
        // value no f64 can represent. The exact path returns the
        // canonical rational, equal to Ratio::new(1, 3) bit for bit.
        assert_eq!(conductance(&lazy_flip(1, 3)), Some(r(1, 3)));
        // And flows stay exact through a 3-state chain whose cut values
        // involve thirds: lazy walk on a triangle.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            (0..3)
                .map(|i| {
                    (0..3)
                        .map(|j| (j, if i == j { r(1, 2) } else { r(1, 4) }))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        // π uniform = 1/3; best cut S = {i}: Q = 1/3·(1/4+1/4) = 1/6,
        // π(S) = 1/3 → Φ = 1/2.
        assert_eq!(conductance(&c), Some(r(1, 2)));
    }

    #[test]
    fn reversibility_checks() {
        assert_eq!(is_reversible(&lazy_flip(1, 4)), Some(true));
        // A directed 3-cycle is irreducible but not reversible.
        let cycle = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap();
        assert_eq!(is_reversible(&cycle), Some(false));
        // A reducible chain has no stationary basis for the question.
        let reducible = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(1, Ratio::one())]],
        )
        .unwrap();
        assert_eq!(is_reversible(&reducible), None);
    }

    #[test]
    fn laziness_check() {
        assert!(is_lazy(&lazy_flip(1, 4)));
        assert!(is_lazy(&lazy_flip(1, 2)));
        assert!(!is_lazy(&lazy_flip_unlazy()));
    }

    fn lazy_flip_unlazy() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0, 1],
            vec![
                vec![(0, r(1, 4)), (1, r(3, 4))],
                vec![(0, r(3, 4)), (1, r(1, 4))],
            ],
        )
        .unwrap()
    }

    #[test]
    fn cheeger_bound_dominates_measured_mixing_time() {
        for (qn, qd) in [(1i64, 4i64), (1, 8), (3, 8)] {
            let c = lazy_flip(qn, qd);
            let bound = cheeger_mixing_bound(&c, 0.05).unwrap();
            let measured = mixing_time(&c, 0.05, 100_000).unwrap() as f64;
            assert!(
                measured <= bound.ceil(),
                "q = {qn}/{qd}: measured {measured} > bound {bound}"
            );
        }
    }

    #[test]
    fn cheeger_bound_requires_preconditions() {
        assert_eq!(cheeger_mixing_bound(&lazy_flip_unlazy(), 0.05), None);
        let cycle = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap();
        assert_eq!(cheeger_mixing_bound(&cycle, 0.05), None);
    }

    #[test]
    fn bottleneck_lowers_conductance() {
        // Lazy walk on a 4-path vs on a 4-clique: the path's middle edge
        // is a bottleneck.
        let lazy_path = MarkovChain::from_rows(
            vec![0u32, 1, 2, 3],
            vec![
                vec![(0, r(1, 2)), (1, r(1, 2))],
                vec![(0, r(1, 4)), (1, r(1, 2)), (2, r(1, 4))],
                vec![(1, r(1, 4)), (2, r(1, 2)), (3, r(1, 4))],
                vec![(2, r(1, 2)), (3, r(1, 2))],
            ],
        )
        .unwrap();
        let lazy_clique = MarkovChain::from_rows(
            vec![0u32, 1, 2, 3],
            (0..4)
                .map(|i| {
                    (0..4)
                        .map(|j| (j, if i == j { r(5, 8) } else { r(1, 8) }))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let phi_path = conductance(&lazy_path).unwrap();
        let phi_clique = conductance(&lazy_clique).unwrap();
        assert!(phi_path < phi_clique, "{phi_path} vs {phi_clique}"); // exact Ord
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn conductance_guards_state_count() {
        let n = 26;
        let rows = (0..n).map(|i| vec![((i + 1) % n, Ratio::one())]).collect();
        let c = MarkovChain::from_rows((0..n as u32).collect(), rows).unwrap();
        let _ = conductance(&c);
    }
}
