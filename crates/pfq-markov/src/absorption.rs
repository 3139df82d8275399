//! Long-run behaviour of general (reducible) chains — the Theorem 5.5
//! algorithm.
//!
//! With probability 1 a random walk eventually enters a *closed* SCC (a
//! leaf of the condensation DAG) and stays there forever. The long-run
//! time-average distribution from a start state is therefore
//!
//! ```text
//! Pr(s) = Σ_L Pr(absorbed into leaf L | start) · π_L(s)
//! ```
//!
//! where `π_L` is the stationary distribution of the (irreducible) chain
//! restricted to `L`. The paper sketches enumerating all paths into each
//! leaf; we compute the same absorption probabilities exactly — the
//! solution of the linear system `(I − Q)·a = b` over the transient
//! states — by censoring the transient states out with sparse GTH
//! elimination ([`crate::gth`]), an implementation choice documented in
//! `DESIGN.md`. [`crate::dense::long_run_distribution`] solves the same
//! systems densely and is kept as the differential oracle.

use crate::scc::{condensation, Condensation};
use crate::stationary::{exact_stationary, StationaryError};
use crate::{gth, MarkovChain};
use pfq_num::Ratio;
use std::fmt;

/// Errors from long-run analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AbsorptionError {
    /// The start state index is out of range.
    BadStart(usize),
    /// A leaf sub-chain's stationary computation failed (defensive; a
    /// closed finite SCC is always irreducible).
    Stationary(StationaryError),
    /// The transient linear system was singular (defensive; `I − Q` of a
    /// proper substochastic matrix is always invertible).
    Singular,
}

impl fmt::Display for AbsorptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsorptionError::BadStart(i) => write!(f, "start state index {i} out of range"),
            AbsorptionError::Stationary(e) => write!(f, "leaf stationary failed: {e}"),
            AbsorptionError::Singular => write!(f, "transient system was singular"),
        }
    }
}

impl std::error::Error for AbsorptionError {}

/// Exact probability, for each leaf SCC, that a walk from `start` is
/// eventually absorbed into it. Returned as `(leaf_component_index, p)`
/// pairs over the condensation `cond`; probabilities sum to 1.
///
/// Computed by censored GTH elimination of the transient states
/// ([`crate::gth`]); the dense oracle
/// [`crate::dense::absorption_probabilities`] returns the same values.
pub fn absorption_probabilities<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    cond: &Condensation,
    start: usize,
) -> Result<Vec<(usize, Ratio)>, AbsorptionError> {
    if start >= chain.len() {
        return Err(AbsorptionError::BadStart(start));
    }
    // If the start is already inside a leaf, absorption is certain there.
    let start_comp = cond.component_of[start];
    let leaves = cond.leaves();
    if leaves.contains(&start_comp) {
        return Ok(leaves
            .iter()
            .map(|&l| {
                (
                    l,
                    if l == start_comp {
                        Ratio::one()
                    } else {
                        Ratio::zero()
                    },
                )
            })
            .collect());
    }
    gth::absorption_sparse(chain, cond, start)
}

/// The exact long-run time-average distribution over *all* states of a
/// general finite chain, started at `start` — the quantity the paper's
/// non-inflationary query semantics sums over event states.
///
/// Transient states get probability 0; a state `s` in leaf `L` gets
/// `Pr(absorb L) · π_L(s)`.
pub fn long_run_distribution<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    start: usize,
) -> Result<Vec<Ratio>, AbsorptionError> {
    if start >= chain.len() {
        return Err(AbsorptionError::BadStart(start));
    }
    let cond = condensation(chain);
    let mut result = vec![Ratio::zero(); chain.len()];

    // Fast path: irreducible chain (Proposition 5.4).
    if cond.len() == 1 {
        let pi = exact_stationary(chain).map_err(AbsorptionError::Stationary)?;
        return Ok(pi);
    }

    let absorb = absorption_probabilities(chain, &cond, start)?;
    for (leaf, p_absorb) in absorb {
        if p_absorb.is_zero() {
            continue;
        }
        let members = &cond.components[leaf];
        let (sub, _) = chain.restrict(members);
        let pi = exact_stationary(&sub).map_err(AbsorptionError::Stationary)?;
        for (local, &global) in members.iter().enumerate() {
            result[global] = result[global].add_ref(&p_absorb.mul_ref(&pi[local]));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    /// 0 → {1: 1/3, 2: 2/3}; 1 and 2 absorbing.
    fn fork() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0, 1, 2],
            vec![
                vec![(1, r(1, 3)), (2, r(2, 3))],
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn fork_absorption() {
        let c = fork();
        let cond = condensation(&c);
        let probs = absorption_probabilities(&c, &cond, 0).unwrap();
        let total: Ratio = probs.iter().map(|(_, p)| p).sum();
        assert!(total.is_one());
        let by_state: BTreeMap<usize, Ratio> = probs
            .into_iter()
            .map(|(l, p)| (cond.components[l][0], p))
            .collect();
        assert_eq!(by_state[&1], r(1, 3));
        assert_eq!(by_state[&2], r(2, 3));
    }

    #[test]
    fn start_inside_leaf_is_absorbed_there() {
        let c = fork();
        let cond = condensation(&c);
        let probs = absorption_probabilities(&c, &cond, 1).unwrap();
        let by_state: BTreeMap<usize, Ratio> = probs
            .into_iter()
            .map(|(l, p)| (cond.components[l][0], p))
            .collect();
        assert!(by_state[&1].is_one());
        assert!(by_state[&2].is_zero());
    }

    #[test]
    fn fork_long_run() {
        let lr = long_run_distribution(&fork(), 0).unwrap();
        assert_eq!(lr, vec![Ratio::zero(), r(1, 3), r(2, 3)]);
    }

    #[test]
    fn start_inside_leaf() {
        let lr = long_run_distribution(&fork(), 1).unwrap();
        assert_eq!(lr, vec![Ratio::zero(), Ratio::one(), Ratio::zero()]);
    }

    #[test]
    fn irreducible_fast_path() {
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(0, r(1, 2)), (1, r(1, 2))]],
        )
        .unwrap();
        let lr = long_run_distribution(&c, 0).unwrap();
        assert_eq!(lr, vec![r(1, 3), r(2, 3)]);
        // Start state is irrelevant for irreducible chains.
        assert_eq!(long_run_distribution(&c, 1).unwrap(), lr);
    }

    #[test]
    fn transient_chain_into_cycle_leaf() {
        // 0 → 1 → {2,3} cycle. Leaf = {2,3} with uniform π.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2, 3],
            vec![
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
                vec![(3, Ratio::one())],
                vec![(2, Ratio::one())],
            ],
        )
        .unwrap();
        let lr = long_run_distribution(&c, 0).unwrap();
        assert_eq!(lr, vec![Ratio::zero(), Ratio::zero(), r(1, 2), r(1, 2)]);
    }

    #[test]
    fn chained_transients() {
        // 0 → 1 w.p 1/2, 0 → A w.p 1/2; 1 → A w.p 1/2, 1 → B w.p 1/2.
        // P(absorb A) = 1/2 + 1/2·1/2 = 3/4.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 10, 11],
            vec![
                vec![(1, r(1, 2)), (2, r(1, 2))],
                vec![(2, r(1, 2)), (3, r(1, 2))],
                vec![(2, Ratio::one())],
                vec![(3, Ratio::one())],
            ],
        )
        .unwrap();
        let lr = long_run_distribution(&c, 0).unwrap();
        assert_eq!(lr, vec![Ratio::zero(), Ratio::zero(), r(3, 4), r(1, 4)]);
    }

    #[test]
    fn bad_start_errors() {
        assert!(matches!(
            long_run_distribution(&fork(), 99),
            Err(AbsorptionError::BadStart(99))
        ));
    }

    #[test]
    fn methods_agree_bit_for_bit() {
        let c = fork();
        for start in 0..c.len() {
            assert_eq!(
                crate::dense::long_run_distribution(&c, start).unwrap(),
                long_run_distribution(&c, start).unwrap()
            );
        }
    }

    #[test]
    fn long_run_is_a_distribution() {
        let lr = long_run_distribution(&fork(), 0).unwrap();
        let total: Ratio = lr.iter().sum();
        assert!(total.is_one());
    }
}
