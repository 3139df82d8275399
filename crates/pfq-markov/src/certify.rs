//! Exact certificates for solved chains.
//!
//! The multi-modular solves in [`crate::gth`] rebuild rationals from
//! residues, and nothing in that code is trusted: a rebuilt vector is
//! accepted only when one of the checks here holds for it, in exact
//! [`Ratio`] arithmetic. Each check is a handful of sums over the
//! chain's edges and shares no code with the solver.
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
use pfq_num::Ratio;

/// Whether `pi` (in `members` order) is the stationary distribution of
/// the class `members` (sorted state indices, irreducible): every
/// member's transitions stay in the class, `π P = π` on it, and
/// `Σ π = 1`.
pub fn stationary<S: Ord + Clone>(chain: &MarkovChain<S>, members: &[usize], pi: &[Ratio]) -> bool {
    if pi.len() != members.len() {
        return false;
    }
    let mut inflow = vec![Ratio::zero(); members.len()];
    for (p_i, &i) in pi.iter().zip(members) {
        for (j, p) in chain.row(i) {
            let Ok(b) = members.binary_search(j) else {
                return false; // the class is not closed
            };
            inflow[b] = inflow[b].add_ref(&p_i.mul_ref(p));
        }
    }
    inflow == pi && pi.iter().sum::<Ratio>().is_one()
}

/// Whether `x` holds the expected visits of a walk from the transient
/// state `start` to each of `cond`'s transient states (those outside
/// every leaf of [`Condensation::leaves`], in index order) before it is
/// absorbed: `x_i = [i = start] + Σ_t x_t · P(t, i)` over the transient
/// states `t`.
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
    if x.len() != transient.len() {
        return false;
    }
    let mut inflow = vec![Ratio::zero(); transient.len()];
    inflow[s] = Ratio::one();
    for (x_t, &t) in x.iter().zip(&transient) {
        for (j, p) in chain.row(t) {
            if let Ok(b) = transient.binary_search(j) {
                inflow[b] = inflow[b].add_ref(&x_t.mul_ref(p));
            }
        }
    }
    inflow == x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::condensation;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
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
