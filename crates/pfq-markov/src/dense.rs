//! The dense reference path: exact rational Gaussian elimination with
//! partial pivoting over [`Ratio`]s, and the stationary, absorption and
//! long-run computations built on it.
//!
//! Proposition 5.4 computes stationary distributions by “Gaussian
//! elimination … to compute the principal eigenvector”; because our
//! probabilities are exact rationals, the solver is exact too. This
//! module is that computation taken literally: it forms the full `n × n`
//! system, so it costs `O(n³)` time and `O(n²)` memory regardless of
//! sparsity. Production uses the sparse GTH elimination in [`crate::gth`]
//! (through [`crate::stationary::exact_stationary`] and
//! [`crate::absorption::long_run_distribution`]), which returns the same
//! `Ratio`s bit for bit. This module shares no code with it and is kept
//! as the differential oracle, called by name as `pfq_markov::dense`.

use crate::absorption::AbsorptionError;
use crate::scc::{self, condensation, Condensation};
use crate::stationary::StationaryError;
use crate::MarkovChain;
use pfq_num::Ratio;
use std::collections::BTreeMap;

/// Solves the dense linear system `A·x = b` exactly.
///
/// Returns `None` if `A` is singular. `a` is row-major and consumed.
#[allow(clippy::needless_range_loop)] // index-driven elimination reads and writes disjoint rows
pub fn solve(mut a: Vec<Vec<Ratio>>, mut b: Vec<Ratio>) -> Option<Vec<Ratio>> {
    let n = a.len();
    assert_eq!(b.len(), n, "dimension mismatch");
    for row in &a {
        assert_eq!(row.len(), n, "matrix must be square");
    }

    for col in 0..n {
        // Pivot: any row at/below `col` with a nonzero entry. (Over exact
        // rationals any nonzero pivot is numerically fine; we pick the
        // first for determinism.)
        let pivot = (col..n).find(|&r| !a[r][col].is_zero())?;
        a.swap(col, pivot);
        b.swap(col, pivot);

        let inv = a[col][col].recip();
        for c in col..n {
            a[col][c] = a[col][c].mul_ref(&inv);
        }
        b[col] = b[col].mul_ref(&inv);

        for r in 0..n {
            if r == col || a[r][col].is_zero() {
                continue;
            }
            let factor = a[r][col].clone();
            for c in col..n {
                let delta = factor.mul_ref(&a[col][c]);
                a[r][c] = a[r][c].sub_ref(&delta);
            }
            let delta = factor.mul_ref(&b[col]);
            b[r] = b[r].sub_ref(&delta);
        }
    }
    Some(b)
}

/// The exact stationary distribution of an irreducible chain: builds
/// the balance equations `π = π·P`, `Σπ = 1` and [`solve`]s them.
#[allow(clippy::needless_range_loop)] // the balance equations are naturally index-driven
pub fn stationary<S: Ord + Clone>(chain: &MarkovChain<S>) -> Result<Vec<Ratio>, StationaryError> {
    if !scc::is_irreducible(chain) {
        return Err(StationaryError::NotIrreducible);
    }
    let n = chain.len();
    if n == 1 {
        return Ok(vec![Ratio::one()]);
    }
    // Equations 0..n-1: Σ_i π_i (P_ij − δ_ij) = 0 for j = 0..n-2
    // (one balance equation is redundant), plus Σ_i π_i = 1.
    let mut a = vec![vec![Ratio::zero(); n]; n];
    for i in 0..n {
        for (j, p) in chain.row(i) {
            if *j < n - 1 {
                a[*j][i] = p.clone();
            }
        }
    }
    for (j, row) in a.iter_mut().enumerate().take(n - 1) {
        row[j] = row[j].sub_ref(&Ratio::one());
    }
    for i in 0..n {
        a[n - 1][i] = Ratio::one();
    }
    let mut b = vec![Ratio::zero(); n];
    b[n - 1] = Ratio::one();
    solve(a, b).ok_or(StationaryError::Singular)
}

/// Exact probability, for each leaf SCC of `cond`, that a walk from
/// `start` is eventually absorbed into it: one [`solve`] of
/// `(I − Q)·a = b_L` per leaf `L`, where `Q` is the transient→transient
/// block and `b_L(i) = Σ_{j ∈ L} P(i, j)`. Returns
/// `(leaf_component_index, p)` pairs in [`Condensation::leaves`] order.
pub fn absorption_probabilities<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    cond: &Condensation,
    start: usize,
) -> Result<Vec<(usize, Ratio)>, AbsorptionError> {
    if start >= chain.len() {
        return Err(AbsorptionError::BadStart(start));
    }
    let leaves = cond.leaves();
    let mut is_leaf_comp = vec![false; cond.len()];
    for &l in &leaves {
        is_leaf_comp[l] = true;
    }

    // A start inside a leaf is absorbed there with certainty.
    let start_comp = cond.component_of[start];
    if is_leaf_comp[start_comp] {
        return Ok(leaves
            .iter()
            .map(|&l| {
                let p = if l == start_comp {
                    Ratio::one()
                } else {
                    Ratio::zero()
                };
                (l, p)
            })
            .collect());
    }

    // Transient states: those in non-leaf components.
    let transient: Vec<usize> = (0..chain.len())
        .filter(|&i| !is_leaf_comp[cond.component_of[i]])
        .collect();
    let t_index: BTreeMap<usize, usize> =
        transient.iter().enumerate().map(|(k, &i)| (i, k)).collect();

    let nt = transient.len();
    let mut i_minus_q = vec![vec![Ratio::zero(); nt]; nt];
    for (k, &i) in transient.iter().enumerate() {
        i_minus_q[k][k] = Ratio::one();
        for (j, p) in chain.row(i) {
            if let Some(&kj) = t_index.get(j) {
                i_minus_q[k][kj] = i_minus_q[k][kj].sub_ref(p);
            }
        }
    }

    let start_t = t_index[&start];
    let mut out = Vec::with_capacity(leaves.len());
    for &l in &leaves {
        let mut b = vec![Ratio::zero(); nt];
        for (k, &i) in transient.iter().enumerate() {
            for (j, p) in chain.row(i) {
                if cond.component_of[*j] == l {
                    b[k] = b[k].add_ref(p);
                }
            }
        }
        let a = solve(i_minus_q.clone(), b).ok_or(AbsorptionError::Singular)?;
        out.push((l, a[start_t].clone()));
    }
    Ok(out)
}

/// The exact long-run time-average distribution of a general chain from
/// `start` (Theorem 5.5), with dense elimination for both the absorption
/// solve and each leaf's stationary solve: a state `s` in leaf `L` gets
/// `Pr(absorb L) · π_L(s)`, a transient state gets 0.
pub fn long_run_distribution<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    start: usize,
) -> Result<Vec<Ratio>, AbsorptionError> {
    if start >= chain.len() {
        return Err(AbsorptionError::BadStart(start));
    }
    let cond = condensation(chain);
    if cond.len() == 1 {
        return stationary(chain).map_err(AbsorptionError::Stationary);
    }
    let mut result = vec![Ratio::zero(); chain.len()];
    for (leaf, p_absorb) in absorption_probabilities(chain, &cond, start)? {
        if p_absorb.is_zero() {
            continue;
        }
        let members = &cond.components[leaf];
        let (sub, _) = chain.restrict(members);
        let pi = stationary(&sub).map_err(AbsorptionError::Stationary)?;
        for (local, &global) in members.iter().enumerate() {
            result[global] = result[global].add_ref(&p_absorb.mul_ref(&pi[local]));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn solve_2x2() {
        // x + y = 3; x - y = 1 → x = 2, y = 1.
        let a = vec![vec![r(1, 1), r(1, 1)], vec![r(1, 1), r(-1, 1)]];
        let b = vec![r(3, 1), r(1, 1)];
        assert_eq!(solve(a, b), Some(vec![r(2, 1), r(1, 1)]));
    }

    #[test]
    fn solve_needs_pivoting() {
        // First pivot is zero; solvable only with row swap.
        let a = vec![vec![r(0, 1), r(1, 1)], vec![r(1, 1), r(0, 1)]];
        let b = vec![r(5, 1), r(7, 1)];
        assert_eq!(solve(a, b), Some(vec![r(7, 1), r(5, 1)]));
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = vec![vec![r(1, 1), r(2, 1)], vec![r(2, 1), r(4, 1)]];
        let b = vec![r(1, 1), r(2, 1)];
        assert_eq!(solve(a, b), None);
    }

    #[test]
    fn solve_exact_fractions() {
        // (1/3)x = 1 → x = 3, exactly.
        let a = vec![vec![r(1, 3)]];
        let b = vec![Ratio::one()];
        assert_eq!(solve(a, b), Some(vec![r(3, 1)]));
    }

    proptest! {
        #[test]
        fn prop_solve_then_multiply_roundtrips(
            entries in proptest::collection::vec(-6i64..=6, 9),
            rhs in proptest::collection::vec(-6i64..=6, 3),
        ) {
            let a: Vec<Vec<Ratio>> = (0..3)
                .map(|i| (0..3).map(|j| Ratio::from_integer(entries[3 * i + j])).collect())
                .collect();
            let b: Vec<Ratio> = rhs.iter().map(|&v| Ratio::from_integer(v)).collect();
            if let Some(x) = solve(a.clone(), b.clone()) {
                // Verify A·x = b exactly (column-wise dot products).
                for i in 0..3 {
                    let lhs: Ratio = (0..3).map(|j| a[i][j].mul_ref(&x[j])).sum();
                    prop_assert_eq!(lhs, b[i].clone());
                }
            }
        }
    }
}
