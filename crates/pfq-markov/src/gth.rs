//! Sparse Grassmann–Taksar–Heyman (GTH) state elimination.
//!
//! GTH computes stationary and absorption quantities using **divisions
//! and additions only** — the diagonal is never formed by subtraction.
//! When state `k` is censored out of a chain, the surviving states see
//! the transition matrix
//!
//! ```text
//! P'(i, j) = P(i, j) + P(i, k) · P(k, j) / S_k,     S_k = Σ_{j≠k} P(k, j)
//! ```
//!
//! where `S_k` is computed as an explicit *sum* of off-diagonal mass,
//! never as `1 − P(k, k)`. Every intermediate quantity is therefore a
//! non-negative combination of inputs: over [`Ratio`] there is no
//! cancellation to lose exactness to, and no pivoting is ever required
//! (for an irreducible chain `S_k > 0` at every step, because each
//! censored chain is itself irreducible). The result is bit-identical —
//! canonical-`Ratio`-for-canonical-`Ratio` — to the dense Gaussian
//! elimination in [`crate::dense`], which stays around as the
//! differential oracle.
//!
//! This module is reached through [`crate::stationary::exact_stationary`]
//! and [`crate::absorption::absorption_probabilities`];
//! [`stationary_sparse_with_stats`] additionally reports fill-in.
//!
//! # Cost model
//!
//! Rows are `BTreeMap`s holding only the non-zero off-diagonal entries,
//! plus one predecessor set per column. Eliminating state `k` costs
//! `O(in(k) · out(k))` map updates, where `in`/`out` are the live
//! in/out-degrees of `k` in the censored chain, so total work is
//! `Σ_k in(k)·out(k)` and memory is `initial entries + fill-in` — for
//! banded chains (birth–death queues) and other kernels with bounded row
//! width, *linear* in the number of states, versus the `O(n²)` memory and
//! `O(n³)` time of the dense path. [`GthStats`] reports the realised
//! fill-in so benchmarks can verify the memory claim.

use crate::absorption::AbsorptionError;
use crate::scc::{self, Condensation};
use crate::stationary::StationaryError;
use crate::MarkovChain;
use pfq_num::Ratio;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Size counters from a GTH elimination, for benchmarking the sparse
/// cost model (all counts are numbers of stored off-diagonal entries).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GthStats {
    /// Number of states eliminated over.
    pub states: usize,
    /// Off-diagonal entries in the input chain.
    pub initial_entries: usize,
    /// Entries created by censoring updates (fill-in).
    pub fill_in: usize,
    /// Peak live entries — `initial_entries + fill_in`, since frozen
    /// column values are kept for back-substitution. The dense path
    /// stores `n²` regardless of sparsity.
    pub peak_entries: usize,
}

/// The exact stationary distribution of an irreducible chain by sparse
/// GTH elimination, plus the fill-in counters. The distribution is
/// bit-identical to [`dense::stationary`](crate::dense::stationary).
pub fn stationary_sparse_with_stats<S: Ord + Clone>(
    chain: &MarkovChain<S>,
) -> Result<(Vec<Ratio>, GthStats), StationaryError> {
    if !scc::is_irreducible(chain) {
        return Err(StationaryError::NotIrreducible);
    }
    let n = chain.len();
    if n == 1 {
        let stats = GthStats {
            states: 1,
            ..GthStats::default()
        };
        return Ok((vec![Ratio::one()], stats));
    }

    // Off-diagonal entries only: `rows[i][j] = P(i, j)` for `j ≠ i`,
    // `cols[j]` = the set of rows holding an entry in column `j`.
    // Self-loop mass is implicit — GTH renormalizes by the off-diagonal
    // row sum, which folds the geometric series over `P(k, k)` into one
    // division without ever subtracting.
    let mut rows: Vec<BTreeMap<usize, Ratio>> = vec![BTreeMap::new(); n];
    let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut entries = 0usize;
    for (i, row) in rows.iter_mut().enumerate() {
        for (j, p) in chain.row(i) {
            if *j != i {
                row.insert(*j, p.clone());
                cols[*j].insert(i);
                entries += 1;
            }
        }
    }
    let initial_entries = entries;
    let mut fill_in = 0usize;

    // Eliminate states n−1 down to 1. After eliminating k, no update
    // ever writes a column ≥ k again, so `rows[i][k]` (i < k) freezes at
    // exactly the censored value `P⁽ᵏ⁾(i, k)` that back-substitution
    // needs — frozen entries double as the back-substitution table.
    let mut scale = vec![Ratio::zero(); n];
    for k in (1..n).rev() {
        let s: Ratio = rows[k].range(..k).map(|(_, p)| p.clone()).sum();
        if !s.is_positive() {
            // Impossible for irreducible chains (each censored chain is
            // irreducible, so state k exits into {0..k−1}); defensive.
            return Err(StationaryError::Singular);
        }
        let qrow: Vec<(usize, Ratio)> = rows[k]
            .range(..k)
            .map(|(j, p)| (*j, p.div_ref(&s)))
            .collect();
        scale[k] = s;
        let preds: Vec<usize> = cols[k].iter().copied().filter(|&i| i < k).collect();
        for i in preds {
            let pik = rows[i]
                .get(&k)
                .cloned()
                .expect("cols[k] lists exactly the rows with an entry in column k");
            for (j, q) in &qrow {
                if *j == i {
                    continue; // would be a diagonal entry — kept implicit
                }
                let add = pik.mul_ref(q);
                match rows[i].entry(*j) {
                    Entry::Occupied(mut e) => {
                        let v = e.get().add_ref(&add);
                        *e.get_mut() = v;
                    }
                    Entry::Vacant(e) => {
                        e.insert(add);
                        cols[*j].insert(i);
                        fill_in += 1;
                        entries += 1;
                    }
                }
            }
        }
    }

    // Back-substitution: π̃_0 = 1 and, restoring states in ascending
    // order, π̃_k · S_k = Σ_{i<k} π̃_i · P⁽ᵏ⁾(i, k) (balance across the
    // cut {0..k−1} | {k} of the censored chain on {0..k}).
    let mut tilde = vec![Ratio::zero(); n];
    tilde[0] = Ratio::one();
    for k in 1..n {
        let mut acc = Ratio::zero();
        for &i in &cols[k] {
            if i >= k {
                continue;
            }
            if let Some(pik) = rows[i].get(&k) {
                acc = acc.add_ref(&tilde[i].mul_ref(pik));
            }
        }
        tilde[k] = acc.div_ref(&scale[k]);
    }
    let total: Ratio = tilde.iter().cloned().sum();
    let pi = tilde.iter().map(|t| t.div_ref(&total)).collect();
    let stats = GthStats {
        states: n,
        initial_entries,
        fill_in,
        peak_entries: entries,
    };
    Ok((pi, stats))
}

/// Exact absorption probabilities into each leaf SCC by sparse censoring
/// — the GTH counterpart of the dense `(I − Q)·a = b` solves in
/// [`dense::absorption_probabilities`](crate::dense::absorption_probabilities),
/// and bit-identical to them.
///
/// Works on a censored system whose columns are the transient states
/// plus one aggregated column per leaf. Every transient state except
/// `start` is eliminated; the surviving `start` row is then a
/// distribution over `{start} ∪ leaves`, and conditioning away the
/// residual self-loop (one division by the row sum — still
/// subtraction-free) yields the absorption probabilities.
///
/// `start` must be a transient state of `cond`: it panics otherwise.
/// [`crate::absorption::absorption_probabilities`], the public entry,
/// rejects an out-of-range start and answers a start inside a leaf
/// before calling it. Returns `(leaf_component_index, p)` pairs in
/// [`Condensation::leaves`] order.
pub(crate) fn absorption_sparse<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    cond: &Condensation,
    start: usize,
) -> Result<Vec<(usize, Ratio)>, AbsorptionError> {
    let leaves = cond.leaves();
    let mut is_leaf_comp = vec![false; cond.len()];
    let mut leaf_col = vec![usize::MAX; cond.len()];
    for (li, &l) in leaves.iter().enumerate() {
        is_leaf_comp[l] = true;
        leaf_col[l] = li;
    }
    let transient: Vec<usize> = (0..chain.len())
        .filter(|&i| !is_leaf_comp[cond.component_of[i]])
        .collect();
    let t_index: BTreeMap<usize, usize> =
        transient.iter().enumerate().map(|(k, &i)| (i, k)).collect();
    let nt = transient.len();
    let start_t = *t_index
        .get(&start)
        .expect("absorption_sparse requires a transient start state");

    // Columns: 0..nt are transient states, nt+li aggregates leaf li
    // (transitions into different states of one leaf merge — only the
    // total mass into the leaf matters for absorption).
    let mut rows: Vec<BTreeMap<usize, Ratio>> = vec![BTreeMap::new(); nt];
    let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nt];
    for (k, &i) in transient.iter().enumerate() {
        for (j, p) in chain.row(i) {
            let c = match t_index.get(j) {
                Some(&tj) => tj,
                None => nt + leaf_col[cond.component_of[*j]],
            };
            if c == k {
                continue; // self-loop — implicit, as in the stationary case
            }
            let e = rows[k].entry(c).or_insert_with(Ratio::zero);
            *e = e.add_ref(p);
            if c < nt {
                cols[c].insert(k);
            }
        }
    }

    // Censor out every transient state except `start`. Unlike the
    // stationary solve there is no back-substitution, so eliminated rows
    // and columns are dropped eagerly — peak memory is the live censored
    // system, not the elimination history.
    let mut alive = vec![true; nt];
    for c in (0..nt).rev() {
        if c == start_t {
            continue;
        }
        alive[c] = false;
        let row_c = std::mem::take(&mut rows[c]);
        let s: Ratio = row_c.values().cloned().sum();
        if !s.is_positive() {
            // Impossible: every transient state has an escape route to a
            // leaf, and censoring preserves reachability; defensive.
            return Err(AbsorptionError::Singular);
        }
        let qrow: Vec<(usize, Ratio)> = row_c.iter().map(|(j, p)| (*j, p.div_ref(&s))).collect();
        let preds = std::mem::take(&mut cols[c]);
        for i in preds {
            if !alive[i] {
                continue;
            }
            let Some(pic) = rows[i].remove(&c) else {
                continue;
            };
            for (j, q) in &qrow {
                if *j == i {
                    continue;
                }
                let add = pic.mul_ref(q);
                match rows[i].entry(*j) {
                    Entry::Occupied(mut e) => {
                        let v = e.get().add_ref(&add);
                        *e.get_mut() = v;
                    }
                    Entry::Vacant(e) => {
                        e.insert(add);
                        if *j < nt {
                            cols[*j].insert(i);
                        }
                    }
                }
            }
        }
    }

    // The surviving start row holds only leaf columns; its sum is
    // 1 − P'(start, start), and dividing by it conditions away the
    // residual self-loop.
    let total: Ratio = rows[start_t].values().cloned().sum();
    if !total.is_positive() {
        return Err(AbsorptionError::Singular);
    }
    Ok(leaves
        .iter()
        .enumerate()
        .map(|(li, &l)| {
            let mass = rows[start_t]
                .get(&(nt + li))
                .cloned()
                .unwrap_or_else(Ratio::zero);
            (l, mass.div_ref(&total))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::scc::condensation;
    use crate::stationary::exact_stationary;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    fn two_state() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0, 1],
            vec![vec![(1, Ratio::one())], vec![(0, r(1, 2)), (1, r(1, 2))]],
        )
        .unwrap()
    }

    #[test]
    fn matches_dense_two_state() {
        let c = two_state();
        let pi = exact_stationary(&c).unwrap();
        assert_eq!(pi, vec![r(1, 3), r(2, 3)]);
        assert_eq!(pi, dense::stationary(&c).unwrap());
    }

    #[test]
    fn matches_dense_birth_death_triangle() {
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(0, r(1, 4)), (2, r(3, 4))],
                vec![(1, Ratio::one())],
            ],
        )
        .unwrap();
        let pi = exact_stationary(&c).unwrap();
        assert_eq!(pi, vec![r(1, 8), r(1, 2), r(3, 8)]);
        assert_eq!(pi, dense::stationary(&c).unwrap());
    }

    #[test]
    fn periodic_cycle_is_uniform() {
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap();
        assert_eq!(exact_stationary(&c).unwrap(), vec![r(1, 3); 3]);
    }

    #[test]
    fn single_state() {
        let c = MarkovChain::from_rows(vec![0u32], vec![vec![(0, Ratio::one())]]).unwrap();
        assert_eq!(exact_stationary(&c).unwrap(), vec![Ratio::one()]);
    }

    #[test]
    fn rejects_reducible() {
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(1, Ratio::one())]],
        )
        .unwrap();
        assert_eq!(exact_stationary(&c), Err(StationaryError::NotIrreducible));
    }

    #[test]
    fn result_is_invariant() {
        let c = two_state();
        let pi = exact_stationary(&c).unwrap();
        assert_eq!(c.step_distribution(&pi), pi);
    }

    #[test]
    fn stats_show_no_fill_in_on_birth_death() {
        // A birth–death chain is banded: censoring the top state touches
        // only its sole surviving neighbour, so GTH creates no entries.
        let n = 50usize;
        let rows = (0..n)
            .map(|i| {
                if i == 0 {
                    vec![(0, r(1, 2)), (1, r(1, 2))]
                } else if i == n - 1 {
                    vec![(n - 2, r(1, 2)), (n - 1, r(1, 2))]
                } else {
                    vec![(i - 1, r(1, 4)), (i, r(1, 2)), (i + 1, r(1, 4))]
                }
            })
            .collect();
        let c = MarkovChain::from_rows((0..n as u32).collect(), rows).unwrap();
        let (pi, stats) = stationary_sparse_with_stats(&c).unwrap();
        assert_eq!(pi, dense::stationary(&c).unwrap());
        assert_eq!(stats.fill_in, 0);
        assert_eq!(stats.peak_entries, stats.initial_entries);
        assert!(stats.peak_entries < 4 * n); // linear, nowhere near n²
    }

    #[test]
    fn absorption_matches_hand_computation() {
        // 0 → {1: 1/3, 2: 2/3}; 1 and 2 absorbing.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, r(1, 3)), (2, r(2, 3))],
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
            ],
        )
        .unwrap();
        let cond = condensation(&c);
        let probs = absorption_sparse(&c, &cond, 0).unwrap();
        let total: Ratio = probs.iter().map(|(_, p)| p.clone()).sum();
        assert!(total.is_one());
        let by_state: BTreeMap<usize, Ratio> = probs
            .into_iter()
            .map(|(l, p)| (cond.components[l][0], p))
            .collect();
        assert_eq!(by_state[&1], r(1, 3));
        assert_eq!(by_state[&2], r(2, 3));
    }

    #[test]
    fn absorption_through_chained_transients() {
        // 0 → 1 w.p 1/2, 0 → A w.p 1/2; 1 → A w.p 1/2, 1 → B w.p 1/2;
        // P(absorb A) = 3/4 — exercises transient-to-transient censoring.
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
        let cond = condensation(&c);
        let probs = absorption_sparse(&c, &cond, 0).unwrap();
        let by_state: BTreeMap<usize, Ratio> = probs
            .into_iter()
            .map(|(l, p)| (cond.components[l][0], p))
            .collect();
        assert_eq!(by_state[&2], r(3, 4));
        assert_eq!(by_state[&3], r(1, 4));
    }

    #[test]
    fn absorption_with_transient_self_loop() {
        // 0 stays w.p. 1/2, exits to the leaves with the other 1/2 — the
        // residual-self-loop division must condition it away exactly.
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
        let probs = absorption_sparse(&c, &cond, 0).unwrap();
        let by_state: BTreeMap<usize, Ratio> = probs
            .into_iter()
            .map(|(l, p)| (cond.components[l][0], p))
            .collect();
        assert_eq!(by_state[&1], r(1, 4));
        assert_eq!(by_state[&2], r(3, 4));
    }
}
