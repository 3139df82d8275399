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
//! One private censoring step serves two drivers: the stationary solve
//! of a closed class (Proposition 5.4, through
//! [`crate::stationary::exact_stationary`];
//! [`stationary_sparse_with_stats`] also reports fill-in) and the
//! absorption solve over the transient states (Theorem 5.5, through
//! [`crate::absorption::absorption_probabilities`]).
//!
//! # Cost model
//!
//! Rows are `BTreeMap`s holding only the non-zero off-diagonal entries,
//! plus one predecessor set per column. Eliminating state `k` costs
//! `O(in(k) · out(k))` map updates, where `in`/`out` are the live
//! in/out-degrees of `k` in the censored chain, so total work is
//! `Σ_k in(k)·out(k)` and memory is at most `initial entries + fill-in`
//! — for banded chains (birth–death queues) and other kernels with
//! bounded row width, *linear* in the number of states, versus the
//! `O(n²)` memory and `O(n³)` time of the dense path. [`GthStats`]
//! reports the realised fill-in so benchmarks can verify the memory
//! claim.

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
    /// Entries ever stored, `initial_entries + fill_in`: a bound on the
    /// live entries at any moment. The dense path stores `n²` regardless
    /// of sparsity.
    pub peak_entries: usize,
}

/// Adds `p` to `row[j]`; returns whether the entry is new.
fn accumulate(row: &mut BTreeMap<usize, Ratio>, j: usize, p: Ratio) -> bool {
    match row.entry(j) {
        Entry::Occupied(mut e) => {
            let v = e.get().add_ref(&p);
            *e.get_mut() = v;
            false
        }
        Entry::Vacant(e) => {
            e.insert(p);
            true
        }
    }
}

/// A chain under censoring: the one elimination routine behind both
/// solves. Rows `0..n` can be eliminated; a column `≥ n` only receives
/// mass (the absorption solve's leaf columns).
struct Censor {
    /// Off-diagonal entries only: `rows[i][j] = P(i, j)` for `j ≠ i`.
    /// Self-loop mass is implicit — GTH renormalizes by the off-diagonal
    /// row sum, which folds the geometric series over `P(k, k)` into one
    /// division without ever subtracting. An eliminated row is empty.
    rows: Vec<BTreeMap<usize, Ratio>>,
    /// `preds[j]`: the rows that hold an entry in column `j < n`. It
    /// may still list eliminated rows, whose rows are empty.
    preds: Vec<BTreeSet<usize>>,
    initial_entries: usize,
    fill_in: usize,
}

impl Censor {
    /// The rows of `states` (in order), each column remapped by
    /// `column`; an entry that maps onto its own row is a self-loop and
    /// stays implicit.
    fn new<S: Ord + Clone>(
        chain: &MarkovChain<S>,
        states: &[usize],
        column: impl Fn(usize) -> usize,
    ) -> Censor {
        let n = states.len();
        let mut rows = vec![BTreeMap::new(); n];
        let mut preds = vec![BTreeSet::new(); n];
        let mut initial_entries = 0;
        for (r, &i) in states.iter().enumerate() {
            for (j, p) in chain.row(i) {
                let c = column(*j);
                if c != r && accumulate(&mut rows[r], c, p.clone()) {
                    initial_entries += 1;
                    if c < n {
                        preds[c].insert(r);
                    }
                }
            }
        }
        Censor {
            rows,
            preds,
            initial_entries,
            fill_in: 0,
        }
    }

    /// Censors state `k` out: every live row `i` with an entry in column
    /// `k` loses it and gains `P(i, k) · P(k, j) / S_k` in each column `j`
    /// of row `k`. Returns `S_k` and the removed column — the pairs
    /// `(i, P(i, k))` in ascending `i` — or `None` when `S_k = 0`.
    fn eliminate(&mut self, k: usize) -> Option<(Ratio, Vec<(usize, Ratio)>)> {
        let row = std::mem::take(&mut self.rows[k]);
        let s: Ratio = row.values().cloned().sum();
        if !s.is_positive() {
            return None;
        }
        let q: Vec<(usize, Ratio)> = row.into_iter().map(|(j, p)| (j, p.div_ref(&s))).collect();
        let mut column = Vec::new();
        for i in std::mem::take(&mut self.preds[k]) {
            let Some(pik) = self.rows[i].remove(&k) else {
                continue; // an eliminated row
            };
            for (j, qj) in &q {
                if *j == i {
                    continue; // would be a diagonal entry — kept implicit
                }
                if accumulate(&mut self.rows[i], *j, pik.mul_ref(qj)) {
                    if *j < self.preds.len() {
                        self.preds[*j].insert(i);
                    }
                    self.fill_in += 1;
                }
            }
            column.push((i, pik));
        }
        Some((s, column))
    }
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
    let all: Vec<usize> = (0..chain.len()).collect();
    class_stationary(chain, &all)
}

/// The stationary distribution of the closed class `members` (sorted
/// state indices, irreducible — the caller's condensation says so, and
/// it is not checked again), in `members` order.
pub(crate) fn class_stationary<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    members: &[usize],
) -> Result<(Vec<Ratio>, GthStats), StationaryError> {
    let mut censor = Censor::new(chain, members, |j| {
        members.binary_search(&j).expect("a closed class")
    });

    // Eliminate states n−1 down to 1. The column removed with state k
    // holds the censored values P⁽ᵏ⁾(i, k), i < k, that
    // back-substitution needs. `None` is impossible for an irreducible
    // class (each censored chain is irreducible, so state k exits into
    // {0..k−1}); defensive.
    let eliminated = (1..members.len())
        .rev()
        .map(|k| censor.eliminate(k).ok_or(StationaryError::Singular))
        .collect::<Result<Vec<_>, _>>()?;

    // Back-substitution: π̃_0 = 1 and, restoring states in ascending
    // order, π̃_k · S_k = Σ_{i<k} π̃_i · P⁽ᵏ⁾(i, k) (balance across the
    // cut {0..k−1} | {k} of the censored chain on {0..k}).
    let mut tilde = vec![Ratio::one()];
    for (s, column) in eliminated.iter().rev() {
        let mut acc = Ratio::zero();
        for (i, pik) in column {
            acc = acc.add_ref(&tilde[*i].mul_ref(pik));
        }
        tilde.push(acc.div_ref(s));
    }
    let total: Ratio = tilde.iter().cloned().sum();
    let pi = tilde.iter().map(|t| t.div_ref(&total)).collect();
    let stats = GthStats {
        states: members.len(),
        initial_entries: censor.initial_entries,
        fill_in: censor.fill_in,
        peak_entries: censor.initial_entries + censor.fill_in,
    };
    Ok((pi, stats))
}

/// Exact absorption probabilities into each leaf SCC by sparse censoring
/// — the GTH counterpart of the dense `(I − Q)·a = b` solves in
/// [`dense::absorption_probabilities`](crate::dense::absorption_probabilities),
/// and bit-identical to them.
///
/// Works on a censored system whose columns are the transient states
/// plus one aggregated column per leaf (transitions into different
/// states of one leaf merge — only the total mass into the leaf matters
/// for absorption). Every transient state except `start` is eliminated
/// in descending order; the surviving `start` row is then a distribution
/// over `{start} ∪ leaves`, and conditioning away the residual self-loop
/// (one division by the row sum — still subtraction-free) yields the
/// absorption probabilities.
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
    assert!(
        !cond.edges[cond.component_of[start]].is_empty(),
        "absorption_sparse requires a transient start state"
    );
    // Columns: the transient states in index order, then one per leaf.
    let leaves = cond.leaves();
    let transient: Vec<usize> = (0..chain.len())
        .filter(|&i| !cond.edges[cond.component_of[i]].is_empty())
        .collect();
    let nt = transient.len();
    let mut column = vec![0; chain.len()];
    for (t, &i) in transient.iter().enumerate() {
        column[i] = t;
    }
    for (li, &l) in leaves.iter().enumerate() {
        for &i in &cond.components[l] {
            column[i] = nt + li;
        }
    }
    let start_t = column[start];
    let mut censor = Censor::new(chain, &transient, |j| column[j]);
    for c in (0..nt).rev().filter(|&c| c != start_t) {
        // `None` is impossible: every transient state has an escape
        // route to a leaf, and censoring preserves reachability.
        censor.eliminate(c).ok_or(AbsorptionError::Singular)?;
    }

    // The surviving start row holds only leaf columns; its sum is
    // 1 − P'(start, start), and dividing by it conditions away the
    // residual self-loop.
    let start_row = &censor.rows[start_t];
    let total: Ratio = start_row.values().cloned().sum();
    if !total.is_positive() {
        return Err(AbsorptionError::Singular);
    }
    Ok(leaves
        .iter()
        .enumerate()
        .map(|(li, &l)| {
            let mass = start_row
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
    fn stats_pin_fill_in_on_a_chorded_cycle() {
        // The 5-cycle 0 → 1 → 2 → 3 → 4 → 0 with chords 0 → 2 and
        // 3 → 0. Eliminating 4 lands on the existing 3 → 0; eliminating 3
        // adds 2 → 0 and eliminating 2 adds 1 → 0: fill-in 2 on 7 initial
        // entries. Balance gives π ∝ (6, 3, 6, 6, 4).
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2, 3, 4],
            vec![
                vec![(1, r(1, 2)), (2, r(1, 2))],
                vec![(2, Ratio::one())],
                vec![(3, Ratio::one())],
                vec![(0, r(1, 3)), (4, r(2, 3))],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap();
        let (pi, stats) = stationary_sparse_with_stats(&c).unwrap();
        let expected = GthStats {
            states: 5,
            initial_entries: 7,
            fill_in: 2,
            peak_entries: 9,
        };
        assert_eq!(stats, expected);
        assert_eq!(pi, [6, 3, 6, 6, 4].map(|k| r(k, 25)));
        assert_eq!(pi, dense::stationary(&c).unwrap());
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
