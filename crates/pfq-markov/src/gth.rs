//! Sparse Grassmann–Taksar–Heyman (GTH) state elimination, solved
//! modulo word-sized primes and accepted only by an exact certificate.
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
//! non-negative combination of inputs, and no pivoting is ever required
//! (for an irreducible chain `S_k > 0` at every step, because each
//! censored chain is itself irreducible).
//!
//! One private censoring step, generic over its arithmetic, serves two
//! drivers: the stationary solve of a closed class (Proposition 5.4,
//! through [`crate::stationary::exact_stationary`];
//! [`stationary_solve`] also reports fill-in and primes) and the
//! absorption solve over the transient states (Theorem 5.5, through
//! [`crate::absorption::absorption_probabilities`]).
//!
//! # Multi-modular solves
//!
//! Production runs both drivers over residues modulo one prime after
//! another ([`pfq_num::modular::primes`], starting at `2⁶¹ − 1`), in the
//! same elimination order, so no intermediate ever grows: the cost of a
//! rational solve was its intermediate bit growth (38 s for a 240-state
//! chain whose answer is 1/4). A prime is skipped when it divides an
//! input denominator, a pivot `S_k` or the normalizer. The residues are
//! combined by Chinese remaindering and each entry is rebuilt by Wang's
//! rational reconstruction; while [`crate::certify`] rejects the
//! rebuilt vector, one more prime is added. Both systems have exactly
//! one solution, so the accepted vector *is* the exact answer: none of
//! the modular code has to be trusted, and there is no rational
//! fallback. The rational instantiation of the same drivers is kept
//! only as a test oracle, beside the dense elimination in
//! [`crate::dense`].
//!
//! # Cost model
//!
//! Rows are vectors sorted by column, holding only the non-zero
//! off-diagonal entries, plus one predecessor list per column.
//! Eliminating state `k` merges its `out(k)` entries into each of the
//! `in(k)` rows that point at it, where `in`/`out` are the live
//! degrees of `k` in the censored chain: `Σ_k in(k)·out(k)` word
//! operations per prime, plus the merges' passes over the row tails
//! they rebuild. Memory is at most `initial entries + fill-in` — for banded
//! chains (birth–death queues) and other kernels with bounded row width,
//! *linear* in the number of states, versus the `O(n²)` memory and
//! `O(n³)` time of the dense path. The pattern does not depend on the
//! arithmetic: [`GthStats`] reports the realised fill-in so benchmarks
//! can verify the memory claim.

use crate::absorption::AbsorptionError;
use crate::certify;
use crate::scc::{self, Condensation};
use crate::stationary::StationaryError;
use crate::MarkovChain;
use pfq_num::modular::{self, Crt, Prime};
use pfq_num::Ratio;

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

/// Counters of one certified solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveStats {
    /// The elimination pattern, the same modulo every prime.
    pub gth: GthStats,
    /// Primes whose residues the accepted answer was rebuilt from
    /// (skipped primes are not counted).
    pub primes: usize,
}

/// The arithmetic a censoring runs in: residues modulo a prime in
/// production, exact rationals in the test oracle.
pub(crate) trait Arith: Copy {
    type Elem: Clone;
    fn zero(self) -> Self::Elem;
    fn one(self) -> Self::Elem;
    /// The image of a chain probability; `None` when it has none (the
    /// modulus divides its denominator).
    fn embed(self, p: &Ratio) -> Option<Self::Elem>;
    fn add(self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    fn mul(self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// `1/a`; `None` for zero.
    fn recip(self, a: &Self::Elem) -> Option<Self::Elem>;
}

impl Arith for Prime {
    type Elem = u64;

    fn zero(self) -> u64 {
        0
    }

    fn one(self) -> u64 {
        1
    }

    fn embed(self, p: &Ratio) -> Option<u64> {
        self.residue(p)
    }

    fn add(self, a: &u64, b: &u64) -> u64 {
        Prime::add(self, *a, *b)
    }

    fn mul(self, a: &u64, b: &u64) -> u64 {
        Prime::mul(self, *a, *b)
    }

    fn recip(self, a: &u64) -> Option<u64> {
        self.inv(*a)
    }
}

/// Exact rational arithmetic: the GTH oracle the tests compare against.
#[cfg(test)]
#[derive(Clone, Copy)]
pub(crate) struct Exact;

#[cfg(test)]
impl Arith for Exact {
    type Elem = Ratio;

    fn zero(self) -> Ratio {
        Ratio::zero()
    }

    fn one(self) -> Ratio {
        Ratio::one()
    }

    fn embed(self, p: &Ratio) -> Option<Ratio> {
        Some(p.clone())
    }

    fn add(self, a: &Ratio, b: &Ratio) -> Ratio {
        a.add_ref(b)
    }

    fn mul(self, a: &Ratio, b: &Ratio) -> Ratio {
        a.mul_ref(b)
    }

    fn recip(self, a: &Ratio) -> Option<Ratio> {
        (!a.is_zero()).then(|| a.recip())
    }
}

/// Why a censoring stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fail {
    /// A state to eliminate has no exit: no arithmetic solves the
    /// system (impossible on the systems the drivers are given).
    Singular,
    /// The modulus divides an input denominator, a pivot `S_k` or the
    /// normalizer; another prime may not.
    Unlucky,
}

/// The sum of `values`.
fn sum<'v, A: Arith>(a: A, values: impl IntoIterator<Item = &'v A::Elem>) -> A::Elem
where
    A::Elem: 'v,
{
    values.into_iter().fold(a.zero(), |acc, x| a.add(&acc, x))
}

/// A row of a censored chain: its off-diagonal entries, sorted by
/// column.
type Row<E> = Vec<(usize, E)>;

/// A chain under censoring: the one elimination routine behind both
/// solves. Rows `0..n` can be eliminated; a column `≥ n` only receives
/// mass (the absorption solve's sink column).
struct Censor<A: Arith> {
    arith: A,
    /// Off-diagonal entries only: `rows[i]` holds `(j, P(i, j))` for
    /// `j ≠ i`. Self-loop mass is implicit — GTH renormalizes by the
    /// off-diagonal row sum, which folds the geometric series over
    /// `P(k, k)` into one division without ever subtracting. An
    /// eliminated row is empty.
    rows: Vec<Row<A::Elem>>,
    /// `preds[j]`: the rows that hold an entry in column `j < n`, each
    /// once, in no particular order. It may still list eliminated rows,
    /// whose rows are empty.
    preds: Vec<Vec<usize>>,
    /// The buffer a row update merges the row's tail into before
    /// appending it back, reused by every update.
    scratch: Row<A::Elem>,
    initial_entries: usize,
    fill_in: usize,
}

/// What censoring state `k` out leaves behind.
struct Eliminated<E> {
    /// `1 / S_k`.
    s_inv: E,
    /// The removed column: the pairs `(i, P⁽ᵏ⁾(i, k))`.
    column: Vec<(usize, E)>,
}

impl<A: Arith> Censor<A> {
    /// The rows of `states` (in order), each column remapped by
    /// `column`; entries that map onto one column merge, and one that
    /// maps onto its own row is a self-loop and stays implicit. Whether
    /// an entry is stored never depends on its value, so the pattern is
    /// the same in every arithmetic.
    fn new<S: Ord + Clone>(
        arith: A,
        chain: &MarkovChain<S>,
        states: &[usize],
        column: impl Fn(usize) -> usize,
    ) -> Result<Censor<A>, Fail> {
        let n = states.len();
        let mut rows = Vec::with_capacity(n);
        let mut preds = vec![Vec::new(); n];
        let mut initial_entries = 0;
        for (r, &i) in states.iter().enumerate() {
            let mut row: Row<A::Elem> = Vec::with_capacity(chain.row(i).len());
            for (j, p) in chain.row(i) {
                let c = column(*j);
                if c != r {
                    row.push((c, arith.embed(p).ok_or(Fail::Unlucky)?));
                }
            }
            row.sort_by_key(|e| e.0);
            row.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = arith.add(&kept.1, &later.1);
                }
                same
            });
            for &(c, _) in &row {
                if c < n {
                    preds[c].push(r);
                }
            }
            initial_entries += row.len();
            rows.push(row);
        }
        Ok(Censor {
            arith,
            rows,
            preds,
            scratch: Vec::new(),
            initial_entries,
            fill_in: 0,
        })
    }

    /// Censors state `k` out: every live row `i` with an entry in column
    /// `k` loses it and gains `P(i, k) · P(k, j) / S_k` in each column `j`
    /// of row `k`.
    fn eliminate(&mut self, k: usize) -> Result<Eliminated<A::Elem>, Fail> {
        let a = self.arith;
        let mut q = std::mem::take(&mut self.rows[k]);
        if q.is_empty() {
            return Err(Fail::Singular);
        }
        let s_inv = a
            .recip(&sum(a, q.iter().map(|e| &e.1)))
            .ok_or(Fail::Unlucky)?;
        for e in &mut q {
            e.1 = a.mul(&e.1, &s_inv);
        }
        let n = self.preds.len();
        let mut column = Vec::new();
        for i in std::mem::take(&mut self.preds[k]) {
            let row = &mut self.rows[i];
            let Ok(at) = row.binary_search_by_key(&k, |e| e.0) else {
                continue; // an eliminated row
            };
            let (_, pik) = row.remove(at);
            // Merge P(i, k) · q into the row, both sorted by column; a
            // diagonal entry (j = i) stays implicit. Entries left of
            // the first column the update touches stay where they are.
            let from = match q.iter().find(|e| e.0 != i) {
                Some(&(first, _)) => row.partition_point(|e| e.0 < first),
                None => row.len(),
            };
            let merged = &mut self.scratch;
            merged.clear();
            let mut old = row.drain(from..).peekable();
            for (j, qj) in &q {
                if *j == i {
                    continue;
                }
                merged.extend(std::iter::from_fn(|| old.next_if(|e| e.0 < *j)));
                let update = a.mul(&pik, qj);
                match old.next_if(|e| e.0 == *j) {
                    Some((_, p)) => merged.push((*j, a.add(&p, &update))),
                    None => {
                        merged.push((*j, update));
                        if *j < n {
                            self.preds[*j].push(i);
                        }
                        self.fill_in += 1;
                    }
                }
            }
            merged.extend(old);
            row.append(merged);
            column.push((i, pik));
        }
        Ok(Eliminated { s_inv, column })
    }

    fn stats(&self) -> GthStats {
        GthStats {
            states: self.rows.len(),
            initial_entries: self.initial_entries,
            fill_in: self.fill_in,
            peak_entries: self.initial_entries + self.fill_in,
        }
    }
}

/// The stationary driver: the distribution of the closed class
/// `members` (sorted state indices, irreducible), in `members` order.
fn stationary_in<A: Arith, S: Ord + Clone>(
    a: A,
    chain: &MarkovChain<S>,
    members: &[usize],
) -> Result<(Vec<A::Elem>, GthStats), Fail> {
    let mut censor = Censor::new(a, chain, members, |j| {
        members.binary_search(&j).expect("a closed class")
    })?;

    // Eliminate states n−1 down to 1. The column removed with state k
    // holds the censored values P⁽ᵏ⁾(i, k), i < k, that
    // back-substitution needs.
    let eliminated = (1..members.len())
        .rev()
        .map(|k| censor.eliminate(k).map(|e| (e.s_inv, e.column)))
        .collect::<Result<Vec<_>, _>>()?;

    // Back-substitution: π̃_0 = 1 and, restoring states in ascending
    // order, π̃_k · S_k = Σ_{i<k} π̃_i · P⁽ᵏ⁾(i, k) (balance across the
    // cut {0..k−1} | {k} of the censored chain on {0..k}).
    let mut tilde = vec![a.one()];
    for (s_inv, column) in eliminated.iter().rev() {
        let acc = column.iter().fold(a.zero(), |acc, (i, pik)| {
            a.add(&acc, &a.mul(&tilde[*i], pik))
        });
        tilde.push(a.mul(&acc, s_inv));
    }
    let total_inv = a.recip(&sum(a, &tilde)).ok_or(Fail::Unlucky)?;
    let pi = tilde.iter().map(|t| a.mul(t, &total_inv)).collect();
    Ok((pi, censor.stats()))
}

/// The transient states of a condensation in index order, each state's
/// column (its transient position, or `transient.len()` plus its leaf's
/// position in [`Condensation::leaves`]) and the number of leaves.
struct Layout {
    transient: Vec<usize>,
    column: Vec<usize>,
    leaves: usize,
}

impl Layout {
    fn new(cond: &Condensation) -> Layout {
        let leaves = cond.leaves();
        let n = cond.component_of.len();
        let transient: Vec<usize> = (0..n)
            .filter(|&i| !cond.edges[cond.component_of[i]].is_empty())
            .collect();
        let mut column = vec![0; n];
        for (t, &i) in transient.iter().enumerate() {
            column[i] = t;
        }
        for (li, &l) in leaves.iter().enumerate() {
            for &i in &cond.components[l] {
                column[i] = transient.len() + li;
            }
        }
        Layout {
            transient,
            column,
            leaves: leaves.len(),
        }
    }
}

/// The absorption driver: `x[t]`, the expected number of visits a
/// walk from transient state `survivor` pays to transient state `t` (in
/// [`Layout::transient`] order) before it is absorbed into a leaf.
///
/// Works on a censored system whose columns are the transient states
/// plus one sink column that every leaf state maps onto: the visits
/// depend only on the total mass a state loses to the leaves, so the
/// rows stay as short as the transient part. Every transient state
/// except `survivor` is eliminated in descending order; the surviving
/// row then holds only the sink, so the walk stays at `survivor` for
/// `1 / S` visits, where `S` is that entry. Censoring keeps every live state's
/// visits, so an eliminated state `k` balances its inflow in the chain
/// censored when it went: `x_k · S_k = Σ_i x_i · P⁽ᵏ⁾(i, k)` over the
/// rows still live then, all of them solved before it when
/// back-substituting in ascending order, as the stationary driver does.
/// The walk leaves transient state `t` for leaf `l` `x_t · P(t, l)`
/// times in expectation, which sums to the absorption probability.
fn absorption_in<A: Arith, S: Ord + Clone>(
    a: A,
    chain: &MarkovChain<S>,
    layout: &Layout,
    survivor: usize,
) -> Result<Vec<A::Elem>, Fail> {
    let nt = layout.transient.len();
    let mut censor = Censor::new(a, chain, &layout.transient, |j| layout.column[j].min(nt))?;
    let eliminated = (0..nt)
        .rev()
        .filter(|&c| c != survivor)
        .map(|c| censor.eliminate(c).map(|e| (c, e.s_inv, e.column)))
        .collect::<Result<Vec<_>, _>>()?;

    // The surviving row holds only the sink.
    let last = &censor.rows[survivor];
    if last.is_empty() {
        return Err(Fail::Singular);
    }
    let mut x = vec![a.zero(); nt];
    x[survivor] = a
        .recip(&sum(a, last.iter().map(|e| &e.1)))
        .ok_or(Fail::Unlucky)?;
    for (c, s_inv, column) in eliminated.into_iter().rev() {
        let inflow = column
            .iter()
            .fold(a.zero(), |acc, (i, pik)| a.add(&acc, &a.mul(&x[*i], pik)));
        x[c] = a.mul(&inflow, &s_inv);
    }
    Ok(x)
}

/// Solves modulo one prime of `primes` after another, Chinese
/// remaindering the residue vectors, until the reconstructed rationals
/// pass `accept`; returns them with the number of primes combined.
/// `solve` fails with [`Fail::Unlucky`] to skip a prime; with the
/// production sequence, which never ends, only [`Fail::Singular`] ends
/// the search without an answer.
fn solve_certified(
    primes: impl IntoIterator<Item = Prime>,
    mut solve: impl FnMut(Prime) -> Result<Vec<u64>, Fail>,
    mut accept: impl FnMut(&[Ratio]) -> bool,
) -> Result<(Vec<Ratio>, usize), Fail> {
    let mut crt: Option<Crt> = None;
    for p in primes {
        let residues = match solve(p) {
            Ok(residues) => residues,
            Err(Fail::Unlucky) => continue,
            Err(Fail::Singular) => return Err(Fail::Singular),
        };
        let crt = match &mut crt {
            Some(crt) => {
                crt.push(p, &residues);
                crt
            }
            None => crt.insert(Crt::new(p, residues)),
        };
        if let Some(values) = crt.reconstruct() {
            if accept(&values) {
                return Ok((values, crt.primes()));
            }
        }
    }
    Err(Fail::Unlucky)
}

/// The exact stationary distribution of an irreducible chain, plus the
/// fill-in counters and the number of primes the answer needed. The
/// distribution is bit-identical to
/// [`dense::stationary`](crate::dense::stationary).
pub fn stationary_solve<S: Ord + Clone>(
    chain: &MarkovChain<S>,
) -> Result<(Vec<Ratio>, SolveStats), StationaryError> {
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
) -> Result<(Vec<Ratio>, SolveStats), StationaryError> {
    class_stationary_with(chain, members, modular::primes())
}

/// [`class_stationary`] over the prime sequence `primes`.
fn class_stationary_with<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    members: &[usize],
    primes: impl IntoIterator<Item = Prime>,
) -> Result<(Vec<Ratio>, SolveStats), StationaryError> {
    let mut gth = GthStats::default();
    let (pi, primes) = solve_certified(
        primes,
        |p| {
            let (pi, stats) = stationary_in(p, chain, members)?;
            gth = stats;
            Ok(pi)
        },
        |pi| certify::stationary(chain, members, pi),
    )
    .map_err(|_| StationaryError::Singular)?;
    Ok((pi, SolveStats { gth, primes }))
}

/// Exact absorption probabilities into each leaf SCC by sparse
/// censoring — the GTH counterpart of the dense `(I − Q)·a = b` solves
/// in [`dense::absorption_probabilities`](crate::dense::absorption_probabilities),
/// and bit-identical to them. The modular solve yields the expected
/// visits of a walk from `start` to every transient state; once
/// [`certify::absorption`] accepts them, the absorption probabilities
/// are their exact sums over the edges into each leaf. A chain with a
/// single leaf is absorbed there with certainty and needs no solve.
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
    absorption_with(chain, cond, start, modular::primes())
}

/// [`absorption_sparse`] over the prime sequence `primes`.
fn absorption_with<S: Ord + Clone>(
    chain: &MarkovChain<S>,
    cond: &Condensation,
    start: usize,
    primes: impl IntoIterator<Item = Prime>,
) -> Result<Vec<(usize, Ratio)>, AbsorptionError> {
    assert!(
        !cond.edges[cond.component_of[start]].is_empty(),
        "absorption_sparse requires a transient start state"
    );
    let leaves = cond.leaves();
    if let [only] = *leaves {
        return Ok(vec![(only, Ratio::one())]);
    }
    let layout = Layout::new(cond);
    let survivor = layout.column[start];
    let (x, _) = solve_certified(
        primes,
        |p| absorption_in(p, chain, &layout, survivor),
        |x| certify::absorption(chain, cond, start, x),
    )
    .map_err(|_| AbsorptionError::Singular)?;
    let nt = layout.transient.len();
    let mut absorbed = vec![Ratio::zero(); layout.leaves];
    for (x_t, &t) in x.iter().zip(&layout.transient) {
        for (j, p) in chain.row(t) {
            if let Some(l) = layout.column[*j].checked_sub(nt) {
                absorbed[l] = absorbed[l].add_ref(&x_t.mul_ref(p));
            }
        }
    }
    Ok(leaves.into_iter().zip(absorbed).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;
    use crate::scc::condensation;
    use crate::stationary::exact_stationary;
    use std::collections::BTreeMap;

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
        let (pi, SolveStats { gth: stats, .. }) = stationary_solve(&c).unwrap();
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
        let (pi, SolveStats { gth: stats, .. }) = stationary_solve(&c).unwrap();
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

    /// The rational instantiation of the stationary driver: the oracle.
    fn stationary_exact(chain: &MarkovChain<u32>) -> (Vec<Ratio>, GthStats) {
        let all: Vec<usize> = (0..chain.len()).collect();
        stationary_in(Exact, chain, &all).unwrap()
    }

    /// The rational instantiation of the absorption driver: the expected
    /// visits from the `survivor`-th transient state.
    fn absorption_exact(
        chain: &MarkovChain<u32>,
        cond: &Condensation,
        survivor: usize,
    ) -> Vec<Ratio> {
        absorption_in(Exact, chain, &Layout::new(cond), survivor).unwrap()
    }

    /// The 5-cycle with chords of `stats_pin_fill_in_on_a_chorded_cycle`.
    fn chorded_cycle() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0u32, 1, 2, 3, 4],
            vec![
                vec![(1, r(1, 2)), (2, r(1, 2))],
                vec![(2, Ratio::one())],
                vec![(3, Ratio::one())],
                vec![(0, r(1, 3)), (4, r(2, 3))],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap()
    }

    /// Transients 0, 1 and 8 over three leaves, one of them periodic.
    fn three_leaves() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            (0u32..9).collect(),
            vec![
                vec![(0, r(1, 4)), (1, r(1, 2)), (5, r(1, 4))],
                vec![(0, r(1, 3)), (3, r(2, 3))],
                vec![(3, r(1, 3)), (4, r(2, 3))],
                vec![(2, Ratio::one())],
                vec![(2, Ratio::one())],
                vec![(5, Ratio::one())],
                vec![(6, r(1, 2)), (7, r(1, 2))],
                vec![(6, Ratio::one())],
                vec![(5, r(1, 2)), (6, r(1, 2))],
            ],
        )
        .unwrap()
    }

    #[test]
    fn modular_matches_rational_gth() {
        for c in [two_state(), chorded_cycle()] {
            let (pi, stats) = stationary_solve(&c).unwrap();
            assert_eq!((pi, stats.gth), stationary_exact(&c));
            assert_eq!(stats.primes, 1);
        }
    }

    #[test]
    fn absorption_certifies_expected_visits() {
        let c = three_leaves();
        let cond = condensation(&c);
        // The transient states are 0, 1 and 8. From 0: x₀ = 1 + x₀/4 +
        // x₁/3 and x₁ = x₀/2, so x = (12/7, 6/7, 0), and the walk
        // leaves for A ({2, 3, 4}) x₁ · 2/3 = 4/7 and for B ({5})
        // x₀ · 1/4 = 3/7 times. From 8: one visit, then half into B and
        // half into C ({6, 7}).
        let from_0 = absorption_exact(&c, &cond, 0);
        assert_eq!(from_0, [r(12, 7), r(6, 7), r(0, 1)]);
        assert!(certify::absorption(&c, &cond, 0, &from_0));
        let from_8 = absorption_exact(&c, &cond, 2);
        assert_eq!(from_8, [r(0, 1), r(0, 1), r(1, 1)]);
        assert!(certify::absorption(&c, &cond, 8, &from_8));
        let into = |start: usize, state: usize| {
            let probs = absorption_sparse(&c, &cond, start).unwrap();
            let (_, p) = probs
                .into_iter()
                .find(|(l, _)| cond.components[*l].contains(&state))
                .unwrap();
            p
        };
        assert_eq!(
            (into(0, 2), into(0, 5), into(0, 6)),
            (r(4, 7), r(3, 7), r(0, 1))
        );
        assert_eq!(
            (into(8, 2), into(8, 5), into(8, 6)),
            (r(0, 1), r(1, 2), r(1, 2))
        );
        for start in [0, 1, 8] {
            assert_eq!(
                absorption_sparse(&c, &cond, start).unwrap(),
                dense::absorption_probabilities(&c, &cond, start).unwrap(),
                "start {start}"
            );
        }
        // A corrupted entry, or another start's visits, fail the
        // certificate.
        let mut bad = from_0.clone();
        bad[0] = bad[0].add_ref(&r(1, 1000));
        assert!(!certify::absorption(&c, &cond, 0, &bad));
        assert!(!certify::absorption(&c, &cond, 8, &from_0));
    }

    #[test]
    fn unlucky_primes_are_skipped() {
        // 0 → 1; 1 → {0: 7/8, 1: 1/8}: π = (7/15, 8/15). Modulo 7 the
        // pivot S₁ = 7/8 vanishes; modulo 5 and 3 the normalizer
        // 1 + 8/7 = 15/7 does. The first lucky prime answers alone.
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![vec![(1, Ratio::one())], vec![(0, r(7, 8)), (1, r(1, 8))]],
        )
        .unwrap();
        let primes = [7, 5, 3, modular::MERSENNE_61].map(Prime::new);
        let (pi, stats) = class_stationary_with(&c, &[0, 1], primes).unwrap();
        assert_eq!(pi, vec![r(7, 15), r(8, 15)]);
        assert_eq!(stats.primes, 1);
        assert_eq!(stats.gth, stationary_exact(&c).1);
        // With no lucky prime left the solve gives up.
        assert_eq!(
            class_stationary_with(&c, &[0, 1], [Prime::new(7)]),
            Err(StationaryError::Singular)
        );
        // Modulo 11 the input 1/11 has no image.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, r(1, 11)), (2, r(10, 11))],
                vec![(1, Ratio::one())],
                vec![(2, Ratio::one())],
            ],
        )
        .unwrap();
        let cond = condensation(&c);
        let primes = [11, modular::MERSENNE_61].map(Prime::new);
        let probs = absorption_with(&c, &cond, 0, primes).unwrap();
        let by_state: BTreeMap<usize, Ratio> = probs
            .into_iter()
            .map(|(l, p)| (cond.components[l][0], p))
            .collect();
        assert_eq!(by_state[&1], r(1, 11));
        assert_eq!(by_state[&2], r(10, 11));
    }

    #[test]
    fn a_wide_answer_takes_several_primes() {
        // 0 ⇄ 1 with exit probabilities a = 3⁴⁰/2⁷⁰ and b = 1/3: π₀ =
        // b/(a + b) = 2⁷⁰/(3⁴¹ + 2⁷⁰) has a 71-bit numerator and
        // denominator, so the modulus needs about 144 bits: three primes.
        let a = Ratio::from_parts(
            pfq_num::BigInt::from(pfq_num::BigUint::from(3u64).pow(40)),
            pfq_num::BigUint::from(2u64).pow(70),
        );
        let b = r(1, 3);
        let c = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, Ratio::one().sub_ref(&a)), (1, a.clone())],
                vec![(0, b.clone()), (1, Ratio::one().sub_ref(&b))],
            ],
        )
        .unwrap();
        let (pi, stats) = stationary_solve(&c).unwrap();
        assert_eq!(pi, stationary_exact(&c).0);
        assert_eq!(pi[0], b.div_ref(&a.add_ref(&b)));
        assert_eq!(stats.primes, 3);
    }
}
