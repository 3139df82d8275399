//! The sparse Markov-chain representation and the kernel-exploration
//! builder.

use pfq_num::{Distribution, Ratio};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from chain construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChainError {
    /// A state's outgoing probabilities do not sum to 1.
    ImproperRow {
        /// Index of the offending state.
        state_index: usize,
        /// The row's total mass (rendered).
        mass: String,
    },
    /// Kernel exploration exceeded the state budget.
    StateLimitExceeded {
        /// The configured state budget.
        limit: usize,
    },
    /// Two entries of the state list compare equal.
    DuplicateState {
        /// Index of the later duplicate.
        state_index: usize,
    },
    /// A transition targets an index outside the state list.
    TargetOutOfRange {
        /// Index of the offending state.
        state_index: usize,
        /// The out-of-range target index.
        target: usize,
        /// Number of states in the chain.
        len: usize,
    },
    /// A listed transition probability is zero or negative (sparse rows
    /// list only the positive support).
    NonPositiveProbability {
        /// Index of the offending state.
        state_index: usize,
        /// The transition's target index.
        target: usize,
        /// The offending probability (rendered).
        prob: String,
    },
    /// The underlying kernel failed.
    Kernel(String),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::ImproperRow { state_index, mass } => write!(
                f,
                "outgoing probabilities of state {state_index} sum to {mass}, not 1"
            ),
            ChainError::StateLimitExceeded { limit } => {
                write!(f, "state exploration exceeded the limit of {limit}")
            }
            ChainError::DuplicateState { state_index } => {
                write!(f, "state {state_index} duplicates an earlier state")
            }
            ChainError::TargetOutOfRange {
                state_index,
                target,
                len,
            } => write!(
                f,
                "state {state_index} has a transition to index {target}, but there are only {len} states"
            ),
            ChainError::NonPositiveProbability {
                state_index,
                target,
                prob,
            } => write!(
                f,
                "transition {state_index} -> {target} has non-positive probability {prob}"
            ),
            ChainError::Kernel(msg) => write!(f, "transition kernel failed: {msg}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A finite Markov chain over states of type `S`, with exact rational
/// transition probabilities stored sparsely (one row per state).
///
/// Every `index_of`/dedup during [`MarkovChain::explore`] compares whole
/// states, so `S` should be cheap to order: callers exploring database
/// instances intern them first (a `pfq-data` `Interner` maps each
/// distinct state to a dense `u32` `StateId`) and explore a chain of
/// ids — that is how `pfq-core::exact_noninflationary` builds its
/// chains, resolving ids back to relations only at event-evaluation
/// time.
///
/// ```
/// use pfq_markov::MarkovChain;
/// use pfq_markov::stationary::exact_stationary;
/// use pfq_num::{Distribution, Ratio};
///
/// // Explore a kernel over u32 states: i → i+1 mod 3 or stay, 50/50.
/// let chain = MarkovChain::explore(
///     [0u32],
///     |&s| -> Result<_, String> {
///         Ok([(s, Ratio::new(1, 2)), ((s + 1) % 3, Ratio::new(1, 2))]
///             .into_iter()
///             .collect::<Distribution<u32>>())
///     },
///     None,
/// )
/// .unwrap();
/// assert_eq!(chain.len(), 3);
/// let pi = exact_stationary(&chain).unwrap();
/// assert_eq!(pi, vec![Ratio::new(1, 3); 3]); // symmetric ⇒ uniform
/// ```
#[derive(Clone, Debug)]
pub struct MarkovChain<S: Ord + Clone> {
    states: Vec<S>,
    index: BTreeMap<S, usize>,
    /// `rows[i]` lists `(j, p)` with `p = Pr(i → j) > 0`, sorted by `j`.
    rows: Vec<Vec<(usize, Ratio)>>,
}

impl<S: Ord + Clone> MarkovChain<S> {
    /// Builds a chain by breadth-first exploration of `kernel` from the
    /// `starts`. The kernel returns, for a state, the exact distribution
    /// of successor states. `max_states` bounds exploration.
    ///
    /// This is exactly the paper's Proposition 5.4 construction step:
    /// “compute the stochastic matrix defining the transition relation of
    /// this Markov chain … by evaluating Q on each of the states”.
    pub fn explore<E: fmt::Display>(
        starts: impl IntoIterator<Item = S>,
        mut kernel: impl FnMut(&S) -> Result<Distribution<S>, E>,
        max_states: Option<usize>,
    ) -> Result<MarkovChain<S>, ChainError> {
        let mut chain = MarkovChain {
            states: Vec::new(),
            index: BTreeMap::new(),
            rows: Vec::new(),
        };
        let mut frontier: Vec<usize> = Vec::new();
        for s in starts {
            let i = chain.intern(s, max_states)?;
            frontier.push(i);
        }
        let mut cursor = 0;
        while cursor < frontier.len() {
            let i = frontier[cursor];
            cursor += 1;
            if !chain.rows[i].is_empty() {
                continue; // already expanded (duplicate start)
            }
            let state = chain.states[i].clone();
            let succ = kernel(&state).map_err(|e| ChainError::Kernel(e.to_string()))?;
            if !succ.is_proper() {
                return Err(ChainError::ImproperRow {
                    state_index: i,
                    mass: succ.total_mass().to_string(),
                });
            }
            let mut row = Vec::with_capacity(succ.support_size());
            for (next, p) in succ.into_iter() {
                let was_known = chain.index.contains_key(&next);
                let j = chain.intern(next, max_states)?;
                if !was_known {
                    frontier.push(j);
                }
                row.push((j, p));
            }
            row.sort_by_key(|(j, _)| *j);
            chain.rows[i] = row;
        }
        Ok(chain)
    }

    /// Builds a chain from explicit rows; `rows[i]` lists `(j, p)` pairs.
    ///
    /// Validates everything it documents as input contract — duplicate
    /// states, index bounds, strict positivity of listed probabilities,
    /// and row stochasticity — returning the matching [`ChainError`]
    /// rather than panicking (a validating constructor should not have
    /// two failure modes).
    pub fn from_rows(states: Vec<S>, rows: Vec<Vec<(usize, Ratio)>>) -> Result<Self, ChainError> {
        assert_eq!(states.len(), rows.len(), "one row per state required");
        let mut index: BTreeMap<S, usize> = BTreeMap::new();
        for (i, s) in states.iter().enumerate() {
            if index.insert(s.clone(), i).is_some() {
                return Err(ChainError::DuplicateState { state_index: i });
            }
        }
        for (i, row) in rows.iter().enumerate() {
            for (j, p) in row {
                if *j >= states.len() {
                    return Err(ChainError::TargetOutOfRange {
                        state_index: i,
                        target: *j,
                        len: states.len(),
                    });
                }
                if !p.is_positive() {
                    return Err(ChainError::NonPositiveProbability {
                        state_index: i,
                        target: *j,
                        prob: p.to_string(),
                    });
                }
            }
            let mass: Ratio = row.iter().map(|(_, p)| p).sum();
            if !mass.is_one() {
                return Err(ChainError::ImproperRow {
                    state_index: i,
                    mass: mass.to_string(),
                });
            }
        }
        let mut rows = rows;
        for row in &mut rows {
            row.sort_by_key(|(j, _)| *j);
        }
        Ok(MarkovChain {
            states,
            index,
            rows,
        })
    }

    fn intern(&mut self, s: S, max_states: Option<usize>) -> Result<usize, ChainError> {
        if let Some(&i) = self.index.get(&s) {
            return Ok(i);
        }
        if let Some(limit) = max_states {
            if self.states.len() >= limit {
                return Err(ChainError::StateLimitExceeded { limit });
            }
        }
        let i = self.states.len();
        self.states.push(s.clone());
        self.index.insert(s, i);
        self.rows.push(Vec::new());
        Ok(i)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state with index `i`.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// All states, in index order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The index of `state`, if present.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// The sparse outgoing row of state `i`.
    pub fn row(&self, i: usize) -> &[(usize, Ratio)] {
        &self.rows[i]
    }

    /// `Pr(i → j)`.
    pub fn prob(&self, i: usize, j: usize) -> Ratio {
        self.rows[i]
            .iter()
            .find(|(k, _)| *k == j)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(Ratio::zero)
    }

    /// Successor indices of state `i`.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.rows[i].iter().map(|(j, _)| *j)
    }

    /// One exact step of distribution evolution: `out = x · P`.
    pub fn step_distribution(&self, x: &[Ratio]) -> Vec<Ratio> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![Ratio::zero(); self.len()];
        for (i, xi) in x.iter().enumerate() {
            if xi.is_zero() {
                continue;
            }
            for (j, p) in &self.rows[i] {
                out[*j] = out[*j].add_ref(&xi.mul_ref(p));
            }
        }
        out
    }

    /// One f64 step of distribution evolution: `out = x · P`.
    pub fn step_distribution_f64(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; self.len()];
        for (i, xi) in x.iter().enumerate() {
            if *xi == 0.0 {
                continue;
            }
            for (j, p) in &self.rows[i] {
                out[*j] += xi * p.to_f64();
            }
        }
        out
    }

    /// Restricts the chain to the given states (which must be closed
    /// under transitions); returns the sub-chain and the index mapping
    /// `old → new`.
    pub fn restrict(&self, members: &[usize]) -> (MarkovChain<S>, BTreeMap<usize, usize>) {
        let remap: BTreeMap<usize, usize> = members
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let states: Vec<S> = members.iter().map(|&i| self.states[i].clone()).collect();
        let rows: Vec<Vec<(usize, Ratio)>> = members
            .iter()
            .map(|&i| {
                self.rows[i]
                    .iter()
                    .map(|(j, p)| {
                        let nj = *remap
                            .get(j)
                            .unwrap_or_else(|| panic!("restriction set not closed: {i} -> {j}"));
                        (nj, p.clone())
                    })
                    .collect()
            })
            .collect();
        let index = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();
        (
            MarkovChain {
                states,
                index,
                rows,
            },
            remap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state chain: 0 → 1 w.p. 1; 1 → {0: 1/2, 1: 1/2}.
    pub(crate) fn two_state() -> MarkovChain<u32> {
        MarkovChain::from_rows(
            vec![0, 1],
            vec![
                vec![(1, Ratio::one())],
                vec![(0, Ratio::new(1, 2)), (1, Ratio::new(1, 2))],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_basics() {
        let c = two_state();
        assert_eq!(c.len(), 2);
        assert_eq!(c.prob(0, 1), Ratio::one());
        assert_eq!(c.prob(1, 0), Ratio::new(1, 2));
        assert_eq!(c.prob(0, 0), Ratio::zero());
        assert_eq!(c.index_of(&1), Some(1));
        assert_eq!(c.index_of(&9), None);
    }

    #[test]
    fn from_rows_rejects_improper() {
        let r = MarkovChain::from_rows(vec![0u32], vec![vec![(0, Ratio::new(1, 2))]]);
        assert!(matches!(r, Err(ChainError::ImproperRow { .. })));
    }

    #[test]
    fn from_rows_rejects_duplicate_states() {
        let row = vec![(0, Ratio::one())];
        let r = MarkovChain::from_rows(vec![7u32, 7], vec![row.clone(), row]);
        assert_eq!(
            r.unwrap_err(),
            ChainError::DuplicateState { state_index: 1 }
        );
    }

    #[test]
    fn from_rows_rejects_out_of_range_target() {
        let r = MarkovChain::from_rows(vec![0u32], vec![vec![(3, Ratio::one())]]);
        assert_eq!(
            r.unwrap_err(),
            ChainError::TargetOutOfRange {
                state_index: 0,
                target: 3,
                len: 1
            }
        );
    }

    #[test]
    fn from_rows_rejects_non_positive_probability() {
        // Zero-mass entries are not allowed (rows list positive support
        // only), and negative ones are caught before the mass check can
        // be fooled by cancellation.
        let r = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, Ratio::zero()), (1, Ratio::one())],
                vec![(1, Ratio::one())],
            ],
        );
        assert_eq!(
            r.unwrap_err(),
            ChainError::NonPositiveProbability {
                state_index: 0,
                target: 0,
                prob: "0".to_string()
            }
        );
        let r = MarkovChain::from_rows(
            vec![0u32],
            vec![vec![(0, Ratio::new(-1, 2)), (0, Ratio::new(3, 2))]],
        );
        assert!(matches!(
            r,
            Err(ChainError::NonPositiveProbability { state_index: 0, .. })
        ));
    }

    #[test]
    fn explore_walks_the_reachable_space() {
        // Kernel on integers mod 5: i → i+1 w.p. 1/2, i → 0 w.p. 1/2.
        let kernel = |s: &u32| -> Result<Distribution<u32>, String> {
            Ok([((s + 1) % 5, Ratio::new(1, 2)), (0, Ratio::new(1, 2))]
                .into_iter()
                .collect())
        };
        let c = MarkovChain::explore([0u32], kernel, None).unwrap();
        assert_eq!(c.len(), 5);
        // Self-merging masses: from 4, both branches lead to 0.
        let i4 = c.index_of(&4).unwrap();
        let i0 = c.index_of(&0).unwrap();
        assert_eq!(c.prob(i4, i0), Ratio::one());
    }

    #[test]
    fn explore_respects_state_limit() {
        let kernel =
            |s: &u64| -> Result<Distribution<u64>, String> { Ok(Distribution::singleton(s + 1)) };
        let r = MarkovChain::explore([0u64], kernel, Some(10));
        assert!(matches!(
            r,
            Err(ChainError::StateLimitExceeded { limit: 10 })
        ));
    }

    #[test]
    fn explore_rejects_improper_kernel() {
        let kernel = |_: &u32| -> Result<Distribution<u32>, String> {
            Ok([(0u32, Ratio::new(1, 3))].into_iter().collect())
        };
        let r = MarkovChain::explore([0u32], kernel, None);
        assert!(matches!(r, Err(ChainError::ImproperRow { .. })));
    }

    #[test]
    fn explore_propagates_kernel_errors() {
        let kernel = |_: &u32| -> Result<Distribution<u32>, String> { Err("boom".to_string()) };
        let r = MarkovChain::explore([0u32], kernel, None);
        assert!(matches!(r, Err(ChainError::Kernel(msg)) if msg == "boom"));
    }

    #[test]
    fn step_distribution_exact() {
        let c = two_state();
        let x = vec![Ratio::one(), Ratio::zero()];
        let x1 = c.step_distribution(&x);
        assert_eq!(x1, vec![Ratio::zero(), Ratio::one()]);
        let x2 = c.step_distribution(&x1);
        assert_eq!(x2, vec![Ratio::new(1, 2), Ratio::new(1, 2)]);
        let total: Ratio = x2.iter().sum();
        assert!(total.is_one());
    }

    #[test]
    fn step_distribution_f64_matches_exact() {
        let c = two_state();
        let xe = c.step_distribution(&[Ratio::one(), Ratio::zero()]);
        let xf = c.step_distribution_f64(&[1.0, 0.0]);
        for (e, f) in xe.iter().zip(&xf) {
            assert!((e.to_f64() - f).abs() < 1e-15);
        }
    }

    #[test]
    fn restrict_closed_subset() {
        // 3 states: 0 → 1 → 0 closed pair, 2 → 0 transient.
        let c = MarkovChain::from_rows(
            vec![0u32, 1, 2],
            vec![
                vec![(1, Ratio::one())],
                vec![(0, Ratio::one())],
                vec![(0, Ratio::one())],
            ],
        )
        .unwrap();
        let (sub, remap) = c.restrict(&[0, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(remap[&0], 0);
        assert_eq!(sub.prob(0, 1), Ratio::one());
        assert_eq!(sub.prob(1, 0), Ratio::one());
    }
}
