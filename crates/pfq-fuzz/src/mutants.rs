//! Seeded faults for harness self-checking.
//!
//! A fuzzer that never fires is indistinguishable from a fuzzer that
//! works; these deliberately broken evaluator variants let
//! `tests/fuzz_selfcheck.rs` assert that the oracle actually detects
//! and shrinks real bug classes. Each mutant is a faithful
//! re-implementation of a production code path with one seeded defect,
//! built purely on public APIs (production crates stay untouched).

use pfq_core::error::CoreError;
use pfq_core::sampler::{SampleReport, SamplerConfig};
use pfq_core::{mixing_sampler, ForeverQuery};
use pfq_data::Database;
use pfq_datalog::eval::CompiledProgram;
use pfq_datalog::inflationary::{step_distribution, EngineState, StepScratch};
use pfq_datalog::{DatalogError, Program};
use pfq_markov::stationary::exact_stationary;
use pfq_markov::MarkovChain;
use pfq_num::modular::{self, Crt};
use pfq_num::{Distribution, Ratio};
use std::collections::BTreeMap;

/// The seeded faults the self-check injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The legacy inflationary enumerator *overwrites* frontier mass on
    /// state collisions instead of adding it — the classic lost-merge
    /// bug. Probability mass silently disappears whenever two
    /// computation-tree paths converge on the same engine state.
    DropFrontierMerge,
    /// The Theorem 5.6 restart sampler walks `burn_in − 1` kernel steps
    /// instead of `burn_in` — an off-by-one that skews the estimate on
    /// any chain not yet stationary at that depth (periodic chains make
    /// it flagrant).
    BurnInOffByOne,
}

impl Fault {
    /// Parses a fault name (`drop-frontier-merge`, `burn-in-off-by-one`).
    pub fn parse(s: &str) -> Option<Fault> {
        match s {
            "drop-frontier-merge" => Some(Fault::DropFrontierMerge),
            "burn-in-off-by-one" => Some(Fault::BurnInOffByOne),
            _ => None,
        }
    }
}

/// [`pfq_datalog::inflationary::enumerate_fixpoints`] with the
/// [`Fault::DropFrontierMerge`] defect: `frontier.insert` replaces the
/// mass already accumulated for a state instead of adding to it.
pub fn enumerate_fixpoints_lossy(
    program: &Program,
    db: &Database,
    node_budget: Option<usize>,
) -> Result<Distribution<Database>, DatalogError> {
    let compiled = CompiledProgram::new(program);
    let (edb, initial) = EngineState::initial(program, db)?;
    let mut frontier: BTreeMap<EngineState, Ratio> = BTreeMap::new();
    frontier.insert(initial, Ratio::one());
    let mut fixpoints = Distribution::new();
    let mut expanded = 0usize;
    let mut scratch = StepScratch::default();
    while let Some((state, p)) = frontier.pop_first() {
        expanded += 1;
        if let Some(limit) = node_budget {
            if expanded > limit {
                return Err(DatalogError::BudgetExceeded {
                    what: "computation-tree expansion",
                    limit,
                });
            }
        }
        match step_distribution(&compiled, &edb, &state, None, &mut scratch)? {
            None => fixpoints.add(state.database(&edb), p),
            Some(successors) => {
                for (next, q) in successors.into_iter() {
                    let mass = p.mul_ref(&q);
                    // BUG (seeded): drops any mass a sibling path
                    // already routed through `next`.
                    frontier.insert(next, mass);
                }
            }
        }
    }
    Ok(fixpoints)
}

/// [`mixing_sampler::evaluate_with_burn_in_config`] with the
/// [`Fault::BurnInOffByOne`] defect: every restart walks one kernel
/// step short of the requested burn-in.
pub fn burn_in_off_by_one(
    query: &ForeverQuery,
    db: &Database,
    burn_in: usize,
    epsilon: f64,
    delta: f64,
    config: &SamplerConfig,
) -> Result<SampleReport, CoreError> {
    mixing_sampler::evaluate_with_burn_in_config(
        query,
        db,
        burn_in.saturating_sub(1),
        epsilon,
        delta,
        config,
    )
}

/// The reconstruction of [`pfq_markov::stationary::exact_stationary`]
/// with a seeded defect, returned unchecked: its Chinese remaindering
/// drops the residues of the last prime it combines, so Wang's
/// reconstruction rebuilds a vector from too small a modulus. Not a
/// campaign fault: production returns no vector that
/// [`pfq_markov::certify`] has not accepted, and the certificate alone
/// is what rejects this one.
///
/// A lucky prime's modular solve yields the residues of the exact
/// answer, so they are taken from it. Primes are combined one at a
/// time, as production does, until the reconstruction is the answer;
/// the defect returns the vector rebuilt without the residues of that
/// last prime (`None` when the chain is not irreducible, when one prime
/// suffices, or when no vector within Wang's bounds fits the shorter
/// modulus).
pub fn stationary_dropped_residue<S: Ord + Clone>(chain: &MarkovChain<S>) -> Option<Vec<Ratio>> {
    let exact = exact_stationary(chain).ok()?;
    let mut crt: Option<Crt> = None;
    let mut without_last = None;
    for p in modular::primes() {
        let residues: Vec<u64> = exact.iter().map(|x| p.residue(x)).collect::<Option<_>>()?;
        let crt = match &mut crt {
            Some(crt) => {
                crt.push(p, &residues);
                crt
            }
            None => crt.insert(Crt::new(p, residues)),
        };
        let rebuilt = crt.reconstruct();
        if rebuilt.as_ref() == Some(&exact) {
            // BUG (seeded): the last prime's residues are dropped.
            return without_last;
        }
        without_last = rebuilt;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::{Relation, Schema, Tuple, Value};
    use pfq_datalog::inflationary::enumerate_fixpoints;
    use pfq_datalog::parse_program;
    use pfq_markov::certify;
    use pfq_num::{BigInt, BigUint};

    /// Choice, then symmetric closure, then a guard that fires only
    /// once the closure completes: the two coin-flip branches converge
    /// on *identical* engine states one step before the fixpoint, and
    /// the guard rule (filling relation `A`, compared first) keeps both
    /// parents ordered before the shared child in the frontier's
    /// `BTreeMap` — so both parents insert the child while it is still
    /// enqueued, which is exactly the mass merge the lossy frontier
    /// drops.
    #[test]
    fn lossy_enumeration_loses_mass_on_converging_paths() {
        let program = parse_program(
            "B(X) @P :- E(X, P).\n\
             A(1) :- B(1), B(2).\n\
             B(Y) :- B(X), E(Y, P).",
        )
        .unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["n", "w"]),
                [
                    Tuple::new(vec![Value::int(1), Value::int(1)]),
                    Tuple::new(vec![Value::int(2), Value::int(1)]),
                ],
            ),
        );
        let good = enumerate_fixpoints(&program, &db, None).unwrap();
        assert!(good.is_proper());
        let bad = enumerate_fixpoints_lossy(&program, &db, None).unwrap();
        assert!(
            !bad.is_proper(),
            "seeded fault failed to lose mass: total = {}",
            bad.total_mass()
        );
    }

    /// 0 ⇄ 1 with exit probabilities 3⁴¹/2¹¹⁰ and 1/3: the stationary
    /// vector needs three primes. Rebuilt from two, it is a positive
    /// vector summing to 1, so only `π P = π` tells it from the answer.
    #[test]
    fn certificate_alone_rejects_a_dropped_crt_residue() {
        let a = Ratio::from_parts(
            BigInt::from(BigUint::from(3u64).pow(41)),
            BigUint::from(2u64).pow(110),
        );
        let b = Ratio::new(1, 3);
        let chain = MarkovChain::from_rows(
            vec![0u32, 1],
            vec![
                vec![(0, Ratio::one().sub_ref(&a)), (1, a)],
                vec![(0, b.clone()), (1, Ratio::one().sub_ref(&b))],
            ],
        )
        .unwrap();
        let good = exact_stationary(&chain).unwrap();
        let bad = stationary_dropped_residue(&chain).expect("a vector within Wang's bounds");
        assert_ne!(bad, good);
        assert!(bad.iter().all(Ratio::is_positive));
        assert!(bad.iter().sum::<Ratio>().is_one());
        assert!(!certify::stationary(&chain, &[0, 1], &bad));
        assert!(certify::stationary(&chain, &[0, 1], &good));
    }

    #[test]
    fn fault_names_parse() {
        assert_eq!(
            Fault::parse("drop-frontier-merge"),
            Some(Fault::DropFrontierMerge)
        );
        assert_eq!(
            Fault::parse("burn-in-off-by-one"),
            Some(Fault::BurnInOffByOne)
        );
        assert_eq!(Fault::parse("nope"), None);
    }
}
