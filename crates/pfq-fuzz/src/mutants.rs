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
use pfq_datalog::inflationary::{step_distribution, EngineState};
use pfq_datalog::{DatalogError, Program};
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
        match step_distribution(&compiled, &edb, &state, None)? {
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

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::{Relation, Schema, Tuple, Value};
    use pfq_datalog::inflationary::enumerate_fixpoints;
    use pfq_datalog::parse_program;

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
