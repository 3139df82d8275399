//! The differential and metamorphic oracle matrix.
//!
//! Each generated case is pushed through every configured evaluator
//! path and the results are cross-checked:
//!
//! | check | paths compared | property |
//! |---|---|---|
//! | `MassConservation` | legacy exact inflationary | fixpoint distribution sums to exactly 1 |
//! | `Monotonicity` | legacy exact inflationary | every fixpoint ⊇ the prepared input (inflationary §3.3) |
//! | `MemoDifferential` | legacy vs [`FixpointMemo`] | bit-identical distributions |
//! | `CacheReuse` | fresh memo vs campaign-shared memo | intern-id independence: same distribution |
//! | `SamplerBound` | exact vs Thm 4.3 sampler | `\|p̂ − p\| ≤ ε` at confidence `1 − δ` (deterministic seed) |
//! | `ThreadInvariance` | sampler at 1 vs 3 threads | bit-identical estimates for the same seed |
//! | `StationaryDifferential` | engine (interned chain, sparse GTH) vs reference (`build_chain`, dense GE) (Thm 5.5) | bit-identical long-run probabilities |
//! | `PartitionDifferential` | §5.1 partitioned vs whole chain | identical exact probabilities (negation-free only) |
//! | `BurnInConsistency` | Thm 5.6 restart sampler vs exact `P^B` mass | `\|p̂ − p_B\| ≤ ε` at confidence `1 − δ` |
//! | `PlannerDifferential` | engine `Strategy::Auto` vs every forced-eligible exact path and the reference oracles | bit-identical exact probabilities |
//!
//! Budget exhaustion on a path is a *skip*, not a failure; any other
//! disagreement (including one path erroring where its twin succeeds)
//! is a divergence.

use crate::gen::FuzzCase;
use crate::mutants::{self, Fault};
use pfq_core::exact_inflationary::ExactBudget;
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_core::sampler::SamplerConfig;
use pfq_core::{
    mixing_sampler, partition, sample_inflationary, CoreError, DatalogQuery, Engine, EvalCache,
    EvalRequest, ForeverQuery, Strategy,
};
use pfq_ctable::PcDatabase;
use pfq_data::{Database, Relation, Tuple, Value};
use pfq_datalog::eval;
use pfq_datalog::inflationary::{enumerate_fixpoints, enumerate_fixpoints_memo, FixpointMemo};
use pfq_datalog::{Atom, DatalogError, Rule, Term};
use pfq_markov::dense;
use pfq_num::{Distribution, Ratio};
use std::collections::{BTreeMap, BTreeSet};

/// A variable assignment by name — the reference matcher's valuation.
pub type Valuation = BTreeMap<String, Value>;

/// The Prop. 4.4 reference oracle: the event probability over the
/// un-memoized [`enumerate_fixpoints`] distribution.
pub fn reference_tree_probability(
    query: &DatalogQuery,
    db: &Database,
    node_budget: Option<usize>,
) -> Result<Ratio, DatalogError> {
    let dist = enumerate_fixpoints(&query.program, db, node_budget)?;
    Ok(dist.probability_that(|db| query.event.holds(db)))
}

/// The §3.2 reference oracle for pc-table inputs: every possible world
/// of `input` is enumerated and weighted by its
/// [`reference_tree_probability`], with nothing shared between worlds.
pub fn reference_pc_probability(
    query: &DatalogQuery,
    input: &PcDatabase,
    node_budget: Option<usize>,
) -> Result<Ratio, CoreError> {
    let mut total = Ratio::zero();
    for (world, p) in input.enumerate_worlds()?.iter() {
        let conditional = reference_tree_probability(query, world, node_budget)?;
        total = total.add_ref(&p.mul_ref(&conditional));
    }
    Ok(total)
}

/// The Thm. 5.5 reference oracle: the long-run event probability on the
/// `Database`-keyed [`exact_noninflationary::build_chain`], solved by
/// dense rational elimination.
pub fn reference_chain_probability(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
) -> Result<Ratio, CoreError> {
    let chain = exact_noninflationary::build_chain(query, db, budget)?;
    let start = chain.index_of(db).expect("start state was explored");
    let long_run = dense::long_run_distribution(&chain, start)?;
    let mut total = Ratio::zero();
    for (i, p) in long_run.iter().enumerate() {
        if !p.is_zero() && query.event.holds(chain.state(i)) {
            total = total.add_ref(p);
        }
    }
    Ok(total)
}

/// The reference body matcher: every valuation of `body` against `db`,
/// level by level over name-keyed maps, with no plan and no index. It
/// shares nothing with the engines' compiled matcher
/// ([`pfq_datalog::eval::CompiledRule`]), which the matcher differential
/// test compares against it. `delta = Some((i, rel))` reads atom `i`
/// from `rel` instead of `db`.
pub fn reference_body_valuations(
    body: &[Atom],
    db: &Database,
    delta: Option<(usize, &Relation)>,
) -> Result<Vec<Valuation>, DatalogError> {
    let mut vals: Vec<Valuation> = vec![Valuation::new()];
    for (i, atom) in body.iter().enumerate() {
        let rel = match delta {
            Some((d, rel)) if d == i => rel,
            _ => db
                .get(&atom.relation)
                .ok_or_else(|| DatalogError::UnknownRelation(atom.relation.clone()))?,
        };
        if rel.schema().arity() != atom.terms.len() {
            return Err(DatalogError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: rel.schema().arity(),
                found: atom.terms.len(),
            });
        }
        let mut next = Vec::new();
        for val in &vals {
            'tuples: for t in rel.iter() {
                let mut extended = val.clone();
                for (pos, term) in atom.terms.iter().enumerate() {
                    let actual = t.get(pos);
                    match term {
                        Term::Const(c) => {
                            if c != actual {
                                continue 'tuples;
                            }
                        }
                        Term::Var(v) => match extended.get(v) {
                            Some(bound) if bound != actual => continue 'tuples,
                            Some(_) => {}
                            None => {
                                extended.insert(v.clone(), actual.clone());
                            }
                        },
                    }
                }
                next.push(extended);
            }
        }
        vals = next;
        if vals.is_empty() {
            break;
        }
    }
    Ok(vals)
}

/// The reference negation filter: a valuation survives iff no negated
/// atom, grounded under it, matches a tuple of its relation.
pub fn reference_filter_negatives(
    vals: Vec<Valuation>,
    negatives: &[Atom],
    db: &Database,
) -> Result<Vec<Valuation>, DatalogError> {
    let rels: Vec<&Relation> = negatives
        .iter()
        .map(|a| {
            db.get(&a.relation)
                .ok_or_else(|| DatalogError::UnknownRelation(a.relation.clone()))
        })
        .collect::<Result<_, _>>()?;
    for (atom, rel) in negatives.iter().zip(&rels) {
        if rel.schema().arity() != atom.terms.len() {
            return Err(DatalogError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: rel.schema().arity(),
                found: atom.terms.len(),
            });
        }
    }
    let mut out = Vec::with_capacity(vals.len());
    'vals: for val in vals {
        for (atom, rel) in negatives.iter().zip(&rels) {
            let grounded: Vec<Value> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Ok(c.clone()),
                    Term::Var(v) => val.get(v).cloned().ok_or_else(|| DatalogError::UnsafeRule {
                        rule: atom.to_string(),
                        variable: v.clone(),
                    }),
                })
                .collect::<Result<_, _>>()?;
            if rel.contains(&Tuple::new(grounded)) {
                continue 'vals; // blocked by the negated atom
            }
        }
        out.push(val);
    }
    Ok(out)
}

/// The reference `oldVals` view of a rule's valuations: each surviving
/// valuation encoded over [`Rule::all_variables`], as a set. Panics on a
/// rule whose head uses a variable the body does not bind (generated
/// cases are always range restricted).
pub fn reference_rule_valuations(
    rule: &Rule,
    db: &Database,
    delta: Option<(usize, &Relation)>,
) -> Result<BTreeSet<Tuple>, DatalogError> {
    let vars = rule.all_variables();
    let vals = reference_body_valuations(&rule.body, db, delta)?;
    let vals = reference_filter_negatives(vals, &rule.negatives, db)?;
    Ok(vals
        .iter()
        .map(|val| Tuple::new(vars.iter().map(|v| val[v].clone()).collect::<Vec<_>>()))
        .collect())
}

/// Identifies one oracle check — the unit of pass/skip/fail accounting
/// and the thing a shrink run must keep reproducing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// Total fixpoint mass is exactly 1.
    MassConservation,
    /// Every fixpoint database contains the prepared input.
    Monotonicity,
    /// Legacy and memoized enumeration agree bit-for-bit.
    MemoDifferential,
    /// A campaign-shared memo gives the same answer as a fresh one.
    CacheReuse,
    /// The Theorem 4.3 sampler lands within its `(ε, δ)` bound.
    SamplerBound,
    /// Same seed ⇒ bit-identical estimates at any thread count.
    ThreadInvariance,
    /// The engine's exact chain agrees bit-for-bit with the dense
    /// reference oracle.
    StationaryDifferential,
    /// §5.1 partitioned evaluation equals whole-chain evaluation.
    PartitionDifferential,
    /// The Theorem 5.6 burn-in sampler matches the exact `B`-step mass.
    BurnInConsistency,
    /// The planner's `Strategy::Auto` choice is bit-identical to every
    /// forced exact path eligible for the same task.
    PlannerDifferential,
}

impl CheckId {
    /// Every check, in reporting order.
    pub const ALL: [CheckId; 10] = [
        CheckId::MassConservation,
        CheckId::Monotonicity,
        CheckId::MemoDifferential,
        CheckId::CacheReuse,
        CheckId::SamplerBound,
        CheckId::ThreadInvariance,
        CheckId::StationaryDifferential,
        CheckId::PartitionDifferential,
        CheckId::BurnInConsistency,
        CheckId::PlannerDifferential,
    ];

    /// Stable kebab-case name (CLI reporting).
    pub fn name(self) -> &'static str {
        match self {
            CheckId::MassConservation => "mass-conservation",
            CheckId::Monotonicity => "monotonicity",
            CheckId::MemoDifferential => "memo-differential",
            CheckId::CacheReuse => "cache-reuse",
            CheckId::SamplerBound => "sampler-bound",
            CheckId::ThreadInvariance => "thread-invariance",
            CheckId::StationaryDifferential => "stationary-differential",
            CheckId::PartitionDifferential => "partition-differential",
            CheckId::BurnInConsistency => "burn-in-consistency",
            CheckId::PlannerDifferential => "planner-differential",
        }
    }
}

/// Which evaluator-path families to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSet {
    /// Exact inflationary paths (mass, monotonicity, memo, cache).
    pub inflationary: bool,
    /// Sampling paths (Hoeffding bound, thread invariance).
    pub sampling: bool,
    /// Exact non-inflationary paths (dense vs GTH).
    pub noninflationary: bool,
    /// §5.1 partitioned vs whole.
    pub partition: bool,
    /// Burn-in restart sampling vs exact `P^B`.
    pub burn_in: bool,
    /// Engine `Strategy::Auto` vs forced exact paths.
    pub planner: bool,
}

impl Default for PathSet {
    fn default() -> PathSet {
        PathSet {
            inflationary: true,
            sampling: true,
            noninflationary: true,
            partition: true,
            burn_in: true,
            planner: true,
        }
    }
}

impl PathSet {
    /// Parses a comma-separated path list, e.g.
    /// `inflationary,sampling`; `all` enables everything.
    pub fn parse(s: &str) -> Option<PathSet> {
        let mut set = PathSet {
            inflationary: false,
            sampling: false,
            noninflationary: false,
            partition: false,
            burn_in: false,
            planner: false,
        };
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "all" => return Some(PathSet::default()),
                "inflationary" => set.inflationary = true,
                "sampling" => set.sampling = true,
                "noninflationary" => set.noninflationary = true,
                "partition" => set.partition = true,
                "burn-in" | "burnin" => set.burn_in = true,
                "planner" => set.planner = true,
                _ => return None,
            }
        }
        Some(set)
    }

    /// Whether `check` belongs to an enabled path family.
    pub fn enables(&self, check: CheckId) -> bool {
        match check {
            CheckId::MassConservation
            | CheckId::Monotonicity
            | CheckId::MemoDifferential
            | CheckId::CacheReuse => self.inflationary,
            CheckId::SamplerBound | CheckId::ThreadInvariance => self.sampling,
            CheckId::StationaryDifferential => self.noninflationary,
            CheckId::PartitionDifferential => self.partition,
            CheckId::BurnInConsistency => self.burn_in,
            CheckId::PlannerDifferential => self.planner,
        }
    }
}

/// Oracle budgets and sampling parameters.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Enabled path families.
    pub paths: PathSet,
    /// Computation-tree node budget for exact inflationary enumeration.
    pub node_budget: usize,
    /// State/world budgets for chain construction.
    pub chain_budget: ChainBudget,
    /// Run the sampling checks on every `sample_cadence`-th case
    /// (they dominate wall-clock; 1 = every case).
    pub sample_cadence: usize,
    /// `ε` for the Theorem 4.3 / 5.6 bound checks.
    pub epsilon: f64,
    /// `δ` for the bound checks. The per-check false-alarm probability;
    /// keep it tiny so a whole campaign stays deterministic-clean.
    pub delta: f64,
    /// Fixed trial count for the thread-invariance replay.
    pub invariance_samples: usize,
    /// *Maximum* burn-in depth for the Theorem 5.6 consistency check;
    /// each case uses a seed-derived depth in `1..=burn_in` (see
    /// [`burn_in_depth`]). Shallow depths matter: transients — and
    /// therefore off-by-one effects — are largest in the first steps.
    pub burn_in: usize,
}

/// The burn-in depth the oracle uses for `case_seed`: cycles through
/// `1..=cfg.burn_in` so the shallow depths, where chain transients are
/// largest, are exercised as often as the deep ones.
pub fn burn_in_depth(cfg: &OracleConfig, case_seed: u64) -> usize {
    1 + (case_seed % cfg.burn_in.max(1) as u64) as usize
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            paths: PathSet::default(),
            node_budget: 20_000,
            chain_budget: ChainBudget {
                max_states: 600,
                world_limit: 2_048,
            },
            sample_cadence: 4,
            epsilon: 0.1,
            delta: 1e-6,
            invariance_samples: 200,
            burn_in: 3,
        }
    }
}

/// The outcome of one check on one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The property held.
    Pass,
    /// The check could not run (budget exhausted, path disabled,
    /// structurally inapplicable); carries the reason.
    Skip(String),
    /// The property failed; carries the divergence detail.
    Fail(String),
}

impl Outcome {
    /// Whether this is a failure.
    pub fn is_fail(&self) -> bool {
        matches!(self, Outcome::Fail(_))
    }
}

/// The oracle: configuration plus an optional seeded fault.
pub struct Oracle {
    /// Budgets, tolerances and enabled paths.
    pub cfg: OracleConfig,
    /// A seeded mutant to evaluate *instead of* the corresponding
    /// production path — used by the harness self-check.
    pub fault: Option<Fault>,
}

impl Oracle {
    /// An oracle over the production evaluators.
    pub fn new(cfg: OracleConfig) -> Oracle {
        Oracle { cfg, fault: None }
    }

    /// An oracle with a seeded fault.
    pub fn with_fault(cfg: OracleConfig, fault: Fault) -> Oracle {
        Oracle {
            cfg,
            fault: Some(fault),
        }
    }

    /// Runs every enabled check on `case`. `case_seed` keys all sampling
    /// RNGs (deterministic); `sampled` gates the expensive sampling
    /// checks; `shared` is the campaign-wide memo for [`CheckId::CacheReuse`].
    pub fn run_case(
        &self,
        case: &FuzzCase,
        case_seed: u64,
        sampled: bool,
        shared: &mut FixpointMemo,
    ) -> Vec<(CheckId, Outcome)> {
        let mut out = Vec::new();
        for check in CheckId::ALL {
            if !self.cfg.paths.enables(check) {
                continue;
            }
            let sampling_check = matches!(
                check,
                CheckId::SamplerBound | CheckId::ThreadInvariance | CheckId::BurnInConsistency
            );
            if sampling_check && !sampled {
                out.push((check, Outcome::Skip("off-cadence".into())));
                continue;
            }
            out.push((check, self.run_check(case, check, case_seed, Some(shared))));
        }
        out
    }

    /// Runs a single check — the entry point the shrinker replays.
    /// Without `shared`, [`CheckId::CacheReuse`] compares a warm second
    /// evaluation on a fresh memo instead.
    pub fn run_check(
        &self,
        case: &FuzzCase,
        check: CheckId,
        case_seed: u64,
        shared: Option<&mut FixpointMemo>,
    ) -> Outcome {
        match check {
            CheckId::MassConservation
            | CheckId::Monotonicity
            | CheckId::MemoDifferential
            | CheckId::CacheReuse => self.inflationary_check(case, check, shared),
            CheckId::SamplerBound => self.sampler_bound(case, case_seed),
            CheckId::ThreadInvariance => self.thread_invariance(case, case_seed),
            CheckId::StationaryDifferential => self.stationary_differential(case),
            CheckId::PartitionDifferential => self.partition_differential(case),
            CheckId::BurnInConsistency => self.burn_in_consistency(case, case_seed),
            CheckId::PlannerDifferential => self.planner_differential(case),
        }
    }

    /// The reference inflationary distribution — routed through the
    /// seeded lossy mutant when [`Fault::DropFrontierMerge`] is active.
    fn legacy_distribution(&self, case: &FuzzCase) -> Result<Distribution<Database>, DatalogError> {
        let budget = Some(self.cfg.node_budget);
        match self.fault {
            Some(Fault::DropFrontierMerge) => {
                mutants::enumerate_fixpoints_lossy(&case.program, &case.db, budget)
            }
            _ => enumerate_fixpoints(&case.program, &case.db, budget),
        }
    }

    fn inflationary_check(
        &self,
        case: &FuzzCase,
        check: CheckId,
        shared: Option<&mut FixpointMemo>,
    ) -> Outcome {
        let legacy = match self.legacy_distribution(case) {
            Ok(d) => d,
            Err(DatalogError::BudgetExceeded { what, limit }) => {
                return Outcome::Skip(format!("inflationary budget exhausted: {what} > {limit}"));
            }
            Err(e) => return Outcome::Fail(format!("legacy enumeration errored: {e}")),
        };
        match check {
            CheckId::MassConservation => {
                if legacy.is_proper() {
                    Outcome::Pass
                } else {
                    Outcome::Fail(format!(
                        "fixpoint mass is {} (expected exactly 1)",
                        legacy.total_mass()
                    ))
                }
            }
            CheckId::Monotonicity => {
                let prepared = match eval::prepare_database(&case.program, &case.db) {
                    Ok(db) => db,
                    Err(e) => return Outcome::Fail(format!("prepare_database errored: {e}")),
                };
                for (fixpoint, _) in legacy.iter() {
                    if !fixpoint.is_superset(&prepared) {
                        return Outcome::Fail(format!(
                            "inflationary fixpoint lost input tuples (fixpoint {fixpoint} ⊉ input)"
                        ));
                    }
                }
                Outcome::Pass
            }
            CheckId::MemoDifferential => {
                let mut memo = FixpointMemo::new();
                let memoized = match enumerate_fixpoints_memo(
                    &case.program,
                    &case.db,
                    Some(self.cfg.node_budget),
                    &mut memo,
                ) {
                    Ok(d) => d,
                    Err(e) => return Outcome::Fail(format!("memoized path errored: {e}")),
                };
                if *memoized == legacy {
                    Outcome::Pass
                } else {
                    Outcome::Fail(format!(
                        "legacy and memoized distributions differ: {} vs {} worlds, mass {} vs {}",
                        legacy.support_size(),
                        memoized.support_size(),
                        legacy.total_mass(),
                        memoized.total_mass()
                    ))
                }
            }
            CheckId::CacheReuse => {
                // Intern-id independence: a memo whose id space is
                // polluted by other cases must give the same answer as
                // a fresh one.
                let mut fresh = FixpointMemo::new();
                let baseline = match enumerate_fixpoints_memo(
                    &case.program,
                    &case.db,
                    Some(self.cfg.node_budget),
                    &mut fresh,
                ) {
                    Ok(d) => d.as_ref().clone(),
                    Err(e) => return Outcome::Fail(format!("fresh-memo path errored: {e}")),
                };
                let mut local;
                let warm: &mut FixpointMemo = match shared {
                    Some(m) => m,
                    None => {
                        local = FixpointMemo::new();
                        // Warm the memo with a first evaluation, then
                        // re-evaluate through it.
                        let _ = enumerate_fixpoints_memo(
                            &case.program,
                            &case.db,
                            Some(self.cfg.node_budget),
                            &mut local,
                        );
                        &mut local
                    }
                };
                match enumerate_fixpoints_memo(
                    &case.program,
                    &case.db,
                    Some(self.cfg.node_budget),
                    warm,
                ) {
                    Ok(d) if *d == baseline => Outcome::Pass,
                    Ok(d) => Outcome::Fail(format!(
                        "shared-memo result differs from fresh memo: mass {} vs {}",
                        d.total_mass(),
                        baseline.total_mass()
                    )),
                    Err(e) => Outcome::Fail(format!("shared-memo path errored: {e}")),
                }
            }
            _ => unreachable!("not an inflationary check"),
        }
    }

    /// Exact event probability via the *production* legacy path (used as
    /// ground truth for the sampler checks, fault-free on purpose: a
    /// seeded inflationary fault should be caught by the inflationary
    /// checks, not blur the sampler's reference).
    fn exact_event_probability(&self, case: &FuzzCase) -> Result<Ratio, DatalogError> {
        let query = DatalogQuery::new(case.program.clone(), case.event());
        reference_tree_probability(&query, &case.db, Some(self.cfg.node_budget))
    }

    fn sampler_bound(&self, case: &FuzzCase, case_seed: u64) -> Outcome {
        let exact = match self.exact_event_probability(case) {
            Ok(p) => p,
            Err(DatalogError::BudgetExceeded { .. }) => {
                return Outcome::Skip("no exact reference (budget)".into());
            }
            Err(e) => return Outcome::Fail(format!("exact reference errored: {e}")),
        };
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let config = SamplerConfig::seeded(case_seed).with_threads(2);
        let report = match sample_inflationary::evaluate_with_config(
            &query,
            &case.db,
            self.cfg.epsilon,
            self.cfg.delta,
            &config,
        ) {
            Ok(r) => r,
            Err(e) => return Outcome::Fail(format!("sampler errored where exact succeeded: {e}")),
        };
        let gap = (report.estimate - exact.to_f64()).abs();
        // 1e-12 absorbs float noise in the ε comparison itself.
        if gap <= self.cfg.epsilon + 1e-12 {
            Outcome::Pass
        } else {
            Outcome::Fail(format!(
                "sampler estimate {:.6} vs exact {:.6}: gap {gap:.6} > ε = {} \
                 ({} samples, δ = {})",
                report.estimate,
                exact.to_f64(),
                self.cfg.epsilon,
                report.samples,
                self.cfg.delta
            ))
        }
    }

    fn thread_invariance(&self, case: &FuzzCase, case_seed: u64) -> Outcome {
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let run = |threads: usize| {
            sample_inflationary::evaluate_with_samples_config(
                &query,
                &case.db,
                self.cfg.invariance_samples,
                &SamplerConfig::seeded(case_seed).with_threads(threads),
            )
        };
        match (run(1), run(3)) {
            (Ok(a), Ok(b)) => {
                if a.estimate.to_bits() == b.estimate.to_bits() && a.samples == b.samples {
                    Outcome::Pass
                } else {
                    Outcome::Fail(format!(
                        "same seed, different estimates across thread counts: \
                         {:.9} (1 thread) vs {:.9} (3 threads)",
                        a.estimate, b.estimate
                    ))
                }
            }
            (Err(a), Err(_)) => Outcome::Skip(format!("sampler unavailable: {a}")),
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => {
                Outcome::Fail(format!("sampler errored at one thread count only: {e}"))
            }
        }
    }

    fn stationary_differential(&self, case: &FuzzCase) -> Outcome {
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let (fq, prepared) = match query.to_forever_query(&case.db) {
            Ok(t) => t,
            Err(e) => return Outcome::Skip(format!("no non-inflationary translation: {e}")),
        };
        let gth = Engine::new()
            .run(
                &EvalRequest::forever(&fq, &prepared)
                    .with_strategy(Strategy::ExactChain)
                    .with_chain_budget(self.cfg.chain_budget),
            )
            .and_then(|o| o.into_exact());
        match (
            reference_chain_probability(&fq, &prepared, self.cfg.chain_budget),
            gth,
        ) {
            (Ok(dense), Ok(gth)) => {
                if dense == gth {
                    Outcome::Pass
                } else {
                    Outcome::Fail(format!(
                        "dense long-run probability {dense} differs from GTH {gth}"
                    ))
                }
            }
            (Err(a), Err(_)) => Outcome::Skip(format!("chain unavailable: {a}")),
            (Err(e), Ok(_)) => Outcome::Fail(format!("dense errored where GTH succeeded: {e}")),
            (Ok(_), Err(e)) => Outcome::Fail(format!("GTH errored where dense succeeded: {e}")),
        }
    }

    fn partition_differential(&self, case: &FuzzCase) -> Outcome {
        if case.program.has_negation() {
            return Outcome::Skip("partitioning requires a negation-free program".into());
        }
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let (fq, prepared) = match query.to_forever_query(&case.db) {
            Ok(t) => t,
            Err(e) => return Outcome::Skip(format!("no non-inflationary translation: {e}")),
        };
        let whole = match exact_noninflationary::evaluate(
            &fq,
            &prepared,
            self.cfg.chain_budget,
            &mut EvalCache::default(),
        ) {
            Ok(p) => p,
            Err(e) => return Outcome::Skip(format!("whole chain unavailable: {e}")),
        };
        match partition::evaluate_partitioned(
            &query,
            &case.db,
            self.cfg.chain_budget,
            &mut EvalCache::default(),
        ) {
            Ok(p) if p == whole => Outcome::Pass,
            Ok(p) => Outcome::Fail(format!(
                "partitioned probability {p} differs from whole-chain {whole}"
            )),
            Err(e) => Outcome::Fail(format!(
                "partitioned evaluation errored where whole-chain succeeded: {e}"
            )),
        }
    }

    fn burn_in_consistency(&self, case: &FuzzCase, case_seed: u64) -> Outcome {
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let (fq, prepared) = match query.to_forever_query(&case.db) {
            Ok(t) => t,
            Err(e) => return Outcome::Skip(format!("no non-inflationary translation: {e}")),
        };
        let chain = match exact_noninflationary::build_chain(&fq, &prepared, self.cfg.chain_budget)
        {
            Ok(c) => c,
            Err(e) => return Outcome::Skip(format!("chain unavailable: {e}")),
        };
        let start = chain
            .index_of(&prepared)
            .expect("start state was interned during exploration");
        // Exact B-step event mass by forward propagation: restart
        // sampling estimates exactly Pr(event after B steps), so that —
        // not the stationary probability — is the sound reference (the
        // two differ on periodic or slowly mixing chains).
        let burn_in = burn_in_depth(&self.cfg, case_seed);
        let mut mass = vec![Ratio::zero(); chain.len()];
        mass[start] = Ratio::one();
        for _ in 0..burn_in {
            mass = chain.step_distribution(&mass);
        }
        let mut exact = Ratio::zero();
        for (i, p) in mass.iter().enumerate() {
            if !p.is_zero() && fq.event.holds(chain.state(i)) {
                exact = exact.add_ref(p);
            }
        }
        let config = SamplerConfig::seeded(case_seed ^ 0x5bd1_e995).with_threads(2);
        let report = match self.fault {
            Some(Fault::BurnInOffByOne) => mutants::burn_in_off_by_one(
                &fq,
                &prepared,
                burn_in,
                self.cfg.epsilon,
                self.cfg.delta,
                &config,
            ),
            _ => mixing_sampler::evaluate_with_burn_in_config(
                &fq,
                &prepared,
                burn_in,
                self.cfg.epsilon,
                self.cfg.delta,
                &config,
            ),
        };
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                return Outcome::Fail(format!(
                    "burn-in sampler errored where exact chain succeeded: {e}"
                ));
            }
        };
        let gap = (report.estimate - exact.to_f64()).abs();
        if gap <= self.cfg.epsilon + 1e-12 {
            Outcome::Pass
        } else {
            Outcome::Fail(format!(
                "burn-in estimate {:.6} vs exact P^{} mass {:.6}: gap {gap:.6} > ε = {} \
                 ({} samples, δ = {})",
                report.estimate,
                burn_in,
                exact.to_f64(),
                self.cfg.epsilon,
                report.samples,
                self.cfg.delta
            ))
        }
    }

    /// The safe-plan property of the engine layer: whenever the
    /// planner's [`Strategy::Auto`] settles on an exact path, its answer
    /// must be bit-identical to *every* forced exact path eligible for
    /// the same task. Sampling choices (probe over budget) are skips —
    /// the sampler's accuracy has its own checks.
    fn planner_differential(&self, case: &FuzzCase) -> Outcome {
        let query = DatalogQuery::new(case.program.clone(), case.event());
        let mut skips = Vec::new();
        let mut compared = 0usize;

        // Inflationary task: Auto vs the legacy Prop 4.4 enumeration.
        let request = EvalRequest::inflationary(&query, &case.db).with_exact_budget(ExactBudget {
            node_budget: Some(self.cfg.node_budget),
            world_budget: None,
        });
        let mut engine = Engine::new();
        let plan = match engine.plan(&request) {
            Ok(p) => p,
            Err(e) => return Outcome::Fail(format!("inflationary planning errored: {e}")),
        };
        if plan.action.is_exact() {
            let auto = match engine.execute(&request, &plan) {
                Ok(o) => o,
                Err(e) => {
                    return Outcome::Fail(format!(
                        "planner chose {} but execution errored: {e}",
                        plan.action.name()
                    ));
                }
            };
            let p = auto
                .value
                .exact()
                .expect("exact plan yields an exact value");
            match self.exact_event_probability(case) {
                Ok(legacy) if *p == legacy => compared += 1,
                Ok(legacy) => {
                    return Outcome::Fail(format!(
                        "planner-chosen {} probability {p} differs from legacy exact {legacy}",
                        plan.action.name()
                    ));
                }
                Err(DatalogError::BudgetExceeded { .. }) => {
                    skips.push("legacy exact reference over budget".to_string());
                }
                Err(e) => {
                    return Outcome::Fail(format!(
                        "legacy exact reference errored where the planner chose {}: {e}",
                        plan.action.name()
                    ));
                }
            }
        } else {
            skips.push("inflationary probe over budget: planner chose sampling".to_string());
        }

        // Non-inflationary task: Auto vs the dense reference chain,
        // forced exact-chain and forced §5.1 partitioning.
        let request =
            EvalRequest::noninflationary(&query, &case.db).with_chain_budget(self.cfg.chain_budget);
        let mut engine = Engine::new();
        let plan = match engine.plan(&request) {
            Ok(p) => p,
            Err(e) => {
                // No non-inflationary translation (e.g. the program is
                // not destructive-steppable) — nothing to compare.
                skips.push(format!("non-inflationary planning unavailable: {e}"));
                return self.planner_verdict(compared, skips);
            }
        };
        if !plan.action.is_exact() {
            skips.push("chain probe over budget: planner chose restart sampling".to_string());
            return self.planner_verdict(compared, skips);
        }
        let auto = match engine.execute(&request, &plan) {
            Ok(o) => o,
            Err(e) => {
                return Outcome::Fail(format!(
                    "planner chose {} but execution errored: {e}",
                    plan.action.name()
                ));
            }
        };
        let p_auto = auto
            .value
            .exact()
            .expect("exact plan yields an exact value");
        let run_forced = |strategy: Strategy| {
            Engine::new()
                .run(
                    &EvalRequest::noninflationary(&query, &case.db)
                        .with_strategy(strategy)
                        .with_chain_budget(self.cfg.chain_budget),
                )
                .and_then(|o| o.into_exact())
        };
        let dense = query
            .to_forever_query(&case.db)
            .map_err(CoreError::Datalog)
            .and_then(|(fq, prepared)| {
                reference_chain_probability(&fq, &prepared, self.cfg.chain_budget)
            });
        let mut forced = vec![
            ("dense reference chain", dense),
            ("forced exact-chain", run_forced(Strategy::ExactChain)),
        ];
        if !case.program.has_negation() {
            forced.push(("forced partitioned", run_forced(Strategy::Partitioned)));
        }
        for (label, result) in forced {
            match result {
                Ok(p) if p == *p_auto => compared += 1,
                Ok(p) => {
                    return Outcome::Fail(format!(
                        "planner-chosen {} probability {p_auto} differs from {label}: {p}",
                        plan.action.name()
                    ));
                }
                // The whole chain can exceed a budget the per-class
                // chains fit in (and vice versa): a skip, not a bug.
                Err(e) if is_budget_error(&e) => skips.push(format!("{label} over budget: {e}")),
                Err(e) => {
                    return Outcome::Fail(format!(
                        "{label} errored where the planner-chosen {} succeeded: {e}",
                        plan.action.name()
                    ));
                }
            }
        }
        self.planner_verdict(compared, skips)
    }

    /// Pass if at least one forced path was compared; otherwise a skip
    /// carrying every reason no comparison was possible.
    fn planner_verdict(&self, compared: usize, skips: Vec<String>) -> Outcome {
        if compared > 0 {
            Outcome::Pass
        } else {
            Outcome::Skip(format!("no eligible exact path: {}", skips.join("; ")))
        }
    }
}

/// Whether `e` is a budget exhaustion rather than a genuine failure
/// (mirrors the planner's own fallback classification).
fn is_budget_error(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Datalog(DatalogError::BudgetExceeded { .. })
            | CoreError::Chain(pfq_markov::ChainError::StateLimitExceeded { .. })
            | CoreError::Algebra(pfq_algebra::AlgebraError::WorldLimitExceeded { .. })
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_set_parses() {
        let all = PathSet::parse("all").unwrap();
        assert!(all.inflationary && all.burn_in);
        let some = PathSet::parse("inflationary,sampling").unwrap();
        assert!(some.inflationary && some.sampling);
        assert!(!some.noninflationary && !some.partition && !some.burn_in);
        assert!(PathSet::parse("bogus").is_none());
    }

    #[test]
    fn check_names_are_stable() {
        for check in CheckId::ALL {
            assert!(!check.name().is_empty());
        }
    }
}
