//! The unified query engine: one request type, one planner, one
//! executor for every evaluation algorithm in the crate.
//!
//! The paper gives a trichotomy of evaluation paths — exact
//! (Prop. 4.4 / Thm. 5.5), `(ε, δ)`-approximate (Thm. 4.3 / Thm. 5.6)
//! and partitioned (§5.1) — and four PRs of infrastructure added caches,
//! solvers and sampling knobs to each. This module collapses the
//! resulting `evaluate_with_{cache,method,config,…}` matrix behind a
//! single pipeline:
//!
//! ```text
//! EvalRequest ──Planner──▶ Plan ──Engine──▶ EvalOutcome
//! ```
//!
//! * [`EvalRequest`] names the task (which query over which input) plus
//!   budgets, tolerances and sampling settings, built fluently.
//! * [`Planner`] analyzes the request — negation-freedom and §5.1
//!   partitioning eligibility, chain/tree size probes against the
//!   budgets, `auto_burn_in` wiring — and emits an explainable [`Plan`]
//!   with a deterministic [`Display`](std::fmt::Display) rendering.
//! * [`Engine`] executes any plan over its shared [`EvalCache`] and
//!   returns an [`EvalOutcome`]: the value, the plan actually taken,
//!   the sampling report (if any), cache statistics and wall time.
//!
//! Each exact action has exactly one implementation: the memoized
//! computation-tree traversal over the engine's [`EvalCache`], and the
//! interned chain solved by sparse GTH elimination. The planner chooses
//! between *algorithms* by eligibility, never between implementations
//! of the same one. `tests/engine_differential.rs` pins the engine
//! bit-for-bit against the un-memoized reference oracles.
//!
//! This is the same move safe-plan systems make for probabilistic
//! queries (the Dalvi–Suciu dichotomy: take the cheap path exactly when
//! the query is eligible for it), applied to this paper's
//! exact/approximate/partitioned trichotomy.

use crate::exact_inflationary::{self, enumerate_fixpoints_memo, ExactBudget};
use crate::exact_noninflationary::{self, ChainBudget};
use crate::sample_inflationary::{self, hoeffding_sample_count};
use crate::sampler::{SampleReport, SamplerConfig};
use crate::{mixing_sampler, partition, CacheStats, CoreError, DatalogQuery, EvalCache};
use pfq_ctable::PcDatabase;
use pfq_data::{Database, Schema};
use pfq_datalog::eval::idb_schema;
use pfq_num::Ratio;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::fmt;
use std::time::{Duration, Instant};

/// Node ceiling the planner probes exact inflationary evaluation with
/// when the request leaves the node budget unbounded.
pub const AUTO_NODE_CEILING: usize = 20_000;

/// Valuation ceiling up to which the planner picks exact evaluation for
/// pc-table inputs.
pub const AUTO_WORLD_CEILING: usize = 1_024;

/// Burn-in used by Thm 5.6 restart sampling when the mixing time cannot
/// be measured (chain over budget or not ergodic).
pub const DEFAULT_BURN_IN: usize = 50;

/// Step ceiling for the planner's `auto_burn_in` mixing-time search.
pub const AUTO_MIXING_MAX_T: usize = 10_000;

/// What is being evaluated: a query paired with its input. Requests
/// borrow the query and input, so building one is free.
#[derive(Clone, Copy, Debug)]
pub enum Task<'a> {
    /// §3.3 inflationary datalog semantics over a certain database.
    Inflationary {
        /// The program plus event.
        query: &'a DatalogQuery,
        /// The input database.
        db: &'a Database,
    },
    /// Inflationary semantics over a probabilistic c-table (§3.2).
    InflationaryPc {
        /// The program plus event.
        query: &'a DatalogQuery,
        /// The pc-table input.
        input: &'a PcDatabase,
    },
    /// §3.3 non-inflationary datalog semantics (translated to a
    /// forever-query over the prepared database).
    Noninflationary {
        /// The program plus event.
        query: &'a DatalogQuery,
        /// The input database.
        db: &'a Database,
    },
    /// A Definition 3.2 forever-query over a raw transition kernel.
    Forever {
        /// The kernel plus event.
        query: &'a crate::ForeverQuery,
        /// The input database.
        db: &'a Database,
    },
}

/// The task family, used in plans and error messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// Inflationary datalog over a certain database.
    Inflationary,
    /// Inflationary datalog over a pc-table.
    InflationaryPc,
    /// Non-inflationary datalog.
    Noninflationary,
    /// Forever-query over a raw kernel.
    Forever,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskKind::Inflationary => "inflationary datalog query",
            TaskKind::InflationaryPc => "inflationary datalog query over a pc-table",
            TaskKind::Noninflationary => "non-inflationary datalog query",
            TaskKind::Forever => "forever-query over a raw kernel",
        };
        f.write_str(s)
    }
}

/// A forever-query and the database its walk starts from, borrowed from
/// the request or owned after translation.
type ForeverInput<'a> = (Cow<'a, crate::ForeverQuery>, Cow<'a, Database>);

impl<'a> Task<'a> {
    /// The task family.
    pub fn kind(&self) -> TaskKind {
        match self {
            Task::Inflationary { .. } => TaskKind::Inflationary,
            Task::InflationaryPc { .. } => TaskKind::InflationaryPc,
            Task::Noninflationary { .. } => TaskKind::Noninflationary,
            Task::Forever { .. } => TaskKind::Forever,
        }
    }

    /// The forever-query the chain-based actions run on: a raw kernel as
    /// given, or non-inflationary datalog translated to one over its
    /// prepared database (§3.3). `None` for inflationary tasks.
    fn forever_query(&self) -> Result<Option<ForeverInput<'a>>, CoreError> {
        match *self {
            Task::Forever { query, db } => Ok(Some((Cow::Borrowed(query), Cow::Borrowed(db)))),
            Task::Noninflationary { query, db } => {
                let (fq, prepared) = query.to_forever_query(db).map_err(CoreError::Datalog)?;
                Ok(Some((Cow::Owned(fq), Cow::Owned(prepared))))
            }
            Task::Inflationary { .. } | Task::InflationaryPc { .. } => Ok(None),
        }
    }
}

/// The caller's strategy choice: [`Strategy::Auto`] lets the planner
/// pick; everything else forces one evaluation path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Let the planner choose by eligibility and budget probes.
    Auto,
    /// Prop. 4.4 exact computation-tree traversal.
    ExactTree,
    /// Thm. 4.3 `(ε, δ)`-sampling (ε/δ from the request).
    SampleFixpoint,
    /// Thm. 5.5 explicit chain plus exact long-run solve.
    ExactChain,
    /// §5.1 provenance partitioning (negation-free datalog only).
    Partitioned,
    /// Single-walk time average over a fixed step count.
    TimeAverage {
        /// Kernel steps to walk.
        steps: usize,
    },
    /// Thm. 5.6 restart sampling; `burn_in: None` asks the planner to
    /// measure the mixing time ([`mixing_sampler::auto_burn_in`]).
    BurnInSample {
        /// Kernel steps per sample before observing, if fixed.
        burn_in: Option<usize>,
    },
}

/// One evaluation request: a task plus every knob the evaluators take.
///
/// Built fluently:
///
/// ```
/// # use pfq_core::engine::{EvalRequest, Strategy};
/// # use pfq_core::{DatalogQuery, Event};
/// # use pfq_data::{tuple, Database};
/// let query = DatalogQuery::parse("C(v).", Event::tuple_in("C", tuple!["v"])).unwrap();
/// let db = Database::new();
/// let request = EvalRequest::inflationary(&query, &db)
///     .with_strategy(Strategy::Auto)
///     .with_seed(7);
/// ```
#[derive(Clone, Debug)]
pub struct EvalRequest<'a> {
    task: Task<'a>,
    strategy: Strategy,
    exact_budget: ExactBudget,
    chain_budget: ChainBudget,
    seed: u64,
    threads: usize,
    adaptive: bool,
    epsilon: f64,
    delta: f64,
}

impl<'a> EvalRequest<'a> {
    fn new(task: Task<'a>) -> EvalRequest<'a> {
        EvalRequest {
            task,
            strategy: Strategy::Auto,
            exact_budget: ExactBudget::default(),
            chain_budget: ChainBudget::default(),
            seed: 0,
            threads: 0,
            adaptive: true,
            epsilon: 0.05,
            delta: 0.05,
        }
    }

    /// An inflationary datalog request over a certain database.
    pub fn inflationary(query: &'a DatalogQuery, db: &'a Database) -> EvalRequest<'a> {
        EvalRequest::new(Task::Inflationary { query, db })
    }

    /// An inflationary datalog request over a pc-table input.
    pub fn inflationary_pc(query: &'a DatalogQuery, input: &'a PcDatabase) -> EvalRequest<'a> {
        EvalRequest::new(Task::InflationaryPc { query, input })
    }

    /// A non-inflationary datalog request (translated to a forever-query
    /// during planning/execution).
    pub fn noninflationary(query: &'a DatalogQuery, db: &'a Database) -> EvalRequest<'a> {
        EvalRequest::new(Task::Noninflationary { query, db })
    }

    /// A forever-query request over a raw kernel.
    pub fn forever(query: &'a crate::ForeverQuery, db: &'a Database) -> EvalRequest<'a> {
        EvalRequest::new(Task::Forever { query, db })
    }

    /// The task under evaluation.
    pub fn task(&self) -> &Task<'a> {
        &self.task
    }

    /// Forces (or un-forces, with [`Strategy::Auto`]) a strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the exact inflationary budget: tree nodes, plus variable
    /// valuations for a pc-table input.
    pub fn with_exact_budget(mut self, budget: ExactBudget) -> Self {
        self.exact_budget = budget;
        self
    }

    /// Sets the explicit-chain budget (states/worlds per step).
    pub fn with_chain_budget(mut self, budget: ChainBudget) -> Self {
        self.chain_budget = budget;
        self
    }

    /// Sets the root seed for every sampling path (same seed ⇒
    /// bit-identical estimates at any thread count).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sampling worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables adaptive early stopping for sampling paths.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Sets the `(ε, δ)` tolerance used by sampling strategies (and by
    /// the planner's sampling fallbacks).
    pub fn with_epsilon_delta(mut self, epsilon: f64, delta: f64) -> Self {
        self.epsilon = epsilon;
        self.delta = delta;
        self
    }

    /// The execution settings of a sampling run under `seed`.
    fn sampler_config(&self, seed: u64) -> SamplerConfig {
        SamplerConfig {
            seed,
            threads: self.threads,
            adaptive: self.adaptive,
            ..SamplerConfig::default()
        }
    }
}

/// The concrete action a plan executes — one per evaluation algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanAction {
    /// Prop. 4.4 exact computation-tree traversal.
    ExactTree {
        /// The traversal's budget, summed over a pc-table's worlds.
        budget: ExactBudget,
    },
    /// Thm. 4.3 `(ε, δ)`-sampling.
    SampleFixpoint {
        /// Absolute error bound.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
        /// The Hoeffding worst-case sample count.
        worst_case: usize,
        /// Root RNG seed.
        seed: u64,
    },
    /// Thm. 5.5 explicit chain plus exact long-run solve (sparse GTH).
    ExactChain {
        /// State/world budgets for chain construction.
        budget: ChainBudget,
    },
    /// §5.1 partitioned evaluation, one chain per independence class.
    Partitioned {
        /// Number of independence classes.
        classes: usize,
        /// Per-class chain budget.
        budget: ChainBudget,
    },
    /// Single-walk time average.
    TimeAverage {
        /// Kernel steps to walk.
        steps: usize,
        /// Walk RNG seed.
        seed: u64,
    },
    /// Thm. 5.6 restart sampling.
    BurnInSample {
        /// Kernel steps per sample before observing.
        burn_in: usize,
        /// Absolute error bound.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
        /// The Hoeffding worst-case sample count.
        worst_case: usize,
        /// Root RNG seed.
        seed: u64,
    },
}

impl PlanAction {
    /// Stable kebab-case name of the action.
    pub fn name(&self) -> &'static str {
        match self {
            PlanAction::ExactTree { .. } => "exact-tree",
            PlanAction::SampleFixpoint { .. } => "sample-fixpoint",
            PlanAction::ExactChain { .. } => "exact-chain",
            PlanAction::Partitioned { .. } => "partitioned",
            PlanAction::TimeAverage { .. } => "time-average",
            PlanAction::BurnInSample { .. } => "burn-in-sample",
        }
    }

    /// Whether executing this action yields an exact [`Ratio`].
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            PlanAction::ExactTree { .. }
                | PlanAction::ExactChain { .. }
                | PlanAction::Partitioned { .. }
        )
    }
}

/// An explainable evaluation plan: the chosen action plus the planner's
/// notes on why it was chosen. `Display` renders a deterministic,
/// golden-testable tree (no wall times, no addresses).
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The task family the plan was made for.
    pub task: TaskKind,
    /// The action to execute.
    pub action: PlanAction,
    /// Human-readable eligibility notes, in planning order.
    pub notes: Vec<String>,
}

impl Plan {
    /// The rendered plan, line by line (no trailing newline).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let headline = match &self.action {
            PlanAction::ExactTree { .. } => "exact-tree (Prop 4.4 computation-tree traversal)",
            PlanAction::SampleFixpoint { .. } => "sample-fixpoint (Thm 4.3 (ε, δ)-sampling)",
            PlanAction::ExactChain { .. } => {
                "exact-chain (Thm 5.5 explicit chain + exact long-run solve)"
            }
            PlanAction::Partitioned { .. } => "partitioned (§5.1 provenance partitioning)",
            PlanAction::TimeAverage { .. } => "time-average (single-walk baseline)",
            PlanAction::BurnInSample { .. } => "burn-in-sample (Thm 5.6 restart sampling)",
        };
        out.push(format!("plan: {headline}"));
        out.push(format!("  task: {}", self.task));
        match &self.action {
            PlanAction::ExactTree { budget } => {
                let limit = budget
                    .node_budget
                    .map_or("unbounded".to_string(), |n| n.to_string());
                out.push(format!("  node budget: {limit}"));
            }
            PlanAction::SampleFixpoint {
                epsilon,
                delta,
                worst_case,
                seed,
            } => {
                out.push(format!(
                    "  ε = {epsilon}, δ = {delta} → ≤{worst_case} samples"
                ));
                out.push(format!("  seed: {seed}"));
            }
            PlanAction::ExactChain { budget } => {
                out.push(format!(
                    "  chain budget: ≤{} states, ≤{} worlds/step",
                    budget.max_states, budget.world_limit
                ));
                out.push("  stationary solver: gth".to_string());
            }
            PlanAction::Partitioned { classes, budget } => {
                out.push(format!("  classes: {classes}"));
                out.push(format!(
                    "  per-class chain budget: ≤{} states, ≤{} worlds/step",
                    budget.max_states, budget.world_limit
                ));
                out.push("  stationary solver: gth".to_string());
            }
            PlanAction::TimeAverage { steps, seed } => {
                out.push(format!("  steps: {steps}"));
                out.push(format!("  seed: {seed}"));
            }
            PlanAction::BurnInSample {
                burn_in,
                epsilon,
                delta,
                worst_case,
                seed,
            } => {
                out.push(format!("  burn-in: {burn_in} steps"));
                out.push(format!(
                    "  ε = {epsilon}, δ = {delta} → ≤{worst_case} samples"
                ));
                out.push(format!("  seed: {seed}"));
            }
        }
        if !self.notes.is_empty() {
            out.push("  notes:".to_string());
            for note in &self.notes {
                out.push(format!("    - {note}"));
            }
        }
        out
    }
}

impl fmt::Display for Plan {
    /// Writes [`Plan::lines`] joined by newlines, with no trailing
    /// newline (callers add their own indentation).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, line) in self.lines().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            f.write_str(line)?;
        }
        Ok(())
    }
}

/// An evaluation result: exact rational or sampled estimate.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalValue {
    /// An exact probability.
    Exact(Ratio),
    /// A sampled estimate.
    Estimate(f64),
}

impl EvalValue {
    /// The value as a float (exact results converted).
    pub fn to_f64(&self) -> f64 {
        match self {
            EvalValue::Exact(r) => r.to_f64(),
            EvalValue::Estimate(e) => *e,
        }
    }

    /// The exact rational, if the plan produced one.
    pub fn exact(&self) -> Option<&Ratio> {
        match self {
            EvalValue::Exact(r) => Some(r),
            EvalValue::Estimate(_) => None,
        }
    }
}

impl fmt::Display for EvalValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalValue::Exact(r) => write!(f, "{r}"),
            EvalValue::Estimate(e) => write!(f, "{e}"),
        }
    }
}

/// The outcome of one engine run: the value, the plan actually taken,
/// the sampling report (for sampling plans), cache statistics after the
/// run, and wall-clock accounting.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// The evaluation result.
    pub value: EvalValue,
    /// The plan that was executed.
    pub plan: Plan,
    /// The sampling engine's report, for sampling plans.
    pub report: Option<SampleReport>,
    /// Cumulative cache statistics of the engine after this run.
    pub stats: CacheStats,
    /// Wall time of the call that produced the outcome: planning plus
    /// execution for [`Engine::run`], execution only for
    /// [`Engine::execute`] (its plan was made beforehand).
    pub wall: Duration,
}

impl EvalOutcome {
    /// Unwraps an exact result (error if the plan sampled instead —
    /// cannot happen for forced exact strategies).
    pub fn into_exact(self) -> Result<Ratio, CoreError> {
        match self.value {
            EvalValue::Exact(r) => Ok(r),
            EvalValue::Estimate(_) => Err(CoreError::BadParameter(format!(
                "plan {} produced an estimate, not an exact result",
                self.plan.action.name()
            ))),
        }
    }

    /// Unwraps the sampling report (error if the plan was exact).
    pub fn into_report(self) -> Result<SampleReport, CoreError> {
        self.report.ok_or_else(|| {
            CoreError::BadParameter(format!(
                "plan {} produced no sampling report",
                self.plan.action.name()
            ))
        })
    }
}

/// The planner: pure analysis from request (plus cache, for probes whose
/// work the executor then reuses) to [`Plan`]. Deterministic: the same
/// request always yields the same plan, warm or cold cache.
///
/// Planning has two steps. Under [`Strategy::Auto`], `choose` probes the
/// task and settles on a strategy; a caller-fixed strategy skips it.
/// Either way, `build` turns the strategy into its [`PlanAction`], and is
/// the one place an action is made.
pub struct Planner;

/// A strategy the planner settled on, the notes saying why, and what
/// settling on it already measured, so that `build` repeats no analysis.
struct Choice {
    strategy: Strategy,
    notes: Vec<String>,
    /// The budget an exact-tree action runs under.
    exact_budget: ExactBudget,
    /// The §5.1 independence-class count, if choosing counted it.
    classes: Option<usize>,
}

impl Choice {
    /// A choice with nothing measured on the way.
    fn of(strategy: Strategy, request: &EvalRequest<'_>, notes: Vec<String>) -> Choice {
        Choice {
            strategy,
            notes,
            exact_budget: request.exact_budget,
            classes: None,
        }
    }
}

impl Planner {
    /// Plans `request`. Probes run through `cache`, so exact work done
    /// while planning is reused by the executor. A task whose event its
    /// input cannot answer is rejected here ([`crate::Event::check`]):
    /// a kernel or non-inflationary event is checked against the
    /// (prepared) start database, an inflationary one against the input
    /// plus the program's IDB relations.
    pub fn plan(request: &EvalRequest<'_>, cache: &mut EvalCache) -> Result<Plan, CoreError> {
        let forever = request.task.forever_query()?;
        match request.task {
            Task::Inflationary { query, db } => {
                check_inflationary_event(query, &|name| db.get(name).map(|r| r.schema().clone()))?
            }
            Task::InflationaryPc { query, input } => {
                check_inflationary_event(query, &|name| input.schema(name).cloned())?
            }
            _ => {
                if let Some((fq, db)) = &forever {
                    fq.event.check(db)?;
                }
            }
        }
        let choice = match request.strategy {
            Strategy::Auto => Self::choose(request, forever.as_ref(), cache)?,
            fixed => Choice::of(fixed, request, vec!["strategy fixed by caller".to_string()]),
        };
        Self::build(request, choice, forever, cache)
    }

    /// Settles [`Strategy::Auto`] by eligibility and budget probes.
    /// `forever` is the task's forever-query, translated once by
    /// [`Planner::plan`].
    fn choose(
        request: &EvalRequest<'_>,
        forever: Option<&ForeverInput<'_>>,
        cache: &mut EvalCache,
    ) -> Result<Choice, CoreError> {
        let mut notes = Vec::new();
        let auto_nodes = request
            .exact_budget
            .node_budget
            .unwrap_or(AUTO_NODE_CEILING);
        match request.task {
            Task::Inflationary { query, db } => {
                let probe = enumerate_fixpoints_memo(&query.program, db, Some(auto_nodes), cache);
                let strategy = match probe.map_err(CoreError::Datalog) {
                    Ok(_) => {
                        notes.push(format!(
                            "computation tree fits within the {auto_nodes}-node probe"
                        ));
                        Strategy::ExactTree
                    }
                    Err(e) if e.is_budget_exceeded() => {
                        notes.push(format!(
                            "computation tree exceeds the {auto_nodes}-node probe; \
                             falling back to Thm 4.3 sampling"
                        ));
                        Strategy::SampleFixpoint
                    }
                    Err(e) => return Err(e),
                };
                return Ok(Choice::of(strategy, request, notes));
            }
            Task::InflationaryPc { input, .. } => {
                let estimate = input.valuation_count();
                let cap = AUTO_WORLD_CEILING;
                if estimate > cap {
                    notes.push(format!(
                        "estimated ≤{estimate} pc-table worlds exceed the cap {cap}; \
                         falling back to Thm 4.3 sampling"
                    ));
                    return Ok(Choice::of(Strategy::SampleFixpoint, request, notes));
                }
                notes.push(format!("pc-table worlds: ≤{estimate} (cap {cap})"));
                // No probe bounds the tree, so the run itself is bounded.
                return Ok(Choice {
                    exact_budget: ExactBudget {
                        node_budget: Some(auto_nodes),
                    },
                    ..Choice::of(Strategy::ExactTree, request, notes)
                });
            }
            Task::Noninflationary { query, db } => {
                if query.program.has_negation() {
                    notes.push("program uses negation: §5.1 partitioning ineligible".to_string());
                } else {
                    let classes = partition::partition_classes(&query.program, db)?.len();
                    if classes >= 2 {
                        notes.push(format!(
                            "program is negation-free: {classes} independence classes"
                        ));
                        return Ok(Choice {
                            classes: Some(classes),
                            ..Choice::of(Strategy::Partitioned, request, notes)
                        });
                    }
                    notes.push(
                        "program is negation-free but has a single independence class".to_string(),
                    );
                }
            }
            Task::Forever { .. } => {}
        }
        // Explicit-chain probe: the Thm 5.5 exact solve when the chain
        // fits, Thm 5.6 restart sampling otherwise. A chain whose
        // long-run distribution is memoized is not explored again; its
        // size still decides, so the memo never changes the choice.
        let (fq, db) = forever.expect("a chain task has a forever-query");
        let budget = request.chain_budget;
        let explored = match exact_noninflationary::memoized_states(fq, db, cache)? {
            Some(states) if states <= budget.max_states => Ok(states),
            _ => exact_noninflationary::build_chain_interned(fq, db, budget, cache)
                .map(|chain| chain.len()),
        };
        let strategy = match explored {
            Ok(states) => {
                notes.push(format!(
                    "explicit chain fits: {states} states (≤{} budget)",
                    budget.max_states
                ));
                Strategy::ExactChain
            }
            Err(e) if e.is_budget_exceeded() => {
                notes.push(format!(
                    "explicit chain over budget ({e}); falling back to Thm 5.6 restart \
                     sampling with default burn-in {DEFAULT_BURN_IN}"
                ));
                Strategy::BurnInSample {
                    burn_in: Some(DEFAULT_BURN_IN),
                }
            }
            Err(e) => return Err(e),
        };
        Ok(Choice::of(strategy, request, notes))
    }

    /// Turns a strategy, chosen or caller-fixed, into its plan action;
    /// a strategy that does not apply to the task is rejected here.
    /// `BurnInSample { burn_in: None }` has its burn-in measured, and the
    /// measurement's note follows the choice's notes.
    fn build(
        request: &EvalRequest<'_>,
        choice: Choice,
        forever: Option<ForeverInput<'_>>,
        cache: &mut EvalCache,
    ) -> Result<Plan, CoreError> {
        let Choice {
            strategy,
            mut notes,
            exact_budget,
            classes,
        } = choice;
        let (epsilon, delta, seed) = (request.epsilon, request.delta, request.seed);
        let worst_case = || hoeffding_sample_count(epsilon, delta);
        let budget = request.chain_budget;
        let action = match (strategy, &request.task) {
            (Strategy::Auto, _) => unreachable!("Planner::plan chooses before building"),
            (Strategy::ExactTree, Task::Inflationary { .. } | Task::InflationaryPc { .. }) => {
                PlanAction::ExactTree {
                    budget: exact_budget,
                }
            }
            (Strategy::SampleFixpoint, Task::Inflationary { .. } | Task::InflationaryPc { .. }) => {
                PlanAction::SampleFixpoint {
                    epsilon,
                    delta,
                    worst_case: worst_case()?,
                    seed,
                }
            }
            (Strategy::ExactChain, Task::Noninflationary { .. } | Task::Forever { .. }) => {
                PlanAction::ExactChain { budget }
            }
            (Strategy::Partitioned, Task::Noninflationary { query, db }) => {
                let classes = match classes {
                    Some(classes) => classes,
                    None => partition::partition_classes(&query.program, db)?.len(),
                };
                PlanAction::Partitioned { classes, budget }
            }
            (
                Strategy::TimeAverage { steps },
                Task::Noninflationary { .. } | Task::Forever { .. },
            ) => PlanAction::TimeAverage { steps, seed },
            (
                Strategy::BurnInSample { burn_in },
                Task::Noninflationary { .. } | Task::Forever { .. },
            ) => {
                let worst_case = worst_case()?;
                let burn_in = match burn_in {
                    Some(b) => b,
                    None => {
                        let (fq, db) = forever.expect("a chain task has a forever-query");
                        Self::auto_burn_in(request, &fq, &db, cache, &mut notes)?
                    }
                };
                PlanAction::BurnInSample {
                    burn_in,
                    epsilon,
                    delta,
                    worst_case,
                    seed,
                }
            }
            (strategy, task) => {
                return Err(CoreError::BadParameter(format!(
                    "strategy {} does not apply to a {}",
                    strategy_name(strategy),
                    task.kind()
                )))
            }
        };
        Ok(Plan {
            task: request.task.kind(),
            action,
            notes,
        })
    }

    /// Measures the mixing time for a burn-in request with no explicit
    /// depth, falling back to [`DEFAULT_BURN_IN`] when the chain is over
    /// budget or not ergodic. The chain is explored through `cache`, so
    /// its kernel rows serve later exact chain runs.
    fn auto_burn_in(
        request: &EvalRequest<'_>,
        fq: &crate::ForeverQuery,
        db: &Database,
        cache: &mut EvalCache,
        notes: &mut Vec<String>,
    ) -> Result<usize, CoreError> {
        match mixing_sampler::auto_burn_in(
            fq,
            db,
            request.epsilon,
            AUTO_MIXING_MAX_T,
            request.chain_budget,
            cache,
        ) {
            Ok(Some(t)) => {
                notes.push(format!(
                    "auto burn-in: t({}) = {t} measured on the explicit chain",
                    request.epsilon
                ));
                Ok(t)
            }
            Ok(None) => {
                notes.push(format!(
                    "chain does not mix within {AUTO_MIXING_MAX_T} steps; \
                     using default burn-in {DEFAULT_BURN_IN}"
                ));
                Ok(DEFAULT_BURN_IN)
            }
            Err(e) if e.is_budget_exceeded() => {
                notes.push(format!(
                    "mixing time unavailable ({e}); using default burn-in {DEFAULT_BURN_IN}"
                ));
                Ok(DEFAULT_BURN_IN)
            }
            Err(e) => Err(e),
        }
    }
}

/// The kebab-case name of a forced strategy, as its plan action is named.
fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Auto => "auto",
        Strategy::ExactTree => "exact-tree",
        Strategy::SampleFixpoint => "sample-fixpoint",
        Strategy::ExactChain => "exact-chain",
        Strategy::Partitioned => "partitioned",
        Strategy::TimeAverage { .. } => "time-average",
        Strategy::BurnInSample { .. } => "burn-in-sample",
    }
}

/// Checks an inflationary query's event against the relations `input`
/// holds, then the program's IDB relations as
/// [`prepare_database`](pfq_datalog::eval::prepare_database) declares them.
fn check_inflationary_event(
    query: &DatalogQuery,
    input: &dyn Fn(&str) -> Option<Schema>,
) -> Result<(), CoreError> {
    let idb = query.program.idb_arities()?;
    query.event.check_in(&|name| {
        input(name).or_else(|| {
            idb.iter()
                .find(|(relation, _)| relation == name)
                .map(|&(_, arity)| idb_schema(arity))
        })
    })
}

/// The engine: owns the shared [`EvalCache`] and executes plans.
pub struct Engine {
    cache: EvalCache,
}

impl Engine {
    /// An engine with a fresh cache.
    pub fn new() -> Engine {
        Engine {
            cache: EvalCache::default(),
        }
    }

    /// Cumulative cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Plans `request` without executing it (the `pfq plan` entry
    /// point). Probes warm the engine's cache, so a following
    /// [`Engine::run`] reuses their work.
    pub fn plan(&mut self, request: &EvalRequest<'_>) -> Result<Plan, CoreError> {
        Planner::plan(request, &mut self.cache)
    }

    /// Plans and executes `request`. The outcome's wall time covers
    /// both phases.
    pub fn run(&mut self, request: &EvalRequest<'_>) -> Result<EvalOutcome, CoreError> {
        let start = Instant::now();
        let plan = Planner::plan(request, &mut self.cache)?;
        let (value, report) = execute_action(request, &plan, &mut self.cache)?;
        Ok(EvalOutcome {
            value,
            plan,
            report,
            stats: self.cache.stats(),
            wall: start.elapsed(),
        })
    }

    /// Executes a previously computed plan (plans are self-contained —
    /// re-planning is not needed, only plan/task compatibility). The
    /// outcome's wall time covers execution only.
    pub fn execute(
        &mut self,
        request: &EvalRequest<'_>,
        plan: &Plan,
    ) -> Result<EvalOutcome, CoreError> {
        let start = Instant::now();
        let (value, report) = execute_action(request, plan, &mut self.cache)?;
        Ok(EvalOutcome {
            value,
            plan: plan.clone(),
            report,
            stats: self.cache.stats(),
            wall: start.elapsed(),
        })
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Executes one plan action over the given cache. Every arm delegates to
/// the one primitive implementing that action's algorithm. The plan
/// fixes ε, δ and the seed; the request adds only the execution settings
/// (threads, adaptive stopping).
fn execute_action(
    request: &EvalRequest<'_>,
    plan: &Plan,
    cache: &mut EvalCache,
) -> Result<(EvalValue, Option<SampleReport>), CoreError> {
    let task = &request.task;
    let forever = || {
        task.forever_query()?
            .ok_or_else(|| plan_mismatch(&plan.action, task))
    };
    match (&plan.action, &request.task) {
        (PlanAction::ExactTree { budget }, Task::Inflationary { query, db }) => {
            let p = exact_inflationary::evaluate(query, db, *budget, cache)?;
            Ok((EvalValue::Exact(p), None))
        }
        (PlanAction::ExactTree { budget }, Task::InflationaryPc { query, input }) => {
            let p = exact_inflationary::evaluate_pc(query, input, *budget, cache)?;
            Ok((EvalValue::Exact(p), None))
        }
        (
            PlanAction::SampleFixpoint {
                epsilon,
                delta,
                seed,
                ..
            },
            Task::Inflationary { query, db },
        ) => {
            let config = request.sampler_config(*seed);
            let report =
                sample_inflationary::evaluate_with_config(query, db, *epsilon, *delta, &config)?;
            Ok((EvalValue::Estimate(report.estimate), Some(report)))
        }
        (
            PlanAction::SampleFixpoint {
                epsilon,
                delta,
                seed,
                ..
            },
            Task::InflationaryPc { query, input },
        ) => {
            let config = request.sampler_config(*seed);
            let report = sample_inflationary::evaluate_pc_with_config(
                query, input, *epsilon, *delta, &config,
            )?;
            Ok((EvalValue::Estimate(report.estimate), Some(report)))
        }
        (PlanAction::ExactChain { budget }, _) => {
            let (fq, db) = forever()?;
            let p = exact_noninflationary::evaluate(&fq, &db, *budget, cache)?;
            Ok((EvalValue::Exact(p), None))
        }
        (PlanAction::Partitioned { budget, .. }, Task::Noninflationary { query, db }) => {
            let p = partition::evaluate_partitioned(query, db, *budget, cache)?;
            Ok((EvalValue::Exact(p), None))
        }
        (PlanAction::TimeAverage { steps, seed }, _) => {
            let (fq, db) = forever()?;
            let mut rng = ChaCha8Rng::seed_from_u64(*seed);
            let avg = mixing_sampler::evaluate_time_average(&fq, &db, *steps, &mut rng)?;
            Ok((EvalValue::Estimate(avg), None))
        }
        (
            PlanAction::BurnInSample {
                burn_in,
                epsilon,
                delta,
                seed,
                ..
            },
            _,
        ) => {
            let (fq, db) = forever()?;
            let config = request.sampler_config(*seed);
            let report = mixing_sampler::evaluate_with_burn_in_config(
                &fq, &db, *burn_in, *epsilon, *delta, &config,
            )?;
            Ok((EvalValue::Estimate(report.estimate), Some(report)))
        }
        (action, task) => Err(plan_mismatch(action, task)),
    }
}

/// The error for a plan executed against a task it was not made for.
fn plan_mismatch(action: &PlanAction, task: &Task<'_>) -> CoreError {
    CoreError::BadParameter(format!(
        "plan {} does not match a {}",
        action.name(),
        task.kind()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{coin_db, coin_edge, coin_program, fork_db, lazy_flip, reach_query};
    use crate::Event;
    use pfq_data::tuple;

    /// Two independent weighted coins: negation-free, two independence
    /// classes.
    fn coin_case() -> (DatalogQuery, Database) {
        let event = Event::tuple_in("H", tuple![1, 1]);
        (DatalogQuery::new(coin_program(), event), coin_db())
    }

    #[test]
    fn auto_inflationary_picks_exact_tree_when_small() {
        let query = reach_query("w");
        let db = fork_db();
        let mut engine = Engine::new();
        let outcome = engine.run(&EvalRequest::inflationary(&query, &db)).unwrap();
        assert!(matches!(outcome.plan.action, PlanAction::ExactTree { .. }));
        assert_eq!(outcome.value, EvalValue::Exact(Ratio::new(1, 2)));
        // The probe evaluated the tree, so execution was a memo hit.
        assert_eq!(outcome.stats.result_hits, 1);
    }

    #[test]
    fn auto_inflationary_falls_back_to_sampling_over_budget() {
        let query = reach_query("w");
        let db = fork_db();
        let mut engine = Engine::new();
        let request = EvalRequest::inflationary(&query, &db)
            .with_exact_budget(ExactBudget {
                node_budget: Some(1),
            })
            .with_epsilon_delta(0.2, 0.1)
            .with_seed(3)
            .with_threads(1);
        let outcome = engine.run(&request).unwrap();
        assert!(matches!(
            outcome.plan.action,
            PlanAction::SampleFixpoint { .. }
        ));
        let report = outcome.report.expect("sampling plan carries a report");
        assert!((report.estimate - 0.5).abs() < 0.2);
    }

    #[test]
    fn inflationary_events_are_checked_against_input_and_idb() {
        let program = reach_query("w").program;
        let mut input = coin_edge();
        input.add_certain("D", pfq_data::Relation::empty(Schema::new(["n"])));
        let db = fork_db();
        let check = |event: Event| {
            let query = DatalogQuery::new(program.clone(), event);
            let certain = Engine::new().plan(&EvalRequest::inflationary(&query, &db));
            let pc = Engine::new().plan(&EvalRequest::inflationary_pc(&query, &input));
            (
                certain.map(|_| ()).map_err(|e| e.to_string()),
                pc.map(|_| ()).map_err(|e| e.to_string()),
            )
        };
        for event in [
            Event::tuple_in("E", tuple!["v", "w", 1]),
            Event::tuple_in("C", tuple!["w"]),
            Event::non_empty("C2"),
        ] {
            assert_eq!(check(event), (Ok(()), Ok(())));
        }
        // A certain relation of the pc-table input.
        assert!(check(Event::non_empty("D")).1.is_ok());
        let unknown = Err("bad event: no relation named \"Colour\"".to_string());
        assert_eq!(
            check(Event::tuple_in("Colour", tuple!["v"])),
            (unknown.clone(), unknown)
        );
        let idb_arity = Err("bad event: tuple (v, w) has arity 2, but C(c0) has arity 1".into());
        assert_eq!(
            check(Event::tuple_in("C", tuple!["v", "w"])),
            (idb_arity.clone(), idb_arity)
        );
        let edb_arity = Err("bad event: tuple (v) has arity 1, but E(i, j, p) has arity 3".into());
        assert_eq!(
            check(Event::tuple_in("E", tuple!["v"])),
            (edb_arity.clone(), edb_arity)
        );
    }

    #[test]
    fn auto_noninflationary_prefers_partitioning() {
        let (query, db) = coin_case();
        let mut engine = Engine::new();
        let outcome = engine
            .run(&EvalRequest::noninflationary(&query, &db))
            .unwrap();
        assert!(matches!(
            outcome.plan.action,
            PlanAction::Partitioned { classes: 2, .. }
        ));
        assert_eq!(outcome.value, EvalValue::Exact(Ratio::new(3, 4)));
    }

    #[test]
    fn auto_never_partitions_negation() {
        let program = pfq_datalog::parse_program(
            "H(K!, V) @W :- R(K, V, W).\nM(K, V) :- R(K, V, W), not H(K, V).",
        )
        .unwrap();
        let (_, db) = coin_case();
        let query = DatalogQuery::new(program, Event::tuple_in("H", tuple![1, 1]));
        let mut engine = Engine::new();
        let plan = engine
            .plan(&EvalRequest::noninflationary(&query, &db))
            .unwrap();
        assert!(!matches!(plan.action, PlanAction::Partitioned { .. }));
        assert!(
            plan.notes.iter().any(|n| n.contains("negation")),
            "{:?}",
            plan.notes
        );
    }

    #[test]
    fn auto_chain_over_budget_falls_back_to_burn_in() {
        let (query, db) = coin_case();
        let mut engine = Engine::new();
        // One class would partition; force the whole-chain probe by
        // using the kernel task, with a 1-state budget.
        let (fq, prepared) = query.to_forever_query(&db).unwrap();
        let request = EvalRequest::forever(&fq, &prepared)
            .with_chain_budget(ChainBudget {
                max_states: 1,
                world_limit: 100_000,
            })
            .with_epsilon_delta(0.2, 0.1)
            .with_seed(5)
            .with_threads(1);
        let outcome = engine.run(&request).unwrap();
        match outcome.plan.action {
            PlanAction::BurnInSample { burn_in, .. } => assert_eq!(burn_in, DEFAULT_BURN_IN),
            ref other => panic!("expected burn-in fallback, got {other:?}"),
        }
        assert!(outcome.report.is_some());
    }

    #[test]
    fn forced_strategy_mismatch_is_rejected() {
        let (query, db) = coin_case();
        let (fq, prepared) = query.to_forever_query(&db).unwrap();
        let mut engine = Engine::new();
        let err = engine
            .run(&EvalRequest::forever(&fq, &prepared).with_strategy(Strategy::ExactTree))
            .unwrap_err();
        assert!(matches!(err, CoreError::BadParameter(_)), "{err}");
        let err = engine
            .run(&EvalRequest::inflationary(&query, &db).with_strategy(Strategy::Partitioned))
            .unwrap_err();
        assert!(matches!(err, CoreError::BadParameter(_)), "{err}");
    }

    #[test]
    fn forced_burn_in_auto_measures_mixing_time() {
        let (fq, db) = lazy_flip();
        let mut engine = Engine::new();
        let plan = engine
            .plan(
                &EvalRequest::forever(&fq, &db)
                    .with_strategy(Strategy::BurnInSample { burn_in: None })
                    .with_epsilon_delta(0.03125, 0.05),
            )
            .unwrap();
        match plan.action {
            PlanAction::BurnInSample { burn_in, .. } => assert_eq!(burn_in, 4),
            ref other => panic!("expected burn-in plan, got {other:?}"),
        }
        assert!(plan.notes.iter().any(|n| n.contains("auto burn-in")));
    }

    #[test]
    fn burn_in_probe_warms_the_kernel_cache() {
        let (fq, db) = lazy_flip();
        let mut engine = Engine::new();
        engine
            .plan(
                &EvalRequest::forever(&fq, &db)
                    .with_strategy(Strategy::BurnInSample { burn_in: None })
                    .with_epsilon_delta(0.03125, 0.05),
            )
            .unwrap();
        let probed = engine.stats();
        assert!(probed.kernel_misses > 0, "{probed:?}");
        // The exact chain over the same kernel reuses every probed row.
        let outcome = engine
            .run(&EvalRequest::forever(&fq, &db).with_strategy(Strategy::ExactChain))
            .unwrap();
        assert_eq!(outcome.value, EvalValue::Exact(Ratio::new(1, 2)));
        assert!(outcome.stats.kernel_hits > probed.kernel_hits);
        assert_eq!(outcome.stats.kernel_misses, probed.kernel_misses);
    }

    #[test]
    fn plans_are_deterministic_and_cache_warmth_invariant() {
        let (query, db) = coin_case();
        let mut engine = Engine::new();
        let request = EvalRequest::noninflationary(&query, &db);
        let cold = engine.plan(&request).unwrap();
        engine.run(&request).unwrap();
        let warm = engine.plan(&request).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    fn plan_display_is_stable() {
        let plan = Plan {
            task: TaskKind::Noninflationary,
            action: PlanAction::ExactChain {
                budget: ChainBudget::default(),
            },
            notes: vec!["explicit chain fits: 3 states (≤100000 budget)".into()],
        };
        assert_eq!(
            plan.to_string(),
            "plan: exact-chain (Thm 5.5 explicit chain + exact long-run solve)\n\
             \x20 task: non-inflationary datalog query\n\
             \x20 chain budget: ≤100000 states, ≤100000 worlds/step\n\
             \x20 stationary solver: gth\n\
             \x20 notes:\n\
             \x20   - explicit chain fits: 3 states (≤100000 budget)"
        );
    }

    #[test]
    fn execute_reruns_a_plan() {
        let query = reach_query("w");
        let db = fork_db();
        let mut engine = Engine::new();
        let request = EvalRequest::inflationary(&query, &db).with_strategy(Strategy::ExactTree);
        let first = engine.run(&request).unwrap();
        let second = engine.execute(&request, &first.plan).unwrap();
        assert_eq!(first.value, second.value);
        // Mismatched plan/task pairs are rejected.
        let (cq, cdb) = coin_case();
        let bad = EvalRequest::noninflationary(&cq, &cdb);
        assert!(engine.execute(&bad, &first.plan).is_err());
    }

    #[test]
    fn auto_bounds_exact_pc_runs() {
        let query = reach_query("w");
        let input = coin_edge();
        let mut engine = Engine::new();
        let outcome = engine
            .run(&EvalRequest::inflationary_pc(&query, &input))
            .unwrap();
        let bounded = ExactBudget {
            node_budget: Some(AUTO_NODE_CEILING),
        };
        assert_eq!(
            outcome.plan.action,
            PlanAction::ExactTree { budget: bounded }
        );
        assert_eq!(outcome.value, EvalValue::Exact(Ratio::new(1, 2)));
        // A node budget the caller set is kept.
        let own = ExactBudget {
            node_budget: Some(5),
        };
        let plan = engine
            .plan(&EvalRequest::inflationary_pc(&query, &input).with_exact_budget(own))
            .unwrap();
        assert_eq!(plan.action, PlanAction::ExactTree { budget: own });
    }

    #[test]
    fn execute_samples_with_the_plan_seed() {
        let query = reach_query("w");
        let db = fork_db();
        let request = |seed| {
            EvalRequest::inflationary(&query, &db)
                .with_strategy(Strategy::SampleFixpoint)
                .with_epsilon_delta(0.05, 0.05)
                .with_seed(seed)
                .with_threads(1)
        };
        let mut engine = Engine::new();
        let seven = engine.run(&request(7)).unwrap();
        let three = engine.run(&request(3)).unwrap();
        let plan = engine.plan(&request(7)).unwrap();
        let replayed = engine.execute(&request(3), &plan).unwrap();
        let bits = |outcome: &EvalOutcome| outcome.value.to_f64().to_bits();
        assert_ne!(bits(&seven), bits(&three), "the seeds must tell apart");
        assert_eq!(bits(&replayed), bits(&seven));
        // The same holds for restart sampling.
        let (fq, fdb) = lazy_flip();
        let burn_in = |seed| {
            EvalRequest::forever(&fq, &fdb)
                .with_strategy(Strategy::BurnInSample { burn_in: Some(3) })
                .with_epsilon_delta(0.05, 0.05)
                .with_seed(seed)
                .with_threads(1)
        };
        let seven = engine.run(&burn_in(7)).unwrap();
        let three = engine.run(&burn_in(3)).unwrap();
        assert_ne!(bits(&seven), bits(&three), "the seeds must tell apart");
        let plan = engine.plan(&burn_in(7)).unwrap();
        let replayed = engine.execute(&burn_in(3), &plan).unwrap();
        assert_eq!(bits(&replayed), bits(&seven));
    }

    #[test]
    fn outcome_accessors() {
        let query = reach_query("w");
        let db = fork_db();
        let mut engine = Engine::new();
        let outcome = engine
            .run(&EvalRequest::inflationary(&query, &db).with_strategy(Strategy::ExactTree))
            .unwrap();
        assert_eq!(outcome.value.to_f64(), 0.5);
        assert!(outcome.value.exact().is_some());
        assert!(outcome.clone().into_report().is_err());
        assert_eq!(outcome.into_exact().unwrap(), Ratio::new(1, 2));
    }
}
