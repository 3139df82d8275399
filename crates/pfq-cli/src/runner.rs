//! Executing (and planning) the queries of a parsed `.pfq` file.
//!
//! Every directive is translated into a [`pfq_core::engine::EvalRequest`]
//! and handed to one shared [`Engine`] per file, so exact queries share
//! interned states and memoized transition rows across directives.
//! [`run`] forces each directive's historical strategy (output is
//! byte-identical to the pre-engine CLI); [`plan`] asks the planner what
//! it *would* choose and renders the explainable plan tree without
//! executing anything. Both take a parsed file: callers read the source
//! and call [`parse_file`](crate::parse_file) themselves.

use crate::format::{PfqFile, Query, Semantics};
use pfq_core::engine::{Engine, EvalRequest, Plan, Strategy};
use pfq_core::sampler::SampleReport;
use pfq_core::{DatalogQuery, Event, ForeverQuery};
use pfq_data::Database;

/// Execution options applying to every query in a file. Construct with
/// [`Default`] plus the builder-style setters, so new flags do not churn
/// call sites:
///
/// ```
/// # use pfq_cli::RunOptions;
/// let options = RunOptions::default().with_threads(2).with_stats(true);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker threads for the sampling engine; `0` = one per core.
    pub threads: usize,
    /// When set, overrides the `seed …` clause of every query —
    /// rerunning a file with the same `--seed` reproduces every
    /// estimate bit for bit, at any thread count.
    pub seed: Option<u64>,
    /// Disables adaptive early stopping (always draw the full
    /// Hoeffding worst case).
    pub no_adaptive: bool,
    /// Report evaluation-cache statistics after each query. The stats
    /// are cumulative over the file: one cache is shared by every exact
    /// query, so later queries show the reuse earlier ones seeded.
    pub stats: bool,
    /// Attach the executed plan tree to every result (`--explain`).
    pub explain: bool,
}

impl RunOptions {
    /// Sets the sampling worker-thread count (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides every query's seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Disables adaptive early stopping.
    pub fn with_no_adaptive(mut self, no_adaptive: bool) -> Self {
        self.no_adaptive = no_adaptive;
        self
    }

    /// Enables per-query cache statistics.
    pub fn with_stats(mut self, stats: bool) -> Self {
        self.stats = stats;
        self
    }

    /// Attaches the executed plan tree to every result.
    pub fn with_explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }
}

/// The result of one query: the directive echoed back plus the value.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// The `@query …` directive as written.
    pub directive: String,
    /// A human-readable result line.
    pub value: String,
    /// Cumulative cache statistics after this query (with
    /// [`RunOptions::stats`]); deterministic — no wall times.
    pub stats: Option<String>,
    /// The executed plan tree (with [`RunOptions::explain`]);
    /// deterministic — no wall times.
    pub plan: Option<String>,
}

/// Renders results in the CLI's output format: each directive echoed
/// back, the indented result line, then (under `--explain`) the indented
/// plan tree and (under `--stats`) an indented `cache:` line.
pub fn render_results(results: &[QueryResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.directive);
        out.push('\n');
        out.push_str("  ");
        out.push_str(&r.value);
        out.push('\n');
        if let Some(plan) = &r.plan {
            for line in plan.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        if let Some(stats) = &r.stats {
            out.push_str("  cache: ");
            out.push_str(stats);
            out.push('\n');
        }
    }
    out
}

/// Renders a sampling report in the CLI's result-line format. The
/// `p ≈ <value> (…` prefix is stable; stats after it are informative.
fn format_report(report: &SampleReport, detail: std::fmt::Arguments<'_>) -> String {
    let early = if report.stopped_early {
        format!(", stopped early of {}", report.worst_case)
    } else {
        String::new()
    };
    format!(
        "p ≈ {:.6} ({} samples, {detail}{early}; {:.1} ms on {} thread{})",
        report.estimate,
        report.samples,
        report.wall.as_secs_f64() * 1e3,
        report.threads,
        if report.threads == 1 { "" } else { "s" },
    )
}

/// The owned query objects an [`EvalRequest`] borrows from: the datalog
/// view of the directive and, for `kernel` directives, the raw
/// forever-query.
struct QueryContext {
    dq: DatalogQuery,
    fq: Option<ForeverQuery>,
}

impl QueryContext {
    fn new(file: &PfqFile, query: &Query) -> Result<QueryContext, String> {
        let event = Event::tuple_in(query.relation.clone(), query.tuple.clone());
        let need_program = |what: &str| -> Result<(), String> {
            if file.program.is_none() {
                return Err(format!("{what} queries need an @program block"));
            }
            Ok(())
        };
        let fq = match &query.semantics {
            Semantics::InflationaryExact | Semantics::InflationarySample { .. } => {
                need_program("inflationary")?;
                None
            }
            Semantics::NoninflationaryExact
            | Semantics::TimeAverage { .. }
            | Semantics::BurnIn { .. } => {
                need_program("noninflationary")?;
                None
            }
            Semantics::KernelExact
            | Semantics::KernelTimeAverage { .. }
            | Semantics::KernelBurnIn { .. } => {
                let kernels = file
                    .kernels
                    .clone()
                    .ok_or("kernel queries need @kernel directives")?;
                Some(ForeverQuery::new(kernels, event.clone()))
            }
        };
        Ok(QueryContext {
            dq: DatalogQuery::new(file.program.clone().unwrap_or_default(), event),
            fq,
        })
    }

    /// Builds the request a directive maps to. With `auto` set, exact
    /// and sample directives leave strategy selection to the planner
    /// (the `pfq plan` view); without it, each directive forces its
    /// historical strategy so `pfq run` output stays byte-identical to
    /// the pre-engine CLI. Directives naming an explicit sampling
    /// algorithm (`time-average`, `burn-in N`) always pin it.
    fn request<'a>(
        &'a self,
        db: &'a Database,
        query: &Query,
        options: &RunOptions,
        auto: bool,
    ) -> EvalRequest<'a> {
        let pick = |forced: Strategy| if auto { Strategy::Auto } else { forced };
        let request = match &query.semantics {
            Semantics::InflationaryExact => {
                EvalRequest::inflationary(&self.dq, db).with_strategy(pick(Strategy::ExactTree))
            }
            Semantics::InflationarySample {
                epsilon,
                delta,
                seed,
            } => EvalRequest::inflationary(&self.dq, db)
                .with_strategy(pick(Strategy::SampleFixpoint))
                .with_epsilon_delta(*epsilon, *delta)
                .with_seed(options.seed.unwrap_or(*seed)),
            Semantics::NoninflationaryExact => {
                EvalRequest::noninflationary(&self.dq, db).with_strategy(pick(Strategy::ExactChain))
            }
            Semantics::TimeAverage { steps, seed } => EvalRequest::noninflationary(&self.dq, db)
                .with_strategy(Strategy::TimeAverage { steps: *steps })
                .with_seed(options.seed.unwrap_or(*seed)),
            Semantics::BurnIn {
                burn_in,
                epsilon,
                delta,
                seed,
            } => EvalRequest::noninflationary(&self.dq, db)
                .with_strategy(Strategy::BurnInSample {
                    burn_in: Some(*burn_in),
                })
                .with_epsilon_delta(*epsilon, *delta)
                .with_seed(options.seed.unwrap_or(*seed)),
            Semantics::KernelExact => {
                EvalRequest::forever(self.fq.as_ref().expect("kernel context"), db)
                    .with_strategy(pick(Strategy::ExactChain))
            }
            Semantics::KernelTimeAverage { steps, seed } => {
                EvalRequest::forever(self.fq.as_ref().expect("kernel context"), db)
                    .with_strategy(Strategy::TimeAverage { steps: *steps })
                    .with_seed(options.seed.unwrap_or(*seed))
            }
            Semantics::KernelBurnIn {
                burn_in,
                epsilon,
                delta,
                seed,
            } => EvalRequest::forever(self.fq.as_ref().expect("kernel context"), db)
                .with_strategy(Strategy::BurnInSample {
                    burn_in: Some(*burn_in),
                })
                .with_epsilon_delta(*epsilon, *delta)
                .with_seed(options.seed.unwrap_or(*seed)),
        };
        request
            .with_threads(options.threads)
            .with_adaptive(!options.no_adaptive)
    }
}

/// Runs every query of a parsed file; results come back in file order.
/// One [`Engine`] (hence one cache) serves the whole file.
pub fn run(
    file: &PfqFile,
    options: &RunOptions,
) -> Result<Vec<QueryResult>, Box<dyn std::error::Error>> {
    let mut engine = Engine::new();
    let mut out = Vec::new();
    for query in &file.queries {
        out.push(run_query(file, query, options, &mut engine)?);
    }
    Ok(out)
}

fn run_query(
    file: &PfqFile,
    query: &Query,
    options: &RunOptions,
    engine: &mut Engine,
) -> Result<QueryResult, Box<dyn std::error::Error>> {
    let ctx = QueryContext::new(file, query)?;
    let request = ctx.request(&file.database, query, options, false);
    let outcome = engine.run(&request)?;
    let value = match &query.semantics {
        Semantics::InflationaryExact => {
            let p = outcome.value.exact().expect("forced exact-tree plan");
            format!("p = {p} (= {:.6}, exact)", p.to_f64())
        }
        Semantics::NoninflationaryExact | Semantics::KernelExact => {
            let p = outcome.value.exact().expect("forced exact-chain plan");
            format!("p = {p} (= {:.6}, exact long-run)", p.to_f64())
        }
        Semantics::InflationarySample { epsilon, delta, .. } => {
            let report = outcome.report.as_ref().expect("sampling plan");
            format_report(report, format_args!("ε = {epsilon}, δ = {delta}"))
        }
        Semantics::TimeAverage { steps, .. } | Semantics::KernelTimeAverage { steps, .. } => {
            format!(
                "p ≈ {:.6} (time average over {steps} steps)",
                outcome.value.to_f64()
            )
        }
        Semantics::BurnIn {
            burn_in,
            epsilon,
            delta,
            ..
        }
        | Semantics::KernelBurnIn {
            burn_in,
            epsilon,
            delta,
            ..
        } => {
            let report = outcome.report.as_ref().expect("sampling plan");
            format_report(
                report,
                format_args!("burn-in {burn_in}, ε = {epsilon}, δ = {delta}"),
            )
        }
    };
    Ok(QueryResult {
        directive: query.source.clone(),
        value,
        stats: options.stats.then(|| engine.stats().to_string()),
        plan: options.explain.then(|| outcome.plan.to_string()),
    })
}

/// Plans every query of a parsed file without executing anything,
/// rendering each directive with its indented plan tree — the `pfq plan`
/// view. Exact and sample directives are planned with
/// [`Strategy::Auto`], so the output shows the planner's eligibility
/// analysis (a sample directive over a small computation tree plans as
/// exact-tree, a negation-free non-inflationary query as §5.1
/// partitioning, …); `time-average` and `burn-in N` directives pin
/// their algorithm. The rendering is deterministic — no wall times.
pub fn plan(file: &PfqFile, options: &RunOptions) -> Result<String, Box<dyn std::error::Error>> {
    let mut engine = Engine::new();
    let mut out = String::new();
    for query in &file.queries {
        let plan = plan_query(file, query, options, &mut engine)?;
        out.push_str(&query.source);
        out.push('\n');
        for line in plan.lines() {
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(out)
}

fn plan_query(
    file: &PfqFile,
    query: &Query,
    options: &RunOptions,
    engine: &mut Engine,
) -> Result<Plan, Box<dyn std::error::Error>> {
    let ctx = QueryContext::new(file, query)?;
    let request = ctx.request(&file.database, query, options, true);
    Ok(engine.plan(&request)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_file;

    type Results = Result<Vec<QueryResult>, Box<dyn std::error::Error>>;

    fn run_source_with_options(src: &str, options: &RunOptions) -> Results {
        run(&parse_file(src)?, options)
    }

    fn run_source(src: &str) -> Results {
        run_source_with_options(src, &RunOptions::default())
    }

    fn plan_source(src: &str) -> String {
        plan(&parse_file(src).unwrap(), &RunOptions::default()).unwrap()
    }

    const FORK: &str = r#"
@relation E(i, j, p) {
  (v, w, 1/2)
  (v, u, 1/2)
}
@program {
  C(v).
  C2(X!, Y) @P :- C(X), E(X, Y, P).
  C(Y) :- C2(X, Y).
}
@query inflationary exact event C(w)
@query inflationary sample epsilon 0.05 delta 0.05 seed 1 event C(w)
"#;

    #[test]
    fn inflationary_modes_run() {
        let results = run_source(FORK).unwrap();
        assert_eq!(results.len(), 2);
        assert!(
            results[0].value.starts_with("p = 1/2"),
            "{}",
            results[0].value
        );
        // The sampled estimate is near 0.5.
        let est: f64 = results[1]
            .value
            .split(['≈', '('])
            .nth(1)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!((est - 0.5).abs() < 0.05, "{est}");
    }

    #[test]
    fn noninflationary_modes_run() {
        let src = r#"
@relation E(i, j, p) {
  (0, 1, 1)
  (1, 0, 1)
  (1, 1, 1)
}
@relation C(c0) {
  (0)
}
@program {
  C(Y) @P :- C(X), E(X, Y, P).
}
@query noninflationary exact event C(1)
@query noninflationary time-average steps 20000 seed 2 event C(1)
@query noninflationary burn-in 50 epsilon 0.1 delta 0.05 seed 2 event C(1)
"#;
        let results = run_source(src).unwrap();
        assert_eq!(results.len(), 3);
        // Walk: 0 → 1; 1 → {0, 1} uniformly. π(1) = 2/3.
        assert!(
            results[0].value.starts_with("p = 2/3"),
            "{}",
            results[0].value
        );
        for r in &results[1..] {
            let est: f64 = r
                .value
                .split(['≈', '('])
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!((est - 2.0 / 3.0).abs() < 0.1, "{}", r.value);
        }
    }

    #[test]
    fn zero_ary_event() {
        let src = r#"
@relation R(a, b) {
  (1, 2)
  (2, 1)
}
@program {
  Done :- R(X, Y), R(Y, X).
}
@query inflationary exact event Done
"#;
        let results = run_source(src).unwrap();
        assert!(
            results[0].value.starts_with("p = 1 "),
            "{}",
            results[0].value
        );
    }

    #[test]
    fn kernel_queries_run() {
        // The Example 3.3 walk written as a raw @kernel: π(1) = 2/3 on
        // the lazy 2-state chain.
        let src = r#"
@relation E(i, j, p) {
  (0, 1, 1)
  (1, 0, 1)
  (1, 1, 1)
}
@relation C(i) {
  (0)
}
@kernel C := rename[j -> i](project[j](repair-key[i @ p]((C join E))))
@query kernel exact event C(1)
@query kernel time-average steps 20000 seed 3 event C(1)
@query kernel burn-in 50 epsilon 0.1 delta 0.05 seed 3 event C(1)
"#;
        let results = run_source(src).unwrap();
        assert_eq!(results.len(), 3);
        assert!(
            results[0].value.starts_with("p = 2/3"),
            "{}",
            results[0].value
        );
        for r in &results[1..] {
            let est: f64 = r
                .value
                .split(['≈', '('])
                .nth(1)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert!((est - 2.0 / 3.0).abs() < 0.1, "{}", r.value);
        }
    }

    #[test]
    fn kernel_query_without_kernels_errors() {
        let src = "@program {\nC(1).\n}\n@query kernel exact event C(1)";
        let err = run_source(src).unwrap_err().to_string();
        assert!(err.contains("@kernel"), "{err}");
        // And datalog queries without a program error too.
        let src = "@kernel C := project[i](C)\n@query inflationary exact event C(1)";
        let err = run_source(src).unwrap_err().to_string();
        assert!(err.contains("@program"), "{err}");
    }

    #[test]
    fn bad_files_error_cleanly() {
        assert!(run_source(
            "@program {\nC(X) :- Missing(X).\n}\n@query inflationary exact event C(1)"
        )
        .is_err());
        assert!(run_source("no directives").is_err());
    }

    #[test]
    fn options_reproduce_estimates_across_thread_counts() {
        let one = RunOptions::default().with_threads(1).with_seed(99);
        let four = one.clone().with_threads(4);
        let a = run_source_with_options(FORK, &one).unwrap();
        let b = run_source_with_options(FORK, &four).unwrap();
        // The sampled line is identical up to the wall-time stat.
        let head = |v: &str| v.split(';').next().unwrap().to_string();
        assert_eq!(head(&a[1].value), head(&b[1].value), "\n{a:?}\n{b:?}");
    }

    #[test]
    fn no_adaptive_draws_full_hoeffding_count() {
        let options = RunOptions::default().with_no_adaptive(true);
        let results = run_source_with_options(FORK, &options).unwrap();
        // ε = δ = 0.05 → m = ⌈ln(40)/0.005⌉ = 738 samples, never fewer.
        assert!(
            results[1].value.contains("738 samples"),
            "{}",
            results[1].value
        );
        assert!(!results[1].value.contains("stopped early"));
    }

    #[test]
    fn stats_lines_are_attached_and_deterministic() {
        let src = r#"
@relation E(i, j, p) {
  (v, w, 1/2)
  (v, u, 1/2)
}
@program {
  C(v).
  C2(X!, Y) @P :- C(X), E(X, Y, P).
  C(Y) :- C2(X, Y).
}
@query inflationary exact event C(w)
@query inflationary exact event C(u)
"#;
        let options = RunOptions::default().with_stats(true);
        let a = run_source_with_options(src, &options).unwrap();
        let b = run_source_with_options(src, &options).unwrap();
        assert_eq!(a, b, "stats output must be deterministic");
        let first = a[0].stats.as_deref().unwrap();
        let second = a[1].stats.as_deref().unwrap();
        // The second query re-runs the same program on the same input:
        // it is served from the whole-tree result memo.
        assert!(first.contains("results 0 hit / 1 miss"), "{first}");
        assert!(second.contains("results 1 hit / 1 miss"), "{second}");
        // Rendering includes the stats lines; without --stats it doesn't.
        assert!(render_results(&a).contains("  cache: states "));
        let plain = run_source(src).unwrap();
        assert_eq!(plain[0].stats, None);
        assert!(!render_results(&plain).contains("cache:"));
    }

    #[test]
    fn explain_attaches_the_executed_plan() {
        let options = RunOptions::default().with_explain(true);
        let results = run_source_with_options(FORK, &options).unwrap();
        let exact_plan = results[0].plan.as_deref().unwrap();
        assert!(exact_plan.starts_with("plan: exact-tree"), "{exact_plan}");
        assert!(exact_plan.contains("strategy fixed by caller"));
        let sample_plan = results[1].plan.as_deref().unwrap();
        assert!(
            sample_plan.starts_with("plan: sample-fixpoint"),
            "{sample_plan}"
        );
        // Rendering indents every plan line under the directive.
        assert!(render_results(&results).contains("\n  plan: exact-tree"));
        // Without --explain, no plan is attached.
        assert_eq!(run_source(FORK).unwrap()[0].plan, None);
    }

    #[test]
    fn plan_source_shows_auto_analysis() {
        let rendered = plan_source(FORK);
        // The exact directive plans as exact-tree after the probe…
        assert!(rendered.contains("plan: exact-tree"), "{rendered}");
        // …and the *sample* directive does too: the planner sees the
        // computation tree fits the probe, so sampling is unnecessary.
        assert!(!rendered.contains("plan: sample-fixpoint"), "{rendered}");
        assert!(
            rendered.contains("computation tree fits within the 20000-node probe"),
            "{rendered}"
        );
        // Nothing was executed, so the output carries no result lines.
        assert!(!rendered.contains("p ="), "{rendered}");
        // Planning is deterministic.
        assert_eq!(rendered, plan_source(FORK));
    }

    #[test]
    fn plan_pins_explicit_sampling_directives() {
        let src = r#"
@relation E(i, j, p) {
  (0, 1, 1)
  (1, 0, 1)
  (1, 1, 1)
}
@relation C(c0) {
  (0)
}
@program {
  C(Y) @P :- C(X), E(X, Y, P).
}
@query noninflationary time-average steps 20000 seed 2 event C(1)
@query noninflationary burn-in 50 epsilon 0.1 delta 0.05 seed 2 event C(1)
"#;
        let rendered = plan_source(src);
        assert!(rendered.contains("plan: time-average"), "{rendered}");
        assert!(rendered.contains("steps: 20000"), "{rendered}");
        assert!(rendered.contains("plan: burn-in-sample"), "{rendered}");
        assert!(rendered.contains("burn-in: 50 steps"), "{rendered}");
    }
}
