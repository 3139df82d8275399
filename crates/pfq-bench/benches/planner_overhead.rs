//! Planner overhead benchmark: the engine's request → plan → execute
//! pipeline on repeated exact queries, plus a direct measurement of bare
//! plan construction.
//!
//! Two claims are asserted:
//! 1. the engine's answers are bit-identical to the un-memoized
//!    reference (world enumeration plus `enumerate_fixpoints`),
//! 2. bare `Engine::plan` construction costs **< 1%** of the evaluation
//!    it steers (the planner's probes are cached alongside the results).
//!
//! Run with `cargo bench -p pfq-bench --bench planner_overhead`; pass
//! `-- --smoke` for the tiny CI configuration.

use pfq_bench::{fmt_duration, print_table, time_median};
use pfq_core::{DatalogQuery, Engine, EvalRequest, Event};
use pfq_data::tuple;
use pfq_fuzz::oracle::reference_pc_probability;
use pfq_num::Ratio;
use pfq_workloads::sat::{theorem_4_1_pc, Cnf};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, m, runs, plan_iters) = if smoke { (4, 4, 1, 50) } else { (6, 6, 3, 200) };
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let (f, _) = Cnf::random_satisfiable(n, m, &mut rng);
    let (base, input) = theorem_4_1_pc(&f);

    let mut queries = vec![base.clone()];
    for k in 1..=m as i64 {
        queries.push(DatalogQuery::new(
            base.program.clone(),
            Event::tuple_in("R", tuple![k]),
        ));
    }
    let requests: Vec<EvalRequest<'_>> = queries
        .iter()
        .map(|q| EvalRequest::inflationary_pc(q, &input))
        .collect();

    let engine_run = |engine: &mut Engine| -> Vec<Ratio> {
        requests
            .iter()
            .map(|r| engine.run(r).unwrap().into_exact().unwrap())
            .collect()
    };

    // Correctness first: the engine pipeline must reproduce the
    // reference answers bit for bit.
    let via_engine = engine_run(&mut Engine::new());
    let via_reference: Vec<Ratio> = queries
        .iter()
        .map(|q| reference_pc_probability(q, &input, None).unwrap())
        .collect();
    assert_eq!(
        via_engine, via_reference,
        "engine and reference answers diverged"
    );

    let t_engine = time_median(runs, || engine_run(&mut Engine::new()));

    // Bare plan construction on a warm engine — the steady state a
    // multi-query `.pfq` file sees after its first evaluation.
    let mut warm = Engine::new();
    engine_run(&mut warm);
    let t_plans = time_median(runs, || {
        for _ in 0..plan_iters {
            for r in &requests {
                warm.plan(r).unwrap();
            }
        }
    });
    let per_plan = t_plans / (plan_iters as u32);
    let plan_share = per_plan.as_secs_f64() / t_engine.as_secs_f64();

    print_table(
        &format!(
            "Planner overhead (3-SAT n={n}, m={m}, {} queries)",
            queries.len()
        ),
        &["path", "median wall-clock", "share"],
        &[
            vec![
                "engine plan+execute".into(),
                fmt_duration(t_engine),
                "100% (baseline)".into(),
            ],
            vec![
                "bare planning (all queries)".into(),
                fmt_duration(per_plan),
                format!("{:.3}% of engine run", plan_share * 100.0),
            ],
        ],
    );

    assert!(
        plan_share < 0.01,
        "plan construction cost {:.3}% of an engine run — expected < 1%",
        plan_share * 100.0
    );
}
