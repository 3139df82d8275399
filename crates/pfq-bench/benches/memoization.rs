//! Memoization benchmark: repeated exact queries over the Theorem 4.1
//! 3-SAT pc-table, one engine's shared cache vs the un-memoized
//! reference (world enumeration plus `enumerate_fixpoints`), at
//! asserted-identical `Ratio` answers.
//!
//! The workload mirrors how the CLI runs a `.pfq` file: several `@query`
//! directives over one program and one input. Through the engine, every
//! possible world after the first query's pass is served from the
//! whole-tree result memo; the reference re-traverses every computation
//! tree of every world for each query.
//!
//! Run with `cargo bench -p pfq-bench --bench memoization`; pass
//! `-- --smoke` for the tiny CI configuration.

use pfq_bench::{fmt_duration, print_table, time_median};
use pfq_core::{DatalogQuery, Engine, EvalRequest, Event, Strategy};
use pfq_data::tuple;
use pfq_fuzz::oracle::reference_pc_probability;
use pfq_num::Ratio;
use pfq_workloads::sat::{theorem_4_1_pc, Cnf};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, m, runs) = if smoke { (4, 4, 1) } else { (6, 6, 3) };
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let (f, _) = Cnf::random_satisfiable(n, m, &mut rng);
    let (base, input) = theorem_4_1_pc(&f);

    // The query set: the base `Done(a)` event plus one reachability
    // event per clause stage — same program, same pc-table, different
    // events, exactly like a multi-query `.pfq` file.
    let mut queries = vec![base.clone()];
    for k in 1..=m as i64 {
        queries.push(DatalogQuery::new(
            base.program.clone(),
            Event::tuple_in("R", tuple![k]),
        ));
    }

    let memoized = || -> Vec<Ratio> {
        let mut engine = Engine::new();
        queries
            .iter()
            .map(|q| {
                engine
                    .run(
                        &EvalRequest::inflationary_pc(q, &input).with_strategy(Strategy::ExactTree),
                    )
                    .unwrap()
                    .into_exact()
                    .unwrap()
            })
            .collect()
    };
    let reference = || -> Vec<Ratio> {
        queries
            .iter()
            .map(|q| reference_pc_probability(q, &input, None).unwrap())
            .collect()
    };

    // Fixed correctness first: both paths must agree bit for bit.
    assert_eq!(
        memoized(),
        reference(),
        "memoized and reference answers diverged"
    );

    let t_on = time_median(runs, memoized);
    let t_off = time_median(runs, reference);
    let speedup = t_off.as_secs_f64() / t_on.as_secs_f64();
    print_table(
        &format!(
            "Memoized vs un-memoized exact pc-table evaluation \
             (3-SAT n={n}, m={m}, {} queries)",
            queries.len()
        ),
        &["path", "median wall-clock", "speedup"],
        &[
            vec![
                "un-memoized reference".into(),
                fmt_duration(t_off),
                "1.0×".into(),
            ],
            vec![
                "shared cache".into(),
                fmt_duration(t_on),
                format!("{speedup:.1}×"),
            ],
        ],
    );
    if !smoke {
        assert!(
            speedup >= 2.0,
            "expected ≥2× speedup from the shared cache, measured {speedup:.2}×"
        );
    }
}
