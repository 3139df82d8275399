//! The experiment harness: regenerates the empirical counterpart of
//! every claim in the paper's Table 1 (plus the worked examples), one
//! printed table per experiment E1–E17 of `DESIGN.md`. It is the
//! workspace's only timing harness, and its asserts are the gates: exact
//! answers, bit-identical estimates across thread counts, and E15's and
//! E16's speedup and plan-share bounds.
//!
//! Run with `cargo run --release -p pfq-bench --bin experiments`.
//! The output is markdown; `EXPERIMENTS.md` records a captured run.
//!
//! Sampling experiments run on the parallel engine; `--threads N`
//! selects the worker count (default: all cores) and `--seed S`
//! re-bases every experiment's RNG seed, reproducing all estimates
//! bit for bit at any thread count.
//!
//! `--ledger NAME` runs the tables, then times the ledger's layers and
//! end-to-end workloads (`LEDGER_RUNS` runs each, one thread) and
//! writes `BENCH_NAME.json` at the repository root: one point of the
//! performance trajectory (`ROADMAP.md`).

use pfq_bench::{
    chain_probability, fmt_duration, ledger_json, pc_probability, print_table, time_median,
    time_once, tree_probability, LedgerEntry,
};
use pfq_core::exact_inflationary::{self, ExactBudget};
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_core::sampler::{SampleReport, SamplerConfig};
use pfq_core::{
    mixing_sampler, partition, sample_inflationary, DatalogQuery, Engine, EvalCache, EvalRequest,
    Event,
};
use pfq_ctable::PcDatabase;
use pfq_data::intern::Interner;
use pfq_data::{tuple, Database, Relation, Schema};
use pfq_datalog::eval::CompiledProgram;
use pfq_datalog::inflationary::{sample_fixpoint, step_distribution, EngineState};
use pfq_fuzz::oracle::reference_pc_probability;
use pfq_markov::{dense, gth, mixing, stationary};
use pfq_num::Ratio;
use pfq_workloads::basketball;
use pfq_workloads::bayes::BayesNet;
use pfq_workloads::graphs::{walk_query, WeightedGraph};
use pfq_workloads::pagerank::{pagerank_query, pagerank_reference};
use pfq_workloads::queue::lazy_birth_death_chain;
use pfq_workloads::sat::{theorem_4_1_pc, theorem_5_1_forever_query, Cnf};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Engine knobs shared by every sampling experiment.
struct Knobs {
    /// Worker threads for the sampling engine; `0` = one per core.
    threads: usize,
    /// Base seed; each experiment derives its own seeds from it.
    seed: u64,
    /// Name of the `BENCH_*.json` ledger to write after the tables.
    ledger: Option<String>,
}

impl Knobs {
    fn from_args() -> Knobs {
        let mut knobs = Knobs {
            threads: 0,
            seed: 0,
            ledger: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let value = args.next().unwrap_or_else(|| panic!("{arg} needs a value"));
            let number = || {
                value
                    .parse()
                    .unwrap_or_else(|_| panic!("{arg} needs an unsigned integer value"))
            };
            match arg.as_str() {
                "--threads" => knobs.threads = number() as usize,
                "--seed" => knobs.seed = number(),
                "--ledger" => {
                    assert!(
                        !value.is_empty()
                            && value
                                .chars()
                                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
                        "--ledger needs a name of letters, digits, '_' and '-'"
                    );
                    knobs.ledger = Some(value);
                }
                other => panic!("unknown argument {other:?} (expected --threads/--seed/--ledger)"),
            }
        }
        knobs
    }

    /// The sampler config of experiment `tag`'s case `case`.
    fn config(&self, tag: u64, case: u64) -> SamplerConfig {
        SamplerConfig::seeded(self.seed ^ (tag << 32) ^ case).with_threads(self.threads)
    }
}

fn main() {
    let knobs = Knobs::from_args();
    println!("# PFQ experiment harness — Table 1 reproduction\n");
    println!("(release build recommended; all probabilities cross-checked)");
    println!(
        "(sampling engine: {} thread(s), base seed {})",
        if knobs.threads == 0 {
            "all".to_string()
        } else {
            knobs.threads.to_string()
        },
        knobs.seed
    );
    e1_exact_linear_datalog();
    e2_absolute_approx_datalog(&knobs);
    e3_relative_vs_absolute();
    e4_exact_inflationary();
    e5_sampling_inflationary(&knobs);
    e5b_thread_sweep(&knobs);
    e6_exact_noninflationary();
    e7_mixing_time_sampling(&knobs);
    e8_partitioning();
    e9_repair_key();
    e10_pagerank();
    e11_bayes(&knobs);
    e12_stationary_ablation();
    e14_mcmc_coloring();
    e15_memoization();
    e16_stationary_scaling();
    e17_planner(&knobs);
    if let Some(name) = &knobs.ledger {
        write_ledger(name, knobs.seed);
    }
}

/// E1 — Table 1 row 1, exact: exponential scaling of exact evaluation of
/// linear datalog over pc-tables (the Theorem 4.1 reduction).
fn e1_exact_linear_datalog() {
    let mut rows = Vec::new();
    for (n, f) in e1_formulas() {
        let (query, input) = theorem_4_1_pc(&f);
        assert!(query.is_linear());
        let (d, p) = time_once(|| pc_probability(&query, &input));
        let expected = Ratio::new(f.count_satisfying() as i64, 1 << n);
        assert_eq!(p, expected);
        rows.push(vec![
            n.to_string(),
            format!("{}", f.clauses.len()),
            (1u64 << n).to_string(),
            p.to_string(),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E1 — exact evaluation, linear datalog over pc-tables (Thm 4.1 workload; expect ~4× per +2 vars)",
        &["vars n", "clauses", "worlds 2^n", "exact p (= #SAT/2^n)", "time"],
        &rows,
    );
}

/// E1's formulas, `n` variables and `n` clauses each, drawn in order
/// from one seeded rng.
fn e1_formulas() -> Vec<(usize, Cnf)> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    [4usize, 6, 8, 10, 12]
        .into_iter()
        .map(|n| (n, Cnf::random_satisfiable(n, n, &mut rng).0))
        .collect()
}

/// E2 — Table 1 row 1, absolute approximation: PTIME scaling of the
/// sampler on the same reduction.
fn e2_absolute_approx_datalog(knobs: &Knobs) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut rows = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let (f, _) = Cnf::random_satisfiable(n, n, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        let config = knobs.config(2, n as u64);
        let (d, report) = time_once(|| {
            sample_inflationary::evaluate_pc_with_config(&query, &input, 0.1, 0.05, &config)
                .unwrap()
        });
        rows.push(vec![
            n.to_string(),
            format!("{} / {}", report.samples, report.worst_case),
            format!("{:.3}", report.estimate),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E2 — absolute (ε=0.1, δ=0.05) approximation on the Thm 4.1 workload (expect ~linear time in n)",
        &["vars n", "samples / worst case", "estimate", "time"],
        &rows,
    );
}

/// E3 — relative approximation is infeasible: the samples needed to
/// *see* the event at all grow as 2^k when p = 1/2^k, while the
/// absolute-approximation budget is constant.
fn e3_relative_vs_absolute() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let absolute_budget = sample_inflationary::hoeffding_sample_count(0.1, 0.05).unwrap();
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 6, 8] {
        let f = Cnf::pinned(k);
        let (query, input) = theorem_4_1_pc(&f);
        let program = CompiledProgram::new(&query.program);
        // Empirical samples until the first positive observation,
        // averaged over a few trials — a lower bound on any relative
        // scheme's work, since it must distinguish p > 0 from p = 0.
        let trials = 5;
        let mut tries_to_hit = Vec::new();
        for _ in 0..trials {
            let mut count = 0usize;
            loop {
                count += 1;
                let world = input.sample_world(&mut rng).unwrap();
                let (edb, start) = EngineState::initial(&query.program, &world).unwrap();
                let fp = sample_fixpoint(&program, &edb, &start, &mut rng, 1_000_000).unwrap();
                if query.event.holds(&fp.database(&edb)) {
                    break;
                }
                if count > 100_000 {
                    break;
                }
            }
            tries_to_hit.push(count);
        }
        let mean = tries_to_hit.iter().sum::<usize>() as f64 / trials as f64;
        rows.push(vec![
            k.to_string(),
            format!("1/{}", 1u64 << k),
            format!("{mean:.0}"),
            absolute_budget.to_string(),
        ]);
    }
    print_table(
        "E3 — relative vs absolute approximation (Thm 4.1): samples to first hit grow as 2^k; absolute budget is constant",
        &["k (p = 1/2^k)", "true p", "mean samples to first hit", "absolute (ε=0.1) budget"],
        &rows,
    );

    // Table 1 row 3's other hardness face (Thm 5.1): under the
    // non-inflationary reduction the answer is exactly 1 (satisfiable)
    // vs 0 (unsatisfiable) — observed here through long-walk time
    // averages.
    let mut rows = Vec::new();
    for (name, f) in [
        ("satisfiable", Cnf::new(3, vec![[1, 2, 3]])),
        ("unsatisfiable", Cnf::unsatisfiable()),
    ] {
        let (fq, db) = theorem_5_1_forever_query(&f).unwrap();
        let (d, avg) =
            time_once(|| mixing_sampler::evaluate_time_average(&fq, &db, 2_000, &mut rng).unwrap());
        rows.push(vec![
            name.to_string(),
            f.clauses.len().to_string(),
            format!("{avg:.3}"),
            if name == "satisfiable" {
                "1".into()
            } else {
                "0".into()
            },
            fmt_duration(d),
        ]);
    }
    print_table(
        "E3b — Thm 5.1 separation (non-inflationary): time-average of a 2000-step walk",
        &[
            "formula",
            "clauses",
            "measured time-average",
            "Lemma 5.2 value",
            "time",
        ],
        &rows,
    );
}

/// E4 — Table 1 row 2, exact: computation-tree traversal for
/// inflationary fixpoint queries (reachability, Example 3.9).
fn e4_exact_inflationary() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut rows = Vec::new();
    for n in [3usize, 4, 5, 6] {
        let g = WeightedGraph::erdos_renyi(n, 0.6, &mut rng);
        let db = Database::new().with("E", g.edge_relation());
        let query = pfq_workloads::graphs::reachability_query(0, n as i64 - 1);
        let (d, p) = time_once(|| tree_probability(&query, &db));
        rows.push(vec![
            n.to_string(),
            g.edges.len().to_string(),
            p.to_string(),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E4 — exact inflationary evaluation (Ex. 3.9 reachability; computation tree grows exponentially)",
        &["nodes", "edges", "exact Pr[reach]", "time"],
        &rows,
    );
}

/// E5 — Theorem 4.3: the PTIME sampler on reachability instances far
/// beyond exact reach, plus accuracy on a small instance.
fn e5_sampling_inflationary(knobs: &Knobs) {
    let sweep = e5_sweep(knobs);
    println!(
        "\nE5 accuracy check (n=5): exact = {:.4}, sampled = {:.4} ({} samples, ε = 0.05)",
        sweep.exact, sweep.accuracy.estimate, sweep.accuracy.samples
    );
    let rows: Vec<Vec<String>> = sweep
        .sizes
        .iter()
        .map(|(n, report, d)| {
            vec![
                n.to_string(),
                format!("{} / {}", report.samples, report.worst_case),
                format!("{:.3}", report.estimate),
                fmt_duration(*d),
            ]
        })
        .collect();
    print_table(
        "E5 — Thm 4.3 sampling on reachability (expect polynomial growth in n)",
        &["nodes", "samples / worst case", "estimate", "time"],
        &rows,
    );
}

/// E5's work: the small instance's exact probability and estimate
/// (asserted within ε), then each size's report and wall time.
struct E5Sweep {
    exact: f64,
    accuracy: SampleReport,
    sizes: Vec<(usize, SampleReport, Duration)>,
}

fn e5_sweep(knobs: &Knobs) -> E5Sweep {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    // Accuracy on a small instance.
    let g_small = WeightedGraph::erdos_renyi(5, 0.5, &mut rng);
    let db_small = Database::new().with("E", g_small.edge_relation());
    let q_small = pfq_workloads::graphs::reachability_query(0, 4);
    let exact = tree_probability(&q_small, &db_small).to_f64();
    let est = sample_inflationary::evaluate_with_config(
        &q_small,
        &db_small,
        0.05,
        0.05,
        &knobs.config(5, 0),
    )
    .unwrap();
    assert!((est.estimate - exact).abs() < 0.05);
    let mut sizes = Vec::new();
    for n in [10usize, 20, 40, 80] {
        let g = WeightedGraph::erdos_renyi(n, 0.3, &mut rng);
        let db = Database::new().with("E", g.edge_relation());
        let query = pfq_workloads::graphs::reachability_query(0, n as i64 - 1);
        let config = knobs.config(5, n as u64);
        let (d, report) = time_once(|| {
            sample_inflationary::evaluate_with_config(&query, &db, 0.1, 0.05, &config).unwrap()
        });
        sizes.push((n, report, d));
    }
    E5Sweep {
        exact,
        accuracy: est,
        sizes,
    }
}

/// E5's walk: reachability from node 0 to node 39 of a seeded 40-node
/// graph.
struct E5Walk {
    query: DatalogQuery,
    db: Database,
}

/// Fixed trials of one [`E5Walk::run`].
const E5_WALK_SAMPLES: usize = 200;

impl E5Walk {
    fn new() -> E5Walk {
        let n = 40;
        let g = WeightedGraph::erdos_renyi(n, 0.3, &mut ChaCha8Rng::seed_from_u64(42));
        E5Walk {
            query: pfq_workloads::graphs::reachability_query(0, n as i64 - 1),
            db: Database::new().with("E", g.edge_relation()),
        }
    }

    /// [`E5_WALK_SAMPLES`] trials at `threads`.
    fn run(&self, knobs: &Knobs, threads: usize) -> SampleReport {
        let config = knobs.config(5, 1).with_threads(threads);
        sample_inflationary::evaluate_with_samples_config(
            &self.query,
            &self.db,
            E5_WALK_SAMPLES,
            &config,
        )
        .unwrap()
    }
}

/// E5b — fixed work at 1/2/4/8 threads. Per-trial seeding makes every
/// thread count compute the same estimate, asserted to the bit before
/// timing; only the wall time may change.
fn e5b_thread_sweep(knobs: &Knobs) {
    const RUNS: usize = 10;
    let walk = E5Walk::new();
    let baseline = walk.run(knobs, 1).estimate;
    let mut rows = Vec::new();
    let mut t_one = None;
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            walk.run(knobs, threads).estimate.to_bits(),
            baseline.to_bits(),
            "thread count changed the estimate"
        );
        let t = time_median(RUNS, || walk.run(knobs, threads));
        let t_one = *t_one.get_or_insert(t);
        rows.push(vec![
            threads.to_string(),
            fmt_duration(t),
            format!("{:.1}×", t_one.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    print_table(
        &format!(
            "E5b — sampler thread sweep (reachability n = 40, {E5_WALK_SAMPLES} fixed samples, \
             median of {RUNS} runs; estimate {baseline} bit-identical at every thread count)"
        ),
        &["threads", "median wall-clock", "speedup"],
        &rows,
    );
}

/// E6 — Prop 5.4 / Thm 5.5: exact non-inflationary evaluation; state
/// space and rational Gaussian elimination dominate.
fn e6_exact_noninflationary() {
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 32] {
        let g = WeightedGraph::cycle(n).lazy(1);
        let (q, db) = walk_query(&g, 0, (n / 2) as i64);
        let (d, p) = time_once(|| chain_probability(&q, &db));
        assert_eq!(p, Ratio::new(1, n as i64));
        rows.push(vec![
            format!("lazy cycle {n}"),
            n.to_string(),
            "single SCC (Prop 5.4)".into(),
            p.to_string(),
            fmt_duration(d),
        ]);
    }
    for n in [4usize, 8, 16] {
        let g = WeightedGraph::path(n);
        let (q, db) = walk_query(&g, 0, n as i64 - 1);
        let (d, p) = time_once(|| chain_probability(&q, &db));
        assert!(p.is_one());
        rows.push(vec![
            format!("absorbing path {n}"),
            n.to_string(),
            "multi-SCC (Thm 5.5)".into(),
            p.to_string(),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E6 — exact non-inflationary evaluation (explicit chain + exact stationary/absorption)",
        &["workload", "chain states", "path taken", "exact p", "time"],
        &rows,
    );
}

/// E7 — Theorem 5.6: sampling cost scales with the mixing time, not
/// just the database size.
fn e7_mixing_time_sampling(knobs: &Knobs) {
    let mut rows = Vec::new();
    let cases: Vec<(String, WeightedGraph)> = vec![
        ("complete 8".into(), WeightedGraph::complete(8)),
        ("lazy cycle 8".into(), WeightedGraph::cycle(8).lazy(1)),
        ("dumbbell 2×4".into(), WeightedGraph::dumbbell(4)),
        ("dumbbell 2×6".into(), WeightedGraph::dumbbell(6)),
    ];
    for (case, (name, g)) in cases.into_iter().enumerate() {
        let (q, db) = walk_query(&g, 0, 0);
        let exact = chain_probability(&q, &db).to_f64();
        let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
        let t = mixing::mixing_time(&chain, 0.05, 100_000).expect("ergodic workload");
        let config = knobs.config(7, case as u64);
        let (d, report) = time_once(|| {
            mixing_sampler::evaluate_with_burn_in_config(&q, &db, t, 0.1, 0.05, &config).unwrap()
        });
        rows.push(vec![
            name,
            g.n.to_string(),
            t.to_string(),
            format!("{exact:.4}"),
            format!("{:.4}", report.estimate),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E7 — Thm 5.6 sampling: cost tracks mixing time t(0.05) at fixed n and sample budget",
        &[
            "graph",
            "nodes",
            "mixing time",
            "exact p",
            "estimate",
            "time",
        ],
        &rows,
    );
}

/// E8 — §5.1 partitioning: per-class evaluation vs the product chain.
fn e8_partitioning() {
    let mut rows = Vec::new();
    for k in [2usize, 3, 4, 5, 6] {
        let rows_r: Vec<_> = (0..k as i64)
            .flat_map(|key| [tuple![key, 0, 1], tuple![key, 1, key + 1]])
            .collect();
        let db = Database::new().with(
            "R",
            Relation::from_rows(Schema::new(["k", "v", "w"]), rows_r),
        );
        let program = pfq_datalog::parse_program("H(K!, V) @W :- R(K, V, W).").unwrap();
        let mut event = pfq_core::Event::tuple_in("H", tuple![0, 1]);
        for key in 1..k as i64 {
            event = event.or(pfq_core::Event::tuple_in("H", tuple![key, 1]));
        }
        let query = pfq_core::DatalogQuery::new(program, event);
        let (d_direct, p_direct) = time_once(|| {
            let (fq, prepared) = query.to_forever_query(&db).unwrap();
            chain_probability(&fq, &prepared)
        });
        let (d_part, p_part) = time_once(|| {
            partition::evaluate_partitioned(
                &query,
                &db,
                ChainBudget::default(),
                &mut EvalCache::default(),
            )
            .unwrap()
        });
        assert_eq!(p_direct, p_part);
        rows.push(vec![
            k.to_string(),
            (1usize << k).to_string(),
            p_direct.to_string(),
            fmt_duration(d_direct),
            fmt_duration(d_part),
            format!(
                "{:.1}×",
                d_direct.as_secs_f64() / d_part.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    print_table(
        "E8 — §5.1 partitioning: k independent choice groups (direct chain has 2^k states; classes have 2 each)",
        &["classes k", "direct chain states", "p (both agree)", "direct", "partitioned", "speedup"],
        &rows,
    );
}

/// E9 — Table 2 / Example 2.2: repair-key enumeration and sampling.
fn e9_repair_key() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut rows = Vec::new();
    // The paper's exact Table 2 numbers.
    let worlds = pfq_algebra::repair_key::enumerate_repairs(
        &basketball::players_relation(),
        &["player".to_string()],
        Some("belief"),
        None,
    )
    .unwrap();
    println!(
        "\nE9 Table 2 check: 4 worlds, Pr[bryant→lakers] = {} (paper: 17/20), Pr[iverson→sixers] = {} (paper: 8/15)",
        worlds.probability_that(|w| w.contains(&tuple!["bryant", "la_lakers", 17])),
        worlds.probability_that(|w| w.contains(&tuple!["iverson", "philadelphia_76ers", 8])),
    );
    for (players, options) in [(4usize, 3usize), (8, 3), (10, 4), (12, 4)] {
        let rel = basketball::synthetic_roster(players, options);
        let enumerate = if options.pow(players as u32) <= 100_000 {
            let (d, w) = time_once(|| {
                pfq_algebra::repair_key::enumerate_repairs(
                    &rel,
                    &["player".to_string()],
                    Some("belief"),
                    None,
                )
                .unwrap()
            });
            format!("{} worlds in {}", w.support_size(), fmt_duration(d))
        } else {
            format!("{} worlds (skipped)", options.pow(players as u32))
        };
        let (d, _) = time_once(|| {
            for _ in 0..1000 {
                pfq_algebra::repair_key::sample_repair(
                    &rel,
                    &["player".to_string()],
                    Some("belief"),
                    &mut rng,
                )
                .unwrap();
            }
        });
        rows.push(vec![
            format!("{players}×{options}"),
            enumerate,
            format!("{} / sample", fmt_duration(d / 1000)),
        ]);
    }
    print_table(
        "E9 — repair-key: exact world enumeration (exponential) vs sampling (linear)",
        &["roster (players×options)", "exact enumeration", "sampling"],
        &rows,
    );
}

/// E10 — Example 3.3 PageRank: the forever-query against direct power
/// iteration.
fn e10_pagerank() {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let mut rows = Vec::new();
    for n in [3usize, 4, 5] {
        let g = WeightedGraph::erdos_renyi(n, 0.6, &mut rng);
        let alpha = Ratio::new(3, 20);
        let reference = pagerank_reference(&g, 0.15, 500);
        let mut max_diff = 0f64;
        let (d, ()) = time_once(|| {
            for target in 0..n as i64 {
                let (q, db) = pagerank_query(&g, alpha.clone(), 0, target);
                let p = chain_probability(&q, &db).to_f64();
                max_diff = max_diff.max((p - reference[target as usize]).abs());
            }
        });
        assert!(max_diff < 1e-9);
        rows.push(vec![
            n.to_string(),
            g.edges.len().to_string(),
            format!("{max_diff:.2e}"),
            fmt_duration(d),
        ]);
    }
    print_table(
        "E10 — PageRank forever-query vs direct power iteration (all nodes, exact chain route)",
        &[
            "nodes",
            "edges",
            "max |query − reference|",
            "time (all nodes)",
        ],
        &rows,
    );
}

/// E11 — Example 3.10: Bayesian marginals, datalog vs brute force vs
/// sampling.
fn e11_bayes(knobs: &Knobs) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut rows = Vec::new();
    for n in [4usize, 6, 8, 10] {
        let net = BayesNet::random(n, 2, &mut rng);
        let db = net.to_database();
        let target = n - 1;
        let query = net.marginal_query(&[(target, true)]);
        let (d_exact, p_exact) = time_once(|| tree_probability(&query, &db));
        let reference = net.marginal_reference(&[(target, true)]);
        assert_eq!(p_exact, reference);
        let config = knobs.config(11, n as u64);
        let (d_sample, est) = time_once(|| {
            sample_inflationary::evaluate_with_config(&query, &db, 0.05, 0.05, &config).unwrap()
        });
        assert!((est.estimate - p_exact.to_f64()).abs() < 0.05);
        rows.push(vec![
            n.to_string(),
            format!("{:.4}", p_exact.to_f64()),
            fmt_duration(d_exact),
            format!("{:.4}", est.estimate),
            fmt_duration(d_sample),
        ]);
    }
    print_table(
        "E11 — Bayesian marginals (Ex. 3.10): exact datalog (= brute force, asserted) vs Thm 4.3 sampling",
        &["variables", "exact marginal", "exact time", "sampled", "sampling time"],
        &rows,
    );
}

/// E12 — ablation: the two exact solvers (dense rational Gaussian
/// elimination vs sparse GTH elimination, asserted bit-identical) and
/// f64 power iteration for stationary distributions.
fn e12_stationary_ablation() {
    let mut rows = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let g = WeightedGraph::cycle(n).lazy(1);
        let (q, db) = walk_query(&g, 0, 0);
        let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
        let (d_dense, pi_dense) = time_once(|| dense::stationary(&chain).unwrap());
        let (d_gth, pi_gth) = time_once(|| stationary::exact_stationary(&chain).unwrap());
        assert_eq!(pi_dense, pi_gth, "exact solvers must agree bit for bit");
        let (d_pi, pi_f64) =
            time_once(|| stationary::power_iteration(&chain, 1e-12, 1_000_000).unwrap());
        let max_diff = pi_dense
            .iter()
            .zip(&pi_f64)
            .map(|(e, a)| (e.to_f64() - a).abs())
            .fold(0f64, f64::max);
        rows.push(vec![
            n.to_string(),
            fmt_duration(d_dense),
            fmt_duration(d_gth),
            fmt_duration(d_pi),
            format!("{max_diff:.2e}"),
        ]);
    }
    print_table(
        "E12 — stationary-distribution ablation: dense rational GE vs sparse GTH (bit-identical) vs f64 lazy power iteration",
        &["states", "dense GE", "sparse GTH", "power iteration", "max |diff|"],
        &rows,
    );
}

/// E14 — MCMC programmed in the language: Glauber colorings, exact
/// uniformity, and mixing diagnostics.
fn e14_mcmc_coloring() {
    use pfq_workloads::coloring::ColoringMcmc;
    let mut rows = Vec::new();
    let cases = vec![
        (
            "triangle q=4",
            ColoringMcmc::new(3, vec![(0, 1), (0, 2), (1, 2)], 4),
        ),
        (
            "4-cycle q=3",
            ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 3),
        ),
        (
            "4-cycle q=4",
            ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 4),
        ),
    ];
    for (name, g) in cases {
        let proper = g.enumerate_proper_colorings().len();
        let (query, db) = g.color_query(0, 0);
        let (d, chain) = time_once(|| {
            exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap()
        });
        let reachable = chain.len();
        let uniform_ok = {
            let pi = pfq_markov::stationary::exact_stationary(&chain);
            match pi {
                Ok(pi) => {
                    let u = Ratio::new(1, reachable as i64);
                    pi.iter().all(|p| p == &u)
                }
                Err(_) => false,
            }
        };
        let t = mixing::mixing_time(&chain, 0.05, 100_000)
            .map(|t| t.to_string())
            .unwrap_or_else(|| "—".into());
        rows.push(vec![
            name.to_string(),
            proper.to_string(),
            reachable.to_string(),
            uniform_ok.to_string(),
            t,
            fmt_duration(d),
        ]);
    }
    print_table(
        "E14 — Glauber-coloring MCMC as a forever-query: exact uniformity over proper colorings",
        &[
            "instance",
            "proper colorings",
            "reachable states",
            "stationary uniform",
            "t(0.05)",
            "chain build",
        ],
        &rows,
    );
}

/// E15 — the shared memo on repeated exact queries (`DESIGN.md` §8b,
/// §8e): the 7 queries of a multi-`@query` file (one program, one
/// pc-table, different events) over the Thm 4.1 3-SAT pc-table with
/// n = m = 6, through one engine and through the un-memoized reference.
/// Asserts bit-identical answers, a memo speedup ≥ 2× and bare plan
/// construction on a warm engine < 1 % of an engine run.
fn e15_memoization() {
    const RUNS: usize = 9;
    const PLAN_ITERS: u32 = 200;
    let (n, m) = (6, 6);
    let (f, _) = Cnf::random_satisfiable(n, m, &mut ChaCha8Rng::seed_from_u64(9));
    let (base, input) = theorem_4_1_pc(&f);
    // The base `Done(a)` event plus one reachability event per clause.
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
    let reference = || -> Vec<Ratio> {
        queries
            .iter()
            .map(|q| reference_pc_probability(q, &input, None).unwrap())
            .collect()
    };
    assert_eq!(
        engine_run(&mut Engine::new()),
        reference(),
        "engine and reference answers diverged"
    );
    // Alternate the two paths so host drift hits both alike, and gate on
    // the median pair's ratio.
    let mut pairs: Vec<_> = (0..RUNS)
        .map(|_| {
            let (t_engine, _) = time_once(|| engine_run(&mut Engine::new()));
            let (t_reference, _) = time_once(reference);
            let speedup = t_reference.as_secs_f64() / t_engine.as_secs_f64();
            (speedup, t_engine, t_reference)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (speedup, t_engine, t_reference) = pairs[RUNS / 2];
    // Bare planning on a warm engine: the steady state of a multi-query
    // file after its first evaluation.
    let mut warm = Engine::new();
    engine_run(&mut warm);
    let t_plans = time_median(RUNS, || {
        for _ in 0..PLAN_ITERS {
            for r in &requests {
                warm.plan(r).unwrap();
            }
        }
    }) / PLAN_ITERS;
    let plan_share = t_plans.as_secs_f64() / t_engine.as_secs_f64();
    print_table(
        &format!(
            "E15 — one engine's shared memo vs the un-memoized reference (3-SAT pc-table n = {n}, \
             m = {m}, {} queries; median pair of {RUNS} alternating runs)",
            queries.len()
        ),
        &["path", "wall-clock", "vs engine run"],
        &[
            vec![
                "un-memoized reference".into(),
                fmt_duration(t_reference),
                format!("{speedup:.1}× (memo speedup, gate ≥ 2×)"),
            ],
            vec![
                "engine, one shared cache".into(),
                fmt_duration(t_engine),
                "1.0×".into(),
            ],
            vec![
                "bare planning, warm engine".into(),
                fmt_duration(t_plans),
                format!("{:.3}% (gate < 1%)", plan_share * 100.0),
            ],
        ],
    );
    assert!(
        speedup >= 2.0,
        "expected ≥2× speedup from the shared cache, measured {speedup:.2}×"
    );
    assert!(
        plan_share < 0.01,
        "plan construction cost {:.3}% of an engine run — expected < 1%",
        plan_share * 100.0
    );
}

/// E16 — ablation (`DESIGN.md` §8c): sparse GTH vs dense rational GE on
/// lazy birth–death chains. Dense GE holds all n² entries, so it is
/// timed only up to n = 1200, where GTH must be ≥ 5× faster. Asserts
/// bit-identical answers wherever dense runs and GTH peak entries
/// < 20·n at every n.
fn e16_stationary_scaling() {
    const GATE: usize = 1200;
    let mut rows = Vec::new();
    for n in [200usize, 800, GATE, 3200] {
        let chain = lazy_birth_death_chain(n);
        let (d_gth, (pi_gth, stats)) =
            time_once(|| gth::stationary_sparse_with_stats(&chain).unwrap());
        assert!(
            stats.peak_entries < 20 * n,
            "GTH peak memory not linear: {} entries at n = {n}",
            stats.peak_entries
        );
        let (dense_cell, speedup_cell) = if n <= GATE {
            let (d_dense, pi_dense) = time_once(|| dense::stationary(&chain).unwrap());
            assert_eq!(pi_dense, pi_gth, "dense and GTH diverged at n = {n}");
            let speedup = d_dense.as_secs_f64() / d_gth.as_secs_f64();
            assert!(
                n < GATE || speedup >= 5.0,
                "expected ≥5× GTH speedup at n = {n}, measured {speedup:.2}×"
            );
            (fmt_duration(d_dense), format!("{speedup:.0}×"))
        } else {
            ("skipped (O(n²) memory)".into(), "—".into())
        };
        rows.push(vec![
            n.to_string(),
            dense_cell,
            fmt_duration(d_gth),
            speedup_cell,
            stats.peak_entries.to_string(),
            (n * n).to_string(),
        ]);
    }
    print_table(
        "E16 — stationary solve on a lazy birth–death chain: dense GE vs sparse GTH (bit-identical; gate ≥ 5× at n = 1200)",
        &[
            "states",
            "dense GE",
            "sparse GTH",
            "speedup",
            "GTH peak entries",
            "dense entries (n²)",
        ],
        &rows,
    );
}

/// E17 — the engine planner: `Strategy::Auto` vs forced paths. On the
/// 3-SAT pc-table the planner's world probe flips from exact tree
/// traversal to Thm 4.3 sampling once `2^n` passes the world cap; on the
/// Glauber-coloring chains the state probe keeps the exact chain, with
/// Thm 5.6 restart sampling as the forced alternative. Every overlapping
/// answer is asserted identical (exact) or within tolerance (sampled).
fn e17_planner(knobs: &Knobs) {
    print_table(
        "E17 — planner-chosen vs forced strategies (Auto plans exact while the probe fits the budget, samples past it; overlapping answers asserted identical)",
        &["workload", "auto plan", "auto time", "forced exact", "forced sampling"],
        &e17_rows(knobs),
    );
}

/// E17's work: one row per workload, every overlapping answer asserted.
fn e17_rows(knobs: &Knobs) -> Vec<Vec<String>> {
    use pfq_core::Strategy;
    use pfq_workloads::coloring::ColoringMcmc;
    let mut rows = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    for n in [6usize, 8, 10, 12] {
        let (f, _) = Cnf::random_satisfiable(n, n, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        let seed = knobs.seed ^ (17 << 32) ^ n as u64;
        let request = |strategy| {
            EvalRequest::inflationary_pc(&query, &input)
                .with_strategy(strategy)
                .with_seed(seed)
                .with_threads(knobs.threads)
        };
        let (d_auto, auto) = time_once(|| Engine::new().run(&request(Strategy::Auto)).unwrap());
        let (d_exact, exact) =
            time_once(|| Engine::new().run(&request(Strategy::ExactTree)).unwrap());
        let (d_sample, sampled) = time_once(|| {
            Engine::new()
                .run(&request(Strategy::SampleFixpoint))
                .unwrap()
        });
        // Whatever the planner picked must match its forced twin.
        match auto.value.exact() {
            Some(p) => assert_eq!(
                Some(p),
                exact.value.exact(),
                "auto exact diverged from forced exact tree"
            ),
            None => assert_eq!(
                auto.value.to_f64().to_bits(),
                sampled.value.to_f64().to_bits(),
                "auto estimate diverged from forced sampling at the same seed"
            ),
        }
        rows.push(vec![
            format!("3-SAT n={n} (2^{n} worlds)"),
            auto.plan.action.name().to_string(),
            fmt_duration(d_auto),
            fmt_duration(d_exact),
            fmt_duration(d_sample),
        ]);
    }
    for (name, g) in [
        (
            "coloring triangle q=4",
            ColoringMcmc::new(3, vec![(0, 1), (0, 2), (1, 2)], 4),
        ),
        (
            "coloring 4-cycle q=4",
            ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 4),
        ),
    ] {
        let (query, db) = g.color_query(0, 0);
        let seed = knobs.seed ^ (17 << 32) ^ 0xC0;
        let request = |strategy| {
            EvalRequest::forever(&query, &db)
                .with_strategy(strategy)
                .with_seed(seed)
                .with_threads(knobs.threads)
                .with_epsilon_delta(0.05, 0.05)
        };
        let (d_auto, auto) = time_once(|| Engine::new().run(&request(Strategy::Auto)).unwrap());
        let (d_exact, exact) =
            time_once(|| Engine::new().run(&request(Strategy::ExactChain)).unwrap());
        // burn_in: None → the planner measures t(ε) on the explicit chain.
        let (d_sample, sampled) = time_once(|| {
            Engine::new()
                .run(&request(Strategy::BurnInSample { burn_in: None }))
                .unwrap()
        });
        assert_eq!(
            auto.value.exact(),
            exact.value.exact(),
            "auto diverged from the forced exact chain"
        );
        // Restart sampling estimates P^B mass: ε_mix + ε_sample ≤ 0.1,
        // plus slack for the δ-probability tail.
        let p = exact.value.to_f64();
        assert!(
            (sampled.value.to_f64() - p).abs() <= 0.15,
            "restart-sampling estimate strayed from the exact long-run probability"
        );
        rows.push(vec![
            name.to_string(),
            auto.plan.action.name().to_string(),
            fmt_duration(d_auto),
            fmt_duration(d_exact),
            fmt_duration(d_sample),
        ]);
    }
    rows
}

/// Runs per ledger entry.
const LEDGER_RUNS: usize = 5;

/// Times the ledger's layers and end-to-end workloads on one thread and
/// writes `BENCH_{name}.json` at the repository root. Every counter is a
/// work count of one run, the same in every run.
fn write_ledger(name: &str, seed: u64) {
    let knobs = Knobs {
        threads: 1,
        seed,
        ledger: None,
    };
    let (_, f) = e1_formulas().into_iter().find(|(n, _)| *n == 10).unwrap();
    let (query, input) = theorem_4_1_pc(&f);
    let e1 = "E1 n = 10: Thm 4.1 3-SAT pc-table, 1024 worlds";
    let mut entries = Vec::new();

    // One exact pc-table evaluation on a fresh memo, per tree node.
    let mut stats = EvalCache::default().stats();
    let mut step_ms = Vec::new();
    let per_node = (0..LEDGER_RUNS)
        .map(|_| {
            let mut cache = EvalCache::default();
            let (d, _) = time_once(|| {
                exact_inflationary::evaluate_pc(&query, &input, ExactBudget::default(), &mut cache)
                    .unwrap()
            });
            stats = cache.stats();
            step_ms.push(d.as_secs_f64() * 1e3);
            d.as_secs_f64() * 1e9 / stats.engine_states as f64
        })
        .collect();
    let tree_counters = vec![
        ("tree_nodes", stats.engine_states as u64),
        ("row_evals", stats.step_misses),
        ("state_bytes", stats.approx_bytes as u64),
    ];
    entries.push(LedgerEntry {
        layer: "datalog-step",
        workload: format!("{e1}, exact tree on a fresh memo"),
        unit: "ns/tree node",
        runs: per_node,
        counters: tree_counters.clone(),
    });

    // Interning every successor the same trees produce, in order.
    let successors = tree_successors(&query, &input);
    let mut store: Interner<(usize, EngineState)> = Interner::new();
    let per_call = (0..LEDGER_RUNS)
        .map(|_| {
            let batch = successors.clone();
            store = Interner::new();
            let (d, _) = time_once(|| {
                for state in batch {
                    store.intern(state);
                }
            });
            d.as_secs_f64() * 1e9 / successors.len() as f64
        })
        .collect();
    entries.push(LedgerEntry {
        layer: "intern",
        workload: format!("{e1}: every successor of every world's tree, keyed by world"),
        unit: "ns/intern",
        runs: per_call,
        counters: vec![
            ("interns", successors.len() as u64),
            ("distinct", store.len() as u64),
            ("hits", store.hits()),
        ],
    });

    let walk = E5Walk::new();
    let mut samples = 0;
    let rates = (0..LEDGER_RUNS)
        .map(|_| {
            let (d, report) = time_once(|| walk.run(&knobs, 1));
            samples = report.samples;
            report.samples as f64 / d.as_secs_f64()
        })
        .collect();
    entries.push(LedgerEntry {
        layer: "sampler",
        workload: "E5 walk: reachability on a 40-node graph, 1 thread".into(),
        unit: "trials/s",
        runs: rates,
        counters: vec![("samples", samples as u64)],
    });

    entries.push(LedgerEntry {
        layer: "e2e",
        workload: e1.into(),
        unit: "ms",
        runs: step_ms,
        counters: tree_counters,
    });
    let mut e5_samples = 0;
    let e5_ms = (0..LEDGER_RUNS)
        .map(|_| {
            let (d, sweep) = time_once(|| e5_sweep(&knobs));
            e5_samples = sweep.accuracy.samples
                + sweep.sizes.iter().map(|(_, r, _)| r.samples).sum::<usize>();
            d.as_secs_f64() * 1e3
        })
        .collect();
    entries.push(LedgerEntry {
        layer: "e2e",
        workload: "E5: accuracy check and the 10..80-node sweep".into(),
        unit: "ms",
        runs: e5_ms,
        counters: vec![("samples", e5_samples as u64)],
    });
    let e17_ms = (0..LEDGER_RUNS)
        .map(|_| time_once(|| e17_rows(&knobs)).0.as_secs_f64() * 1e3)
        .collect();
    entries.push(LedgerEntry {
        layer: "e2e",
        workload: "E17: every planner row, auto and both forced paths".into(),
        unit: "ms",
        runs: e17_ms,
        counters: Vec::new(),
    });

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            let (median, min, max) = e.spread();
            vec![
                e.layer.to_string(),
                e.workload.clone(),
                format!("{median:.1} {} ({min:.1}..{max:.1})", e.unit),
            ]
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"));
    std::fs::write(&path, ledger_json(name, 1, seed, &entries))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    print_table(
        &format!("Ledger BENCH_{name}.json (median of {LEDGER_RUNS} runs, min..max, 1 thread)"),
        &["layer", "workload", "median (min..max)"],
        &rows,
    );
}

/// Every successor state the exact trees of `input`'s worlds produce,
/// in the order the traversal meets them, each beside its world's index
/// (as the memo keys a state beside its input's base): each node stepped
/// once, from Δ of the first parent that reached it.
fn tree_successors(query: &DatalogQuery, input: &PcDatabase) -> Vec<(usize, EngineState)> {
    let program = CompiledProgram::new(&query.program);
    let mut out = Vec::new();
    for (index, (world, _)) in input.enumerate_worlds().unwrap().iter().enumerate() {
        let (edb, initial) = EngineState::initial(&query.program, world).unwrap();
        let mut frontier = BTreeMap::from([(initial, None)]);
        while let Some((state, delta)) = frontier.pop_first() {
            let Some(next) = step_distribution(&program, &edb, &state, delta.as_ref()).unwrap()
            else {
                continue;
            };
            for (child, _) in next.into_iter() {
                out.push((index, child.clone()));
                frontier
                    .entry(child)
                    .or_insert_with_key(|child| Some(child.delta_from(&state)));
            }
        }
    }
    out
}
