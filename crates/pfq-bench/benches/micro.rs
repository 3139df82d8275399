//! Criterion micro-benches for the worked examples and the design
//! ablation (experiments E9–E12 of `DESIGN.md`).
//!
//! Run with `cargo bench -p pfq-bench --bench micro`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfq_algebra::repair_key::{enumerate_repairs, sample_repair};
use pfq_bench::{chain_probability, tree_probability};
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_markov::stationary;
use pfq_num::Ratio;
use pfq_workloads::basketball;
use pfq_workloads::bayes::BayesNet;
use pfq_workloads::graphs::{walk_query, WeightedGraph};
use pfq_workloads::pagerank::pagerank_query;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// E9 — repair-key (Table 2): exact enumeration vs single-world sampling.
fn bench_e9_repair_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_repair_key");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let key = ["player".to_string()];
    let table2 = basketball::players_relation();
    group.bench_function("enumerate_table2", |b| {
        b.iter(|| enumerate_repairs(&table2, &key, Some("belief"), None).unwrap())
    });
    for players in [4usize, 8] {
        let roster = basketball::synthetic_roster(players, 3);
        group.bench_with_input(
            BenchmarkId::new("enumerate_roster", players),
            &players,
            |b, _| b.iter(|| enumerate_repairs(&roster, &key, Some("belief"), None).unwrap()),
        );
    }
    let big = basketball::synthetic_roster(32, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    group.bench_function("sample_roster_32x4", |b| {
        b.iter(|| sample_repair(&big, &key, Some("belief"), &mut rng).unwrap())
    });
    group.finish();
}

/// E10 — PageRank forever-query, exact chain route.
fn bench_e10_pagerank(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_pagerank");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [3usize, 4, 5] {
        let g = WeightedGraph::cycle(n);
        let (q, db) = pagerank_query(&g, Ratio::new(3, 20), 0, 0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| chain_probability(&q, &db))
        });
    }
    group.finish();
}

/// E11 — Bayesian marginals via exact datalog evaluation.
fn bench_e11_bayes(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_bayes_exact");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [4usize, 6, 8] {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let net = BayesNet::random(n, 2, &mut rng);
        let db = net.to_database();
        let query = net.marginal_query(&[(n - 1, true)]);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| tree_probability(&query, &db))
        });
    }
    group.finish();
}

/// E12 — stationary-distribution ablation: exact rational Gaussian
/// elimination vs f64 lazy power iteration on the same chains.
fn bench_e12_stationary_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_stationary");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for n in [16usize, 32, 64] {
        let g = WeightedGraph::cycle(n).lazy(1);
        let (q, db) = walk_query(&g, 0, 0);
        let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("exact_ge", n), &n, |b, _| {
            b.iter(|| stationary::exact_stationary(&chain).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("power_iteration", n), &n, |b, _| {
            b.iter(|| stationary::power_iteration(&chain, 1e-12, 1_000_000).unwrap())
        });
    }
    group.finish();
}

/// E13 — ablation: the algebraic optimizer's effect on kernel-step
/// evaluation (redundant selections/projections around the walk kernel).
fn bench_e13_optimizer_ablation(c: &mut Criterion) {
    use pfq_algebra::{Expr, Interpretation, Pred};
    let mut group = c.benchmark_group("e13_optimizer");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let g = WeightedGraph::complete(12);
    let db = g.walker_database(0);
    // A deliberately redundant version of the Example 3.3 kernel.
    let redundant = Interpretation::new().with(
        "C",
        Expr::rel("C")
            .select(Pred::True)
            .join(Expr::rel("E").select(Pred::True))
            .select(Pred::True)
            .repair_key(["i"], Some("p"))
            .project(["i", "j", "p"])
            .project(["j"])
            .rename([("j", "i")])
            .rename([("i", "i")]),
    );
    let optimized = redundant.clone().optimized();
    group.bench_function("redundant_kernel", |b| {
        b.iter(|| redundant.enumerate_step(&db, None).unwrap())
    });
    group.bench_function("optimized_kernel", |b| {
        b.iter(|| optimized.enumerate_step(&db, None).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_e9_repair_key,
    bench_e10_pagerank,
    bench_e11_bayes,
    bench_e12_stationary_ablation,
    bench_e13_optimizer_ablation,
);
criterion_main!(benches);
