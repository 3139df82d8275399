//! Criterion benches for Table 1's *inflationary* rows (experiments
//! E1, E2, E4, E5 of `DESIGN.md`).
//!
//! Run with `cargo bench -p pfq-bench --bench table1_inflationary`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfq_bench::{pc_probability, tree_probability};
use pfq_core::sample_inflationary;
use pfq_core::sampler::SamplerConfig;
use pfq_data::Database;
use pfq_workloads::graphs::{reachability_query, WeightedGraph};
use pfq_workloads::sat::{theorem_4_1_pc, Cnf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// E1 — exact evaluation of linear datalog over pc-tables: the Thm 4.1
/// workload; expect ~4× time per +2 variables (2ⁿ input worlds).
fn bench_e1_exact_linear_datalog(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_exact_linear_datalog");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for n in [4usize, 6, 8] {
        let (f, _) = Cnf::random_satisfiable(n, n, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| pc_probability(&query, &input))
        });
    }
    group.finish();
}

/// E2 — absolute approximation on the same workload: PTIME in n.
fn bench_e2_absolute_approx_datalog(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_absolute_approx_datalog");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [8usize, 16, 32] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (f, _) = Cnf::random_satisfiable(n, n, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
                sample_inflationary::evaluate_pc_with_config(&query, &input, 0.1, 0.05, &config)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// E4 — exact inflationary reachability (Ex. 3.9): computation-tree
/// traversal; expect super-polynomial growth in graph size.
fn bench_e4_exact_inflationary(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_exact_inflationary_reachability");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for n in [3usize, 4, 5] {
        let g = WeightedGraph::erdos_renyi(n, 0.6, &mut rng);
        let db = Database::new().with("E", g.edge_relation());
        let query = reachability_query(0, n as i64 - 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| tree_probability(&query, &db))
        });
    }
    group.finish();
}

/// E5 — Thm 4.3 sampling on reachability: polynomial in n.
fn bench_e5_sampling_inflationary(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_sampling_reachability");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [10usize, 20, 40] {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = WeightedGraph::erdos_renyi(n, 0.3, &mut rng);
        let db = Database::new().with("E", g.edge_relation());
        let query = reachability_query(0, n as i64 - 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let config = SamplerConfig::seeded(rng.gen());
                sample_inflationary::evaluate_with_samples_config(&query, &db, 50, &config).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_e1_exact_linear_datalog,
    bench_e2_absolute_approx_datalog,
    bench_e4_exact_inflationary,
    bench_e5_sampling_inflationary,
);
criterion_main!(benches);
