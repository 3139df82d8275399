//! Criterion benches for Table 1's *non-inflationary* row (experiments
//! E3, E6, E7, E8 of `DESIGN.md`).
//!
//! Run with `cargo bench -p pfq-bench --bench table1_noninflationary`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfq_bench::chain_probability;
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_core::sampler::SamplerConfig;
use pfq_core::{mixing_sampler, partition, DatalogQuery, EvalCache, Event};
use pfq_data::{tuple, Database, Relation, Schema};
use pfq_datalog::eval::CompiledProgram;
use pfq_datalog::inflationary::{sample_fixpoint, EngineState};
use pfq_workloads::graphs::{walk_query, WeightedGraph};
use pfq_workloads::sat::{theorem_4_1_pc, Cnf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// E3 — the infeasibility of relative approximation, measured as the
/// cost of sampling until the first positive observation when
/// p = 1/2^k (Thm 4.1's pinned formulas).
fn bench_e3_relative_vs_absolute(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_samples_to_first_hit");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for k in [1usize, 3, 5] {
        let f = Cnf::pinned(k);
        let (query, input) = theorem_4_1_pc(&f);
        let program = CompiledProgram::new(&query.program);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                // One "relative-approximation probe": sample until hit.
                loop {
                    let world = input.sample_world(&mut rng).unwrap();
                    let start = EngineState::initial(&query.program, &world).unwrap();
                    let fp = sample_fixpoint(&program, &start, &mut rng, 1_000_000).unwrap();
                    if query.event.holds(&fp) {
                        break;
                    }
                }
            })
        });
    }
    group.finish();
}

/// E6 — exact non-inflationary evaluation: explicit chain construction
/// plus exact stationary analysis, swept over chain size.
fn bench_e6_exact_noninflationary(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_exact_noninflationary");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [8usize, 16, 32] {
        let g = WeightedGraph::cycle(n).lazy(1);
        let (q, db) = walk_query(&g, 0, (n / 2) as i64);
        group.bench_with_input(BenchmarkId::new("lazy_cycle", n), &n, |b, _| {
            b.iter(|| chain_probability(&q, &db))
        });
    }
    for n in [8usize, 16] {
        let g = WeightedGraph::path(n);
        let (q, db) = walk_query(&g, 0, n as i64 - 1);
        group.bench_with_input(BenchmarkId::new("absorbing_path", n), &n, |b, _| {
            b.iter(|| chain_probability(&q, &db))
        });
    }
    group.finish();
}

/// E7 — Thm 5.6 sampling: with the burn-in set to the measured mixing
/// time, cost tracks the mixing time at fixed node count.
fn bench_e7_mixing_time_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_mixing_time_sampling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    let cases: Vec<(&str, WeightedGraph)> = vec![
        ("complete_8_t1", WeightedGraph::complete(8)),
        ("lazy_cycle_8_t32", WeightedGraph::cycle(8).lazy(1)),
        ("dumbbell_2x6_t55", WeightedGraph::dumbbell(6)),
    ];
    for (name, g) in cases {
        let (q, db) = walk_query(&g, 0, 0);
        let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
        let t = pfq_markov::mixing::mixing_time(&chain, 0.05, 100_000).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
                mixing_sampler::evaluate_with_burn_in_config(&q, &db, t, 0.2, 0.1, &config).unwrap()
            })
        });
    }
    group.finish();
}

fn coin_db(k: usize) -> Database {
    let rows: Vec<_> = (0..k as i64)
        .flat_map(|key| [tuple![key, 0, 1], tuple![key, 1, key + 1]])
        .collect();
    Database::new().with("R", Relation::from_rows(Schema::new(["k", "v", "w"]), rows))
}

fn coin_query(k: usize) -> DatalogQuery {
    let program = pfq_datalog::parse_program("H(K!, V) @W :- R(K, V, W).").unwrap();
    let mut event = Event::tuple_in("H", tuple![0, 1]);
    for key in 1..k as i64 {
        event = event.or(Event::tuple_in("H", tuple![key, 1]));
    }
    DatalogQuery::new(program, event)
}

/// E8 — §5.1 partitioning: direct (2^k-state chain) vs per-class
/// evaluation.
fn bench_e8_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_partitioning");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for k in [3usize, 4, 5] {
        let db = coin_db(k);
        let query = coin_query(k);
        group.bench_with_input(BenchmarkId::new("direct", k), &k, |b, _| {
            b.iter(|| {
                let (fq, prepared) = query.to_forever_query(&db).unwrap();
                chain_probability(&fq, &prepared)
            })
        });
        group.bench_with_input(BenchmarkId::new("partitioned", k), &k, |b, _| {
            b.iter(|| {
                partition::evaluate_partitioned(
                    &query,
                    &db,
                    ChainBudget::default(),
                    &mut EvalCache::default(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_e3_relative_vs_absolute,
    bench_e6_exact_noninflationary,
    bench_e7_mixing_time_sampling,
    bench_e8_partitioning,
);
criterion_main!(benches);
