//! Multi-core scaling of the shared sampling engine.
//!
//! Fixed total work (a fixed sample count, no early stopping) on a
//! Table-1-style reachability workload, swept over worker-thread
//! counts. The engine's deterministic per-trial seeding means every
//! row computes the *same* estimate (asserted to the bit) — only the
//! wall time changes. Expect near-linear speedup: ≥2× at 4 threads on a
//! 4-core machine.
//!
//! Run with `cargo bench -p pfq-bench --bench sampler_scaling`.

use pfq_bench::{fmt_duration, print_table, time_median};
use pfq_core::sample_inflationary;
use pfq_core::sampler::SamplerConfig;
use pfq_data::Database;
use pfq_workloads::graphs::{reachability_query, WeightedGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SAMPLES: usize = 200;
const RUNS: usize = 10;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let n = 40;
    let g = WeightedGraph::erdos_renyi(n, 0.3, &mut rng);
    let db = Database::new().with("E", g.edge_relation());
    let query = reachability_query(0, n as i64 - 1);
    let run = |threads: usize| {
        let config = SamplerConfig::seeded(7).with_threads(threads);
        sample_inflationary::evaluate_with_samples_config(&query, &db, SAMPLES, &config).unwrap()
    };

    let baseline = run(1);
    let mut t_one = None;
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            run(threads).estimate.to_bits(),
            baseline.estimate.to_bits(),
            "thread count changed the estimate"
        );
        let t = time_median(RUNS, || run(threads));
        let t_one = *t_one.get_or_insert(t);
        rows.push(vec![
            threads.to_string(),
            fmt_duration(t),
            format!("{:.1}×", t_one.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    print_table(
        &format!(
            "Sampler thread scaling (reachability, n = {n}, {SAMPLES} samples, \
             median of {RUNS} runs, estimate {})",
            baseline.estimate
        ),
        &["threads", "median wall-clock", "speedup"],
        &rows,
    );
}
