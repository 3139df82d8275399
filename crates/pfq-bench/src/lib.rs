//! Shared measurement utilities for the experiment harness.
//!
//! The `experiments` binary (`src/bin/experiments.rs`) is the one
//! harness that times the paper's workloads: it regenerates the *shape*
//! of every Table 1 claim as a printed table — scaling sweeps with
//! wall-clock timings and asserted accuracy cross-checks — recorded in
//! `EXPERIMENTS.md`. The four `harness = false` benches (`benches/`)
//! each assert one implementation claim against its reference:
//! memoization, the GTH stationary solver, planner overhead, and
//! sampler thread scaling.

use pfq_core::exact_inflationary::{self, ExactBudget};
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_core::{DatalogQuery, EvalCache, ForeverQuery};
use pfq_ctable::PcDatabase;
use pfq_data::Database;
use pfq_num::Ratio;
use std::time::{Duration, Instant};

/// Prop 4.4 exact probability under the default budget, on a fresh cache
/// (so a timed call never reuses an earlier call's memo).
pub fn tree_probability(query: &DatalogQuery, db: &Database) -> Ratio {
    exact_inflationary::evaluate(query, db, ExactBudget::default(), &mut EvalCache::default())
        .unwrap()
}

/// Prop 4.4 exact probability over a pc-table under the default budget,
/// on a fresh cache.
pub fn pc_probability(query: &DatalogQuery, input: &PcDatabase) -> Ratio {
    exact_inflationary::evaluate_pc(
        query,
        input,
        ExactBudget::default(),
        &mut EvalCache::default(),
    )
    .unwrap()
}

/// Thm 5.5 exact long-run probability under the default budget, on a
/// fresh cache.
pub fn chain_probability(query: &ForeverQuery, db: &Database) -> Ratio {
    exact_noninflationary::evaluate(query, db, ChainBudget::default(), &mut EvalCache::default())
        .unwrap()
}

/// Times `f` once and returns the wall-clock duration and its result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Median-of-`runs` wall-clock timing of `f` (result discarded).
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs > 0);
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let _ = f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Formats a duration compactly for table output.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

/// Prints a markdown table (used by the experiments binary so its output
/// can be pasted into `EXPERIMENTS.md` verbatim).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive() {
        let (d, v) = time_once(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d.as_nanos() > 0);
        let m = time_median(3, || (0..1000).sum::<u64>());
        assert!(m.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12 µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00 s");
    }
}
