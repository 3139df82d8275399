//! Shared measurement utilities for the experiment harness.
//!
//! The `experiments` binary (`src/bin/experiments.rs`) is the one
//! harness that times the paper's workloads: it regenerates the *shape*
//! of every Table 1 claim as a printed table — scaling sweeps with
//! wall-clock timings and asserted accuracy cross-checks — recorded in
//! `EXPERIMENTS.md`. It also asserts the implementation claims against
//! their references: the shared memo and plan construction (E15), the
//! GTH stationary solver (E16) and sampler thread counts (E5).

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

/// One entry of a `BENCH_*.json` ledger: a layer or end-to-end workload
/// timed over several runs, plus work counters that do not depend on
/// timing.
pub struct LedgerEntry {
    /// The layer measured (`datalog-step`, `intern`, `sampler`, `e2e`).
    pub layer: &'static str,
    /// The fixed, seeded input it was measured on.
    pub workload: String,
    /// The unit of each run's measurement.
    pub unit: &'static str,
    /// One measurement per run.
    pub runs: Vec<f64>,
    /// Deterministic work counters of one run.
    pub counters: Vec<(&'static str, u64)>,
}

impl LedgerEntry {
    /// `(median, min, max)` of the runs (the upper median for an even
    /// count).
    pub fn spread(&self) -> (f64, f64, f64) {
        let mut runs = self.runs.clone();
        runs.sort_by(f64::total_cmp);
        (runs[runs.len() / 2], runs[0], runs[runs.len() - 1])
    }
}

/// Renders a ledger as JSON: its name, the engine knobs and host it ran
/// with, and one object per entry holding the median, min and max of
/// its runs and its counters.
pub fn ledger_json(name: &str, threads: usize, seed: u64, entries: &[LedgerEntry]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = format!(
        "{{\n  \"ledger\": {name:?},\n  \"threads\": {threads},\n  \"seed\": {seed},\n  \
         \"host_cpus\": {cpus},\n  \"entries\": [\n"
    );
    for (i, e) in entries.iter().enumerate() {
        let (median, min, max) = e.spread();
        let counters: Vec<String> = e
            .counters
            .iter()
            .map(|(k, v)| format!("{k:?}: {v}"))
            .collect();
        out.push_str(&format!(
            "    {{\"layer\": {:?}, \"workload\": {:?}, \"unit\": {:?}, \"runs\": {}, \
             \"median\": {median:.6}, \"min\": {min:.6}, \"max\": {max:.6}, \
             \"counters\": {{{}}}}}{}\n",
            e.layer,
            e.workload,
            e.unit,
            e.runs.len(),
            counters.join(", "),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_renders_spread_and_counters() {
        let entry = LedgerEntry {
            layer: "intern",
            workload: "w".into(),
            unit: "ns/call",
            runs: vec![3.0, 1.0, 2.0],
            counters: vec![("calls", 7)],
        };
        assert_eq!(entry.spread(), (2.0, 1.0, 3.0));
        let json = ledger_json("x", 1, 0, &[entry]);
        assert!(json.contains(
            "{\"layer\": \"intern\", \"workload\": \"w\", \"unit\": \"ns/call\", \"runs\": 3, \
             \"median\": 2.000000, \"min\": 1.000000, \"max\": 3.000000, \"counters\": {\"calls\": 7}}\n"
        ));
        assert!(json.starts_with("{\n  \"ledger\": \"x\",\n  \"threads\": 1,"));
    }

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
