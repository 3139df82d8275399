#![warn(missing_docs)]

//! Grammar-aware differential fuzzer for the PFQ query languages.
//!
//! The repro's evaluators — exact inflationary (Prop. 4.4), memoized,
//! Theorem 4.3 sampling, dense/GTH non-inflationary (Thm. 5.5),
//! §5.1 partitioned, Theorem 5.6 burn-in sampling — implement the *same*
//! paper semantics through very different code paths. This crate
//! generates thousands of random valid probabilistic programs
//! ([`gen`]), pushes each through every configured path, and
//! cross-checks the results with differential and metamorphic oracles
//! ([`oracle`]): total mass 1, inflationary monotonicity, bit-identical
//! memo/thread/intern-id invariance, and `(ε, δ)` sampling bounds.
//!
//! Failures are reduced by an integrated delta-debugging shrinker
//! ([`shrink`]) and emitted as runnable `.pfq` reproducers ([`render`]).
//! Seeded faults ([`mutants`]) let the test suite prove the harness
//! actually catches the bug classes it claims to.
//!
//! Everything is deterministic: case `i` of a campaign with seed `s`
//! derives its RNG from `(s, i)` exactly like the sampling engine's
//! per-trial streams, so a campaign is reproducible from its seed
//! alone, at any thread count, on any machine.

pub mod gen;
pub mod mutants;
pub mod oracle;
pub mod render;
pub mod shrink;

pub use gen::{FuzzCase, GenConfig};
pub use mutants::Fault;
pub use oracle::{CheckId, Oracle, OracleConfig, Outcome, PathSet};

use pfq_core::EvalCache;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// A whole campaign's configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Root seed; case `i` uses an RNG derived from `(seed, i)`.
    pub seed: u64,
    /// How many programs to generate and check.
    pub programs: usize,
    /// Generator size knobs.
    pub gen: GenConfig,
    /// Oracle budgets and tolerances.
    pub oracle: OracleConfig,
    /// Wall-clock budget: stop early (reporting how many cases ran)
    /// once exceeded. `None` means run all `programs` cases.
    pub time_budget: Option<Duration>,
    /// Seeded fault for harness self-checking.
    pub fault: Option<Fault>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 42,
            programs: 200,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            time_budget: None,
            fault: None,
        }
    }
}

/// A divergence: the failing check, the original and shrunk cases, and
/// the runnable reproducer text.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the failing case within the campaign.
    pub case_index: usize,
    /// The per-case seed (replays the sampling checks exactly).
    pub case_seed: u64,
    /// Which check failed.
    pub check: CheckId,
    /// The oracle's failure detail.
    pub detail: String,
    /// The case as generated.
    pub original: FuzzCase,
    /// The delta-debugged minimal case.
    pub shrunk: FuzzCase,
    /// Shrinker statistics.
    pub shrink_stats: shrink::ShrinkStats,
    /// The shrunk case rendered as a runnable `.pfq` file.
    pub reproducer: String,
}

/// The result of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Cases requested.
    pub requested: usize,
    /// Cases actually executed (smaller if the time budget expired or a
    /// divergence stopped the run).
    pub executed: usize,
    /// Passes per check.
    pub passes: BTreeMap<CheckId, usize>,
    /// Skips per check (budget exhaustion, off-cadence, inapplicable).
    pub skips: BTreeMap<CheckId, usize>,
    /// The first divergence found, if any.
    pub divergence: Option<Divergence>,
    /// Wall-clock time of the campaign.
    pub elapsed: Duration,
    /// Whether the wall-clock budget cut the campaign short.
    pub timed_out: bool,
}

impl CampaignReport {
    /// Whether the campaign finished without divergence.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} / {} programs checked in {:.1} s{}",
            self.executed,
            self.requested,
            self.elapsed.as_secs_f64(),
            if self.timed_out {
                " (time budget reached)"
            } else {
                ""
            }
        )?;
        for check in CheckId::ALL {
            let passes = self.passes.get(&check).copied().unwrap_or(0);
            let skips = self.skips.get(&check).copied().unwrap_or(0);
            if passes + skips == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<24} {:>6} pass  {:>6} skip",
                check.name(),
                passes,
                skips
            )?;
        }
        match &self.divergence {
            None => writeln!(f, "  no divergence"),
            Some(d) => {
                writeln!(
                    f,
                    "  DIVERGENCE at case {} (seed {}): {}",
                    d.case_index,
                    d.case_seed,
                    d.check.name()
                )?;
                writeln!(f, "    {}", d.detail)?;
                writeln!(
                    f,
                    "    shrunk to {} rule(s), {} tuple(s) \
                     ({} candidates tried, {} reductions applied)",
                    d.shrunk.program.rules.len(),
                    d.shrunk.db.iter().map(|(_, r)| r.len()).sum::<usize>(),
                    d.shrink_stats.candidates,
                    d.shrink_stats.accepted
                )
            }
        }
    }
}

/// Runs a campaign: generate → check → (on failure) shrink and render.
/// Stops at the first divergence — fuzzing resumes naturally once the
/// underlying bug is fixed, and a single minimal reproducer is worth
/// more than a pile of unminimized ones.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let started = Instant::now();
    let oracle = match cfg.fault {
        Some(fault) => Oracle::with_fault(cfg.oracle.clone(), fault),
        None => Oracle::new(cfg.oracle.clone()),
    };
    let mut shared = EvalCache::default();
    let mut report = CampaignReport {
        requested: cfg.programs,
        ..CampaignReport::default()
    };

    for index in 0..cfg.programs {
        if let Some(budget) = cfg.time_budget {
            if started.elapsed() >= budget {
                report.timed_out = true;
                break;
            }
        }
        // The same keyed-stream construction as the sampling engine:
        // case i is fully determined by (seed, i).
        let mut rng = pfq_core::sampler::trial_rng(cfg.seed, index as u64);
        let case = gen::generate(&cfg.gen, &mut rng);
        let case_seed: u64 = rng.gen();
        let sampled = cfg.oracle.sample_cadence <= 1 || index % cfg.oracle.sample_cadence == 0;
        report.executed += 1;

        for (check, outcome) in oracle.run_case(&case, case_seed, sampled, &mut shared) {
            match outcome {
                Outcome::Pass => *report.passes.entry(check).or_insert(0) += 1,
                Outcome::Skip(_) => *report.skips.entry(check).or_insert(0) += 1,
                Outcome::Fail(detail) => {
                    let (shrunk, shrink_stats) = shrink::shrink(&case, &oracle, check, case_seed);
                    let header = vec![
                        format!(
                            "campaign seed {}, case {}, case seed {}",
                            cfg.seed, index, case_seed
                        ),
                        format!("check {}: {}", check.name(), detail),
                    ];
                    let burn_in = oracle::burn_in_depth(&cfg.oracle, case_seed);
                    let reproducer = render::to_pfq(&shrunk, check, case_seed, burn_in, &header);
                    report.divergence = Some(Divergence {
                        case_index: index,
                        case_seed,
                        check,
                        detail,
                        original: case,
                        shrunk,
                        shrink_stats,
                        reproducer,
                    });
                    report.elapsed = started.elapsed();
                    return report;
                }
            }
        }
    }
    report.elapsed = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny clean campaign: the production evaluators must agree with
    /// each other on every generated case.
    #[test]
    fn small_campaign_is_clean() {
        let cfg = FuzzConfig {
            programs: 25,
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg);
        assert!(
            report.is_clean(),
            "unexpected divergence:\n{report}\n{}",
            report
                .divergence
                .as_ref()
                .map(|d| d.reproducer.as_str())
                .unwrap_or("")
        );
        assert_eq!(report.executed, 25);
        // The inflationary checks must have actually run.
        assert!(
            report
                .passes
                .get(&CheckId::MassConservation)
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(
            report
                .passes
                .get(&CheckId::MemoDifferential)
                .copied()
                .unwrap_or(0)
                > 0
        );
    }

    /// Campaigns are deterministic end to end.
    #[test]
    fn campaigns_are_reproducible() {
        let cfg = FuzzConfig {
            programs: 10,
            ..FuzzConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.skips, b.skips);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn time_budget_stops_early() {
        let cfg = FuzzConfig {
            programs: 100_000,
            time_budget: Some(Duration::from_millis(200)),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg);
        assert!(report.timed_out);
        assert!(report.executed < report.requested);
    }
}
