//! The shared parallel Monte Carlo engine behind every sampling
//! evaluator (Theorem 4.3, its pc-table variant, and Theorem 5.6).
//!
//! All three algorithms are the same loop — draw independent Bernoulli
//! trials, report the hit fraction — so they share one engine with
//! three properties the individual evaluators cannot easily provide on
//! their own:
//!
//! * **Parallelism.** Trials are partitioned into fixed-size chunks
//!   and drawn by a pool of worker threads (`std::thread::scope`; the
//!   build environment is offline, so no external thread-pool crate).
//!
//! * **Deterministic replay.** Trial `i` draws from its own
//!   [`ChaCha8Rng`] derived from `(seed, i)`, and the stopping
//!   decision is evaluated over chunk *prefixes in index order* — so
//!   the estimate is **bit-identical for every thread count and every
//!   chunk scheduling**. A result is reproducible from `(seed, ε, δ)`
//!   alone.
//!
//! * **Adaptive early stopping.** After each chunk boundary the engine
//!   recomputes an anytime confidence radius (the smaller of an
//!   empirical-Bernstein and a Hoeffding bound, with the failure
//!   budget δ split over looks as `δ/(j(j+1))`) and stops as soon as
//!   the radius is ≤ ε — far before the worst-case
//!   `m = ⌈ln(2/δ)/(2ε²)⌉` when the true probability is near 0 or 1.
//!   The worst case is always a hard cap, so the `(ε, δ)` guarantee of
//!   Theorem 4.3 is never weakened.

use crate::sample_inflationary::hoeffding_sample_count;
use crate::CoreError;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel in the per-chunk hit table: chunk not finished yet.
const PENDING: usize = usize::MAX;

/// How a sampling run is executed (not *what* it estimates — ε/δ or a
/// fixed sample count are per-call).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Root seed; trial `i` uses an RNG derived from `(seed, i)`.
    pub seed: u64,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Trials per scheduling chunk (also the early-stopping check
    /// granularity).
    pub chunk_size: usize,
    /// Whether `(ε, δ)` runs may stop before the Hoeffding worst case
    /// once the anytime confidence radius reaches ε.
    pub adaptive: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            seed: 0,
            threads: 0,
            chunk_size: 64,
            adaptive: true,
        }
    }
}

impl SamplerConfig {
    /// A config with the given root seed and otherwise default knobs.
    pub fn seeded(seed: u64) -> Self {
        SamplerConfig {
            seed,
            ..SamplerConfig::default()
        }
    }

    /// Returns `self` with the thread count replaced.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns `self` with adaptive early stopping switched on/off.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The full outcome of a sampling run — the estimate plus the
/// execution stats the CLI and experiment harness report.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleReport {
    /// The estimated probability: hits / samples.
    pub estimate: f64,
    /// Trials contributing to the estimate.
    pub samples: usize,
    /// How many of those trials hit the event.
    pub hits: usize,
    /// The Hoeffding worst-case budget the run was capped at.
    pub worst_case: usize,
    /// Whether adaptive stopping ended the run before `worst_case`.
    pub stopped_early: bool,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// Anytime confidence radius after `n` trials with `hits` hits, on the
/// `look`-th inspection (1-based): the smaller of the empirical
/// Bernstein and Hoeffding radii at confidence `δ/(look·(look+1))`.
/// The per-look budgets sum to at most δ, so stopping the first time
/// the radius is ≤ ε gives `Pr(|p̂ − p| ≤ ε) ≥ 1 − δ` at the stopping
/// time (Audibert–Munos–Szepesvári-style union bound over looks).
pub fn confidence_radius(hits: usize, n: usize, look: usize, delta: f64) -> f64 {
    debug_assert!(n > 0 && look > 0);
    let delta_j = delta / (look * (look + 1)) as f64;
    let nf = n as f64;
    let p = hits as f64 / nf;
    let log3 = (3.0 / delta_j).ln();
    let bernstein = (2.0 * p * (1.0 - p) * log3 / nf).sqrt() + 3.0 * log3 / nf;
    let hoeffding = ((2.0 / delta_j).ln() / (2.0 * nf)).sqrt();
    bernstein.min(hoeffding)
}

/// Runs the `(ε, δ)` estimator: up to the Hoeffding worst-case number
/// of trials, in parallel, stopping early when allowed and possible.
///
/// `trial` is one Monte Carlo sample: given its private RNG, it
/// reports whether the event occurred. It must be deterministic in the
/// RNG stream for replay to work. `scratch` makes one worker's scratch
/// value, which `trial` receives beside the RNG and may reuse from one
/// trial to the next; what it holds must not change an outcome.
pub fn run<S, M, F>(
    config: &SamplerConfig,
    epsilon: f64,
    delta: f64,
    scratch: M,
    trial: F,
) -> Result<SampleReport, CoreError>
where
    M: Fn() -> S + Sync,
    F: Fn(&mut S, &mut ChaCha8Rng) -> Result<bool, CoreError> + Sync,
{
    let worst_case = hoeffding_sample_count(epsilon, delta)?;
    let stopper = config.adaptive.then_some(Stopper { epsilon, delta });
    run_engine(config, worst_case, stopper, &scratch, &trial)
}

/// Runs exactly `samples` trials (no early stopping) in parallel, with
/// per-worker scratch as in [`run`].
pub fn run_fixed<S, M, F>(
    config: &SamplerConfig,
    samples: usize,
    scratch: M,
    trial: F,
) -> Result<SampleReport, CoreError>
where
    M: Fn() -> S + Sync,
    F: Fn(&mut S, &mut ChaCha8Rng) -> Result<bool, CoreError> + Sync,
{
    if samples == 0 {
        return Err(CoreError::BadParameter("samples must be positive".into()));
    }
    run_engine(config, samples, None, &scratch, &trial)
}

/// The adaptive stopping rule.
struct Stopper {
    epsilon: f64,
    delta: f64,
}

impl Stopper {
    fn satisfied(&self, hits: usize, n: usize, look: usize) -> bool {
        confidence_radius(hits, n, look, self.delta) <= self.epsilon
    }
}

/// In-order prefix accumulator: the *only* place the stopping decision
/// is made, so the decision depends on chunk contents in index order
/// and never on thread scheduling.
struct Prefix {
    /// Next chunk index awaiting in-order evaluation.
    next: usize,
    /// Hits and trials over chunks `0..next`.
    hits: usize,
    samples: usize,
    /// 1-based count of stopping-rule inspections performed.
    looks: usize,
    /// Once decided: (hits, samples, stopped_early).
    outcome: Option<(usize, usize, bool)>,
}

fn run_engine<S, M, F>(
    config: &SamplerConfig,
    worst_case: usize,
    stopper: Option<Stopper>,
    scratch: &M,
    trial: &F,
) -> Result<SampleReport, CoreError>
where
    M: Fn() -> S + Sync,
    F: Fn(&mut S, &mut ChaCha8Rng) -> Result<bool, CoreError> + Sync,
{
    let start = Instant::now();
    let chunk_size = config.chunk_size.max(1);
    let n_chunks = worst_case.div_ceil(chunk_size);
    let threads = config.resolved_threads().clamp(1, n_chunks);

    let next_chunk = AtomicUsize::new(0);
    // Last chunk index included in the estimate once decided; workers
    // stop claiming chunks beyond it.
    let stop_chunk = AtomicUsize::new(usize::MAX);
    let failed = AtomicBool::new(false);
    let chunk_hits: Vec<AtomicUsize> = (0..n_chunks).map(|_| AtomicUsize::new(PENDING)).collect();
    let prefix = Mutex::new(Prefix {
        next: 0,
        hits: 0,
        samples: 0,
        looks: 0,
        outcome: None,
    });
    let first_error: Mutex<Option<CoreError>> = Mutex::new(None);

    let worker = || {
        let mut scratch = scratch();
        loop {
            if failed.load(Ordering::Relaxed) {
                return;
            }
            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks || chunk > stop_chunk.load(Ordering::Acquire) {
                return;
            }
            let lo = chunk * chunk_size;
            let hi = (lo + chunk_size).min(worst_case);
            let mut hits = 0usize;
            for index in lo..hi {
                let mut rng = trial_rng(config.seed, index as u64);
                match trial(&mut scratch, &mut rng) {
                    Ok(true) => hits += 1,
                    Ok(false) => {}
                    Err(e) => {
                        let mut slot = first_error.lock().unwrap();
                        slot.get_or_insert(e);
                        failed.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
            chunk_hits[chunk].store(hits, Ordering::Release);

            // Fold every newly contiguous chunk into the prefix, in
            // index order, and apply the stopping rule at each
            // boundary.
            let mut p = prefix.lock().unwrap();
            while p.outcome.is_none() && p.next < n_chunks {
                let done = chunk_hits[p.next].load(Ordering::Acquire);
                if done == PENDING {
                    break;
                }
                let lo = p.next * chunk_size;
                let hi = (lo + chunk_size).min(worst_case);
                p.hits += done;
                p.samples += hi - lo;
                p.looks += 1;
                let at_cap = p.next + 1 == n_chunks;
                let rule_met = stopper
                    .as_ref()
                    .is_some_and(|s| s.satisfied(p.hits, p.samples, p.looks));
                if rule_met || at_cap {
                    p.outcome = Some((p.hits, p.samples, rule_met && !at_cap));
                    stop_chunk.store(p.next, Ordering::Release);
                }
                p.next += 1;
            }
        }
    };

    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }

    if let Some(e) = first_error.lock().unwrap().take() {
        return Err(e);
    }
    let prefix = prefix.into_inner().unwrap();
    let (hits, samples, stopped_early) = prefix
        .outcome
        .expect("engine invariant: all workers done implies a decided prefix");
    Ok(SampleReport {
        estimate: hits as f64 / samples as f64,
        samples,
        hits,
        worst_case,
        stopped_early,
        threads,
        wall: start.elapsed(),
    })
}

/// The private RNG of trial `index` under root `seed`: a ChaCha8
/// stream keyed by four SplitMix64-finalized words of `(seed, index)`.
/// Distinct `(seed, index)` pairs get (for all practical purposes)
/// independent streams, and the derivation is position-based — no
/// sequential state — which is what makes work-stealing scheduling
/// harmless to determinism.
pub fn trial_rng(seed: u64, index: u64) -> ChaCha8Rng {
    use rand::SeedableRng;
    let mut key = [0u8; 32];
    let mut h = mix64(seed).wrapping_add(mix64(index ^ 0xA5A5_A5A5_5A5A_5A5A));
    for word in key.chunks_exact_mut(8) {
        h = mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
        word.copy_from_slice(&h.to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

/// SplitMix64 finalizer — a full-avalanche 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn coin(p: f64) -> impl Fn(&mut (), &mut ChaCha8Rng) -> Result<bool, CoreError> + Sync {
        move |_, rng| Ok(rng.gen_bool(p))
    }

    #[test]
    fn estimates_are_thread_count_invariant() {
        for p in [0.0, 0.2, 0.5, 0.9, 1.0] {
            let base = SamplerConfig {
                seed: 17,
                chunk_size: 16,
                ..SamplerConfig::default()
            };
            let reports: Vec<SampleReport> = [1usize, 2, 3, 8]
                .iter()
                .map(|&t| run(&base.clone().with_threads(t), 0.05, 0.05, || (), coin(p)).unwrap())
                .collect();
            for r in &reports[1..] {
                assert_eq!(r.estimate.to_bits(), reports[0].estimate.to_bits());
                assert_eq!(r.samples, reports[0].samples);
                assert_eq!(r.hits, reports[0].hits);
                assert_eq!(r.stopped_early, reports[0].stopped_early);
            }
        }
    }

    #[test]
    fn adaptive_stops_early_on_deterministic_events() {
        let config = SamplerConfig::seeded(3);
        let sure = run(&config, 0.05, 0.05, || (), coin(1.0)).unwrap();
        assert_eq!(sure.estimate, 1.0);
        assert!(sure.stopped_early, "{sure:?}");
        assert!(sure.samples < sure.worst_case);
        let never = run(&config, 0.05, 0.05, || (), coin(0.0)).unwrap();
        assert_eq!(never.estimate, 0.0);
        assert!(never.stopped_early);
    }

    #[test]
    fn fixed_runs_use_exact_sample_count() {
        let config = SamplerConfig::seeded(5).with_threads(4);
        let r = run_fixed(&config, 1000, || (), coin(0.5)).unwrap();
        assert_eq!(r.samples, 1000);
        assert!(!r.stopped_early);
        assert!((r.estimate - 0.5).abs() < 0.08, "{r:?}");
        assert!(run_fixed(&config, 0, || (), coin(0.5)).is_err());
    }

    /// Each worker makes one scratch value and keeps it for every trial
    /// it draws.
    #[test]
    fn scratch_is_made_once_per_worker() {
        for threads in [1, 3] {
            let made = AtomicUsize::new(0);
            let drawn = AtomicUsize::new(0);
            let config = SamplerConfig::seeded(2).with_threads(threads);
            let make = || {
                made.fetch_add(1, Ordering::Relaxed);
                0usize
            };
            let r = run_fixed(&config, 300, make, |seen: &mut usize, rng| {
                *seen += 1;
                drawn.fetch_max(*seen, Ordering::Relaxed);
                Ok(rng.gen_bool(0.5))
            })
            .unwrap();
            assert_eq!(r.samples, 300);
            assert!((1..=threads).contains(&made.load(Ordering::Relaxed)));
            // Some worker drew several trials on one scratch value.
            assert!(drawn.load(Ordering::Relaxed) >= 300 / threads);
        }
    }

    #[test]
    fn non_adaptive_runs_burn_the_worst_case() {
        let config = SamplerConfig::seeded(9).with_adaptive(false);
        let r = run(&config, 0.1, 0.05, || (), coin(1.0)).unwrap();
        assert_eq!(r.samples, r.worst_case);
        assert!(!r.stopped_early);
    }

    #[test]
    fn errors_propagate_from_any_thread() {
        let config = SamplerConfig::seeded(1).with_threads(4);
        let err = run(
            &config,
            0.1,
            0.05,
            || (),
            |_, _rng: &mut ChaCha8Rng| Err(CoreError::BadParameter("boom".into())),
        );
        assert!(matches!(err, Err(CoreError::BadParameter(_))));
    }

    #[test]
    fn trial_rng_streams_are_distinct_and_stable() {
        use rand::RngCore;
        let a = trial_rng(1, 0).next_u64();
        assert_eq!(a, trial_rng(1, 0).next_u64());
        assert_ne!(a, trial_rng(1, 1).next_u64());
        assert_ne!(a, trial_rng(2, 0).next_u64());
    }

    #[test]
    fn confidence_radius_shrinks_with_n_and_variance() {
        let wide = confidence_radius(50, 100, 1, 0.05);
        let narrow = confidence_radius(500, 1000, 1, 0.05);
        assert!(narrow < wide);
        let low_var = confidence_radius(0, 100, 1, 0.05);
        assert!(low_var < wide);
    }
}
