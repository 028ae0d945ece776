//! The budgeted tuning loop: virtual clock + batched evaluation engine.
//!
//! The tuner evaluates configurations through an [`EvalBackend`], charging
//! every measurement (and the initial search space construction) to a
//! *virtual clock*. This reproduces the setup of Figures 6 and 7: a fixed
//! time budget is shared between search space construction and kernel
//! evaluations, so a slow construction method eats into the time available
//! for actual tuning.
//!
//! Strategies submit whole batches of proposals ([`TuningContext::
//! evaluate_batch`]). The engine runs each batch in three phases:
//!
//! 1. **Resolve** (serial): classify each slot as a cache hit, an
//!    out-of-space rejection, the first occurrence of a distinct uncached
//!    configuration, or an in-batch duplicate of one.
//! 2. **Fan-out** (parallel): measure the distinct uncached configurations
//!    on scoped worker threads via the backend; results are joined in chunk
//!    order, then inserted into the eval cache serially. Nothing reads the
//!    cache between the fan-out and the merge.
//! 3. **Merge** (serial, proposal order): charge the virtual clock slot by
//!    slot exactly as the old one-at-a-time path did — full measurement
//!    cost for fresh measurements, [`CACHE_HIT_COST_MS`] for hits and
//!    in-batch duplicates, nothing for rejections — so a batched run is
//!    cost-trajectory-identical to a serial run regardless of thread count.

use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;

use at_searchspace::{ConfigId, SearchSpace};

use crate::eval::{EvalBackend, EvalMetrics, EvalOptions, EvalOutcome, Measurement, ModelBackend};
use crate::kernel::PerformanceModel;

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Id of the configuration in the search space.
    pub config_index: ConfigId,
    /// Simulated kernel runtime in milliseconds.
    pub runtime_ms: f64,
    /// Virtual time (milliseconds since tuning start, including construction)
    /// at which the measurement finished.
    pub finished_at_ms: f64,
}

/// The result of one tuning run.
#[derive(Debug, Clone, Default)]
pub struct TuningRun {
    /// Name of the strategy that produced the run.
    pub strategy: String,
    /// All evaluations in execution order (cache hits are not repeated).
    pub evaluations: Vec<Evaluation>,
    /// Virtual time charged to search space construction (milliseconds).
    pub construction_ms: f64,
    /// Total virtual time consumed (milliseconds).
    pub total_ms: f64,
    /// The time budget (milliseconds).
    pub budget_ms: f64,
    /// What the evaluation pipeline did: batch sizes, cache hit/dedup
    /// ratios, rejected proposals, fan-out utilization.
    pub metrics: EvalMetrics,
}

impl TuningRun {
    /// The best (lowest) runtime seen so far at each evaluation, as
    /// `(virtual time ms, best runtime ms)` pairs — the data behind the
    /// best-configuration-over-time curves of Figures 6 and 7.
    pub fn best_over_time(&self) -> Vec<(f64, f64)> {
        let mut best = f64::INFINITY;
        let mut out = Vec::with_capacity(self.evaluations.len());
        for e in &self.evaluations {
            if e.runtime_ms < best {
                best = e.runtime_ms;
            }
            out.push((e.finished_at_ms, best));
        }
        out
    }

    /// The best runtime found, if any configuration was evaluated.
    pub fn best_runtime_ms(&self) -> Option<f64> {
        self.best_evaluation().map(|e| e.runtime_ms)
    }

    /// The best evaluation (lowest runtime; first reached on ties).
    pub fn best_evaluation(&self) -> Option<&Evaluation> {
        self.evaluations.iter().min_by(|a, b| {
            a.runtime_ms
                .partial_cmp(&b.runtime_ms)
                .expect("no NaN runtimes")
        })
    }

    /// The best runtime found no later than `time_ms` on the virtual clock.
    pub fn best_at(&self, time_ms: f64) -> Option<f64> {
        self.evaluations
            .iter()
            .filter(|e| e.finished_at_ms <= time_ms)
            .map(|e| e.runtime_ms)
            .min_by(|a, b| a.partial_cmp(b).expect("no NaN runtimes"))
    }

    /// Number of distinct configurations evaluated.
    pub fn num_evaluations(&self) -> usize {
        self.evaluations.len()
    }
}

/// Simulated framework overhead of serving a cached measurement, in
/// milliseconds. Kernel Tuner's strategy loop has a comparable per-iteration
/// cost; charging it keeps the virtual clock advancing even when a strategy
/// only revisits configurations it has already measured.
pub const CACHE_HIT_COST_MS: f64 = 0.5;

/// How a batch slot resolves before the fan-out: the serial phase-1
/// classification that phase 3 replays in proposal order.
enum Slot {
    /// Served by the eval cache (a previous batch measured it).
    Hit(Measurement),
    /// The id names no configuration of the space.
    Reject,
    /// First occurrence of a distinct uncached configuration; the payload
    /// indexes into the fan-out's `unique` list.
    Unique(usize),
    /// In-batch duplicate of `unique[payload]`.
    Dup(usize),
}

/// The mutable state a strategy drives: batched evaluation, caching,
/// budget and RNG.
pub struct TuningContext<'a> {
    space: &'a SearchSpace,
    backend: &'a dyn EvalBackend,
    threads: usize,
    rng: ChaCha8Rng,
    cache: FxHashMap<ConfigId, Measurement>,
    clock_ms: f64,
    budget_ms: f64,
    evaluations: Vec<Evaluation>,
    metrics: EvalMetrics,
}

impl<'a> TuningContext<'a> {
    /// Create a context. `construction` is charged to the clock up front.
    pub fn new(
        space: &'a SearchSpace,
        backend: &'a dyn EvalBackend,
        budget: Duration,
        construction: Duration,
        seed: u64,
        options: EvalOptions,
    ) -> Self {
        let threads = options.threads.max(1);
        TuningContext {
            space,
            backend,
            threads,
            rng: ChaCha8Rng::seed_from_u64(seed),
            cache: FxHashMap::default(),
            clock_ms: construction.as_secs_f64() * 1000.0,
            budget_ms: budget.as_secs_f64() * 1000.0,
            evaluations: Vec::new(),
            metrics: EvalMetrics {
                threads,
                ..EvalMetrics::default()
            },
        }
    }

    /// The search space being tuned. The returned reference lives for the
    /// whole tuning run (`'a`), not just this borrow of the context, so
    /// strategies can hold arena slices across `rng()`/`evaluate_batch()`
    /// calls.
    pub fn space(&self) -> &'a SearchSpace {
        self.space
    }

    /// The random number generator (seeded per run).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Remaining budget in milliseconds (zero when exhausted).
    pub fn remaining_ms(&self) -> f64 {
        (self.budget_ms - self.clock_ms).max(0.0)
    }

    /// True when no further evaluations are possible: either the budget is
    /// spent, or every configuration of the space has already been measured
    /// (strategies must terminate once the space is fully explored, since
    /// cache hits do not advance the virtual clock).
    pub fn exhausted(&self) -> bool {
        self.clock_ms >= self.budget_ms || self.evaluations.len() >= self.space.len()
    }

    /// Evaluate a batch of proposed configurations.
    ///
    /// Returns one [`EvalOutcome`] per proposal, in proposal order. The
    /// distinct uncached configurations in the batch are measured in
    /// parallel (up to the configured fan-out width), but all budget
    /// accounting happens serially in proposal order, so the run is
    /// identical for any thread count. Once an outcome in the batch is
    /// [`EvalOutcome::OutOfBudget`], every later slot is too — strategies
    /// should stop proposing (see [`crate::eval::out_of_budget`]).
    ///
    /// Cache hits and in-batch duplicates are served like Kernel Tuner's
    /// `cache` feature: the stored runtime comes back bitwise-identical and
    /// only [`CACHE_HIT_COST_MS`] of framework overhead is charged.
    /// Proposals whose id names no configuration of the space come back
    /// [`EvalOutcome::Rejected`] — nothing is charged, and the rejection is
    /// counted in the run's [`EvalMetrics`].
    pub fn evaluate_batch(&mut self, ids: &[ConfigId]) -> Vec<EvalOutcome> {
        self.metrics.batches += 1;
        self.metrics.proposed += ids.len() as u64;
        self.metrics.largest_batch = self.metrics.largest_batch.max(ids.len());

        // Phase 1 — resolve: classify every slot, collecting the distinct
        // uncached configurations that need fresh measurements.
        let resolve_span = at_obs::span("resolve", "tune").arg("proposed", ids.len() as u64);
        let mut slots: Vec<Slot> = Vec::with_capacity(ids.len());
        let mut unique: Vec<ConfigId> = Vec::new();
        let mut first_seen: FxHashMap<ConfigId, usize> = FxHashMap::default();
        for &id in ids {
            let slot = if let Some(&m) = self.cache.get(&id) {
                Slot::Hit(m)
            } else if let Some(&u) = first_seen.get(&id) {
                Slot::Dup(u)
            } else if self.space.view(id).is_none() {
                Slot::Reject
            } else {
                let u = unique.len();
                unique.push(id);
                first_seen.insert(id, u);
                Slot::Unique(u)
            };
            slots.push(slot);
        }

        drop(resolve_span.arg("unique", unique.len() as u64));

        // Phase 2 — fan-out: measure the distinct misses in parallel.
        let fanout_span = at_obs::span("fanout", "tune").arg("unique", unique.len() as u64);
        let measured = self.measure_unique(&unique);
        drop(fanout_span);
        for (&id, m) in unique.iter().zip(&measured) {
            if let Some(m) = *m {
                self.cache.insert(id, m);
            }
        }

        // Phase 3 — merge: replay the slots in proposal order against the
        // virtual clock. `committed[u]` tracks whether unique configuration
        // `u` fit the budget, so in-batch duplicates behave exactly like
        // cache hits of a measurement that really happened.
        let merge_span = at_obs::span("merge", "tune");
        let mut committed = vec![false; unique.len()];
        let mut outcomes = Vec::with_capacity(ids.len());
        for (slot, &id) in slots.iter().zip(ids) {
            if self.exhausted() {
                self.metrics.out_of_budget += 1;
                outcomes.push(EvalOutcome::OutOfBudget);
                continue;
            }
            let outcome = match *slot {
                Slot::Hit(m) => {
                    self.charge_hit();
                    self.metrics.cache_hits += 1;
                    EvalOutcome::Cached(m.runtime_ms)
                }
                Slot::Reject => {
                    self.metrics.rejected += 1;
                    EvalOutcome::Rejected
                }
                Slot::Unique(u) => match measured[u] {
                    Some(m) if self.clock_ms + m.cost_ms <= self.budget_ms => {
                        self.clock_ms += m.cost_ms;
                        self.evaluations.push(Evaluation {
                            config_index: id,
                            runtime_ms: m.runtime_ms,
                            finished_at_ms: self.clock_ms,
                        });
                        committed[u] = true;
                        self.metrics.measured += 1;
                        EvalOutcome::Measured(m.runtime_ms)
                    }
                    Some(_) => {
                        // The measurement would not finish within the budget.
                        self.clock_ms = self.budget_ms;
                        self.metrics.out_of_budget += 1;
                        EvalOutcome::OutOfBudget
                    }
                    // The backend refused an id the space resolved — treat
                    // it like an out-of-space proposal.
                    None => {
                        self.metrics.rejected += 1;
                        EvalOutcome::Rejected
                    }
                },
                Slot::Dup(u) => {
                    if committed[u] {
                        self.charge_hit();
                        self.metrics.deduped += 1;
                        EvalOutcome::Cached(
                            measured[u].expect("committed implies measured").runtime_ms,
                        )
                    } else {
                        // The first occurrence overflowed the budget, so the
                        // clock is already pinned at the budget.
                        self.metrics.out_of_budget += 1;
                        EvalOutcome::OutOfBudget
                    }
                }
            };
            outcomes.push(outcome);
        }
        drop(merge_span.arg("outcomes", outcomes.len() as u64));
        outcomes
    }

    /// Evaluate a single configuration (a batch of 1).
    pub fn evaluate_one(&mut self, id: ConfigId) -> EvalOutcome {
        self.evaluate_batch(std::slice::from_ref(&id))[0]
    }

    fn charge_hit(&mut self) {
        self.clock_ms = (self.clock_ms + CACHE_HIT_COST_MS).min(self.budget_ms);
    }

    /// Measure the distinct uncached configurations of a batch, fanning out
    /// over scoped worker threads when more than one thread is configured.
    /// Results come back in input order regardless of scheduling.
    fn measure_unique(&mut self, unique: &[ConfigId]) -> Vec<Option<Measurement>> {
        let workers = self.threads.min(unique.len());
        let space = self.space;
        let backend = self.backend;
        let measure_chunk = |chunk: &[ConfigId]| {
            let results = backend.evaluate_batch(space, chunk);
            debug_assert_eq!(results.len(), chunk.len());
            results
        };
        if workers <= 1 {
            let _span = at_obs::span("eval-worker", "tune")
                .arg("worker", 0)
                .arg("configs", unique.len() as u64);
            return measure_chunk(unique);
        }
        self.metrics.fanout_batches += 1;
        self.metrics.fanout_thread_slots += workers as u64;
        let chunk_len = unique.len().div_ceil(workers);
        std::thread::scope(|s| {
            let mc = &measure_chunk;
            let handles: Vec<_> = unique
                .chunks(chunk_len)
                .enumerate()
                .map(|(worker, chunk)| {
                    s.spawn(move || {
                        let _span = at_obs::span("eval-worker", "tune")
                            .arg("worker", worker as u64)
                            .arg("configs", chunk.len() as u64);
                        mc(chunk)
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(unique.len());
            for h in handles {
                out.extend(h.join().expect("eval worker panicked"));
            }
            out
        })
    }

    /// Finish the run and produce the result record.
    pub fn finish(self, strategy: &str, construction: Duration) -> TuningRun {
        TuningRun {
            strategy: strategy.to_string(),
            evaluations: self.evaluations,
            construction_ms: construction.as_secs_f64() * 1000.0,
            total_ms: self.clock_ms,
            budget_ms: self.budget_ms,
            metrics: self.metrics,
        }
    }
}

/// An optimization strategy that explores the search space under a budget.
pub trait Strategy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Run the strategy until the context's budget is exhausted.
    fn run(&self, ctx: &mut TuningContext<'_>);
}

/// Tune `space` with `strategy` under a virtual-time `budget`, charging
/// `construction` (the measured search space construction time) up front.
/// Evaluates through the in-process performance model, serially — see
/// [`tune_with_options`] for parallel fan-out and [`tune_with_backend`]
/// for custom backends.
pub fn tune(
    space: &SearchSpace,
    model: &dyn PerformanceModel,
    strategy: &dyn Strategy,
    budget: Duration,
    construction: Duration,
    seed: u64,
) -> TuningRun {
    tune_with_options(
        space,
        model,
        strategy,
        budget,
        construction,
        seed,
        EvalOptions::default(),
    )
}

/// [`tune`], with explicit evaluation options (fan-out width). The run is
/// identical for any thread count; only wall-clock time differs.
#[allow(clippy::too_many_arguments)]
pub fn tune_with_options(
    space: &SearchSpace,
    model: &dyn PerformanceModel,
    strategy: &dyn Strategy,
    budget: Duration,
    construction: Duration,
    seed: u64,
    options: EvalOptions,
) -> TuningRun {
    let backend = ModelBackend::new(model);
    tune_with_backend(
        space,
        &backend,
        strategy,
        budget,
        construction,
        seed,
        options,
    )
}

/// Tune against an arbitrary [`EvalBackend`] — the entry point a
/// measure-on-real-hardware backend plugs into.
#[allow(clippy::too_many_arguments)]
pub fn tune_with_backend(
    space: &SearchSpace,
    backend: &dyn EvalBackend,
    strategy: &dyn Strategy,
    budget: Duration,
    construction: Duration,
    seed: u64,
    options: EvalOptions,
) -> TuningRun {
    let mut ctx = TuningContext::new(space, backend, budget, construction, seed, options);
    if !space.is_empty() {
        strategy.run(&mut ctx);
    }
    ctx.finish(strategy.name(), construction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SyntheticKernel;
    use crate::strategies::RandomSampling;
    use at_searchspace::prelude::*;

    fn space() -> SearchSpace {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 6))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("x * y >= 4");
        build_search_space(&spec, Method::Optimized).unwrap().0
    }

    #[test]
    fn budget_is_respected() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 1);
        let run = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_millis(2000),
            Duration::ZERO,
            42,
        );
        assert!(run.total_ms <= run.budget_ms + 1e-9);
        assert!(run.num_evaluations() > 0);
        assert!(run
            .evaluations
            .iter()
            .all(|e| e.finished_at_ms <= run.budget_ms));
    }

    #[test]
    fn construction_time_reduces_evaluations() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 1);
        let budget = Duration::from_millis(3000);
        let fast = tune(&s, &k, &RandomSampling, budget, Duration::ZERO, 42);
        let slow = tune(
            &s,
            &k,
            &RandomSampling,
            budget,
            Duration::from_millis(2500),
            42,
        );
        assert!(slow.num_evaluations() < fast.num_evaluations());
        assert_eq!(slow.construction_ms, 2500.0);
    }

    #[test]
    fn best_over_time_is_monotonically_nonincreasing() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 3);
        let run = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_millis(5000),
            Duration::ZERO,
            7,
        );
        let curve = run.best_over_time();
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(run.best_runtime_ms(), Some(curve.last().unwrap().1));
    }

    #[test]
    fn best_at_timestamp() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 3);
        let run = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_millis(5000),
            Duration::ZERO,
            7,
        );
        assert!(run.best_at(0.0).is_none());
        let end_best = run.best_at(run.budget_ms).unwrap();
        assert_eq!(Some(end_best), run.best_runtime_ms());
    }

    #[test]
    fn construction_longer_than_budget_means_no_evaluations() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 1);
        let run = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_millis(1000),
            Duration::from_millis(2000),
            1,
        );
        assert_eq!(run.num_evaluations(), 0);
        assert!(run.best_runtime_ms().is_none());
    }

    #[test]
    fn strategies_terminate_once_the_space_is_fully_explored() {
        // A huge budget on a small space must not loop forever: once every
        // configuration is measured, the context reports exhaustion.
        let s = space();
        let k = SyntheticKernel::for_space(&s, 2);
        let run = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_secs(1_000_000),
            Duration::ZERO,
            3,
        );
        assert_eq!(run.num_evaluations(), s.len());
    }

    #[test]
    fn same_seed_same_run() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 5);
        let a = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_millis(2000),
            Duration::ZERO,
            9,
        );
        let b = tune(
            &s,
            &k,
            &RandomSampling,
            Duration::from_millis(2000),
            Duration::ZERO,
            9,
        );
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn batch_with_duplicates_measures_once_and_serves_the_rest() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 4);
        let backend = ModelBackend::new(&k);
        let mut ctx = TuningContext::new(
            &s,
            &backend,
            Duration::from_secs(60),
            Duration::ZERO,
            0,
            EvalOptions::default(),
        );
        let a = ConfigId::from_index(0);
        let b = ConfigId::from_index(1);
        let out = ctx.evaluate_batch(&[a, a, b]);
        let ra = out[0].runtime().unwrap();
        assert!(matches!(out[0], EvalOutcome::Measured(_)));
        // The duplicate is bitwise-identical and only charged the hit cost.
        assert_eq!(out[1], EvalOutcome::Cached(ra));
        assert!(matches!(out[2], EvalOutcome::Measured(_)));
        let run = ctx.finish("test", Duration::ZERO);
        assert_eq!(run.num_evaluations(), 2);
        assert_eq!(run.metrics.measured, 2);
        assert_eq!(run.metrics.deduped, 1);
        let cfg_a = s.view(a).unwrap().to_vec();
        let cfg_b = s.view(b).unwrap().to_vec();
        let expected =
            k.measurement_cost_ms(&cfg_a) + CACHE_HIT_COST_MS + k.measurement_cost_ms(&cfg_b);
        assert_eq!(run.total_ms, expected);
    }

    #[test]
    fn cache_hit_returns_identical_runtime_and_charges_only_overhead() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 4);
        let backend = ModelBackend::new(&k);
        let mut ctx = TuningContext::new(
            &s,
            &backend,
            Duration::from_secs(60),
            Duration::ZERO,
            0,
            EvalOptions::default(),
        );
        let a = ConfigId::from_index(5);
        let first = ctx.evaluate_one(a);
        let clock_after_first = ctx.clock_ms;
        let second = ctx.evaluate_one(a);
        assert_eq!(second, EvalOutcome::Cached(first.runtime().unwrap()));
        assert_eq!(ctx.clock_ms, clock_after_first + CACHE_HIT_COST_MS);
        let run = ctx.finish("test", Duration::ZERO);
        assert_eq!(run.num_evaluations(), 1);
        assert_eq!(run.metrics.cache_hits, 1);
    }

    #[test]
    fn out_of_space_proposals_are_rejected_and_counted() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 4);
        let backend = ModelBackend::new(&k);
        let mut ctx = TuningContext::new(
            &s,
            &backend,
            Duration::from_secs(60),
            Duration::ZERO,
            0,
            EvalOptions::default(),
        );
        let bogus = ConfigId::from_index(s.len());
        let good = ConfigId::from_index(0);
        let out = ctx.evaluate_batch(&[bogus, good]);
        assert_eq!(out[0], EvalOutcome::Rejected);
        assert!(matches!(out[1], EvalOutcome::Measured(_)));
        // A rejection charges nothing.
        let cfg = s.view(good).unwrap().to_vec();
        assert_eq!(ctx.clock_ms, k.measurement_cost_ms(&cfg));
        let run = ctx.finish("test", Duration::ZERO);
        assert_eq!(run.metrics.rejected, 1);
    }

    #[test]
    fn threads_do_not_change_the_run() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 5);
        let budget = Duration::from_millis(4000);
        let serial = tune_with_options(
            &s,
            &k,
            &RandomSampling,
            budget,
            Duration::ZERO,
            11,
            EvalOptions::with_threads(1),
        );
        let parallel = tune_with_options(
            &s,
            &k,
            &RandomSampling,
            budget,
            Duration::ZERO,
            11,
            EvalOptions::with_threads(8),
        );
        assert_eq!(serial.evaluations, parallel.evaluations);
        assert_eq!(serial.total_ms, parallel.total_ms);
        // Everything except the fan-out bookkeeping matches too.
        assert_eq!(serial.metrics.measured, parallel.metrics.measured);
        assert_eq!(serial.metrics.cache_hits, parallel.metrics.cache_hits);
        assert_eq!(serial.metrics.deduped, parallel.metrics.deduped);
        assert_eq!(serial.metrics.rejected, parallel.metrics.rejected);
    }

    #[test]
    fn budget_overflow_mid_batch_pins_the_clock() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 4);
        let backend = ModelBackend::new(&k);
        // Budget fits exactly one measurement of ~58+ ms, not two.
        let mut ctx = TuningContext::new(
            &s,
            &backend,
            Duration::from_millis(100),
            Duration::ZERO,
            0,
            EvalOptions::default(),
        );
        let ids: Vec<ConfigId> = (0..4).map(ConfigId::from_index).collect();
        let out = ctx.evaluate_batch(&ids);
        assert!(matches!(out[0], EvalOutcome::Measured(_)));
        assert!(out[1..].iter().all(|o| o.is_out_of_budget()));
        let run = ctx.finish("test", Duration::ZERO);
        assert_eq!(run.total_ms, run.budget_ms);
        assert_eq!(run.num_evaluations(), 1);
        assert_eq!(run.metrics.out_of_budget, 3);
    }
}
