//! The batched evaluation pipeline: backend trait, engine options and
//! per-run metrics.
//!
//! Every cost the tuner ever observes flows through [`EvalBackend`], a
//! batch-first abstraction (`&[ConfigId]` in, one [`Measurement`] per id
//! out). Strategies propose whole generations/swarms/neighbor rings per
//! call; the engine in [`crate::tuning::TuningContext`] dedups the batch,
//! fans the distinct uncached configurations out over scoped threads, and
//! merges the results back into the virtual clock in proposal order — so a
//! batched run is cost-trajectory-identical to a serial one regardless of
//! thread count. The same interface is what a future measure-on-real-
//! hardware backend plugs into: a backend only has to turn ids into
//! measurements, everything about budgets, caching and ordering lives in
//! the engine.

use at_csp::Value;
use at_obs::json::Json;
use at_searchspace::{ConfigId, SearchSpace};

use crate::kernel::PerformanceModel;

/// One measurement produced by a backend for one configuration.
///
/// Backends must be *pure*: the same configuration always yields the same
/// measurement (bitwise). The engine relies on this for its determinism
/// guarantee — results may be computed on any worker thread, in any
/// chunking, and still merge into an identical run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Simulated (or measured) kernel runtime in milliseconds — the value
    /// strategies minimize.
    pub runtime_ms: f64,
    /// Total cost of obtaining the measurement in milliseconds
    /// (compilation, transfers, repetitions); charged to the virtual clock.
    pub cost_ms: f64,
}

/// A batch evaluation backend: the only way the tuner obtains costs.
///
/// `Sync` because the engine shares one backend reference across its
/// fan-out worker threads.
pub trait EvalBackend: Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Measure a batch of configurations against `space`.
    ///
    /// Returns exactly one entry per input id, in input order: `Some` with
    /// the measurement, or `None` when the id does not name a configuration
    /// of the space (the engine reports those as rejected proposals).
    fn evaluate_batch(&self, space: &SearchSpace, ids: &[ConfigId]) -> Vec<Option<Measurement>>;
}

/// The first [`EvalBackend`]: a [`PerformanceModel`] evaluated in-process.
///
/// Decodes each configuration into a reused buffer, evaluates the model's
/// runtime once, and charges the measurement cost of that runtime — the
/// exact arithmetic the pre-batch tuner performed one configuration at a
/// time.
pub struct ModelBackend<'m> {
    model: &'m dyn PerformanceModel,
}

impl<'m> ModelBackend<'m> {
    /// Wrap a performance model.
    pub fn new(model: &'m dyn PerformanceModel) -> Self {
        ModelBackend { model }
    }
}

impl EvalBackend for ModelBackend<'_> {
    fn name(&self) -> &'static str {
        "performance-model"
    }

    fn evaluate_batch(&self, space: &SearchSpace, ids: &[ConfigId]) -> Vec<Option<Measurement>> {
        // One decode buffer per call: a call is one fan-out chunk, so each
        // worker thread reuses its own buffer across its whole chunk.
        let mut config: Vec<Value> = Vec::new();
        ids.iter()
            .map(|&id| {
                let view = space.view(id)?;
                view.decode_into(&mut config);
                let runtime_ms = self.model.runtime_ms(&config);
                Some(Measurement {
                    runtime_ms,
                    cost_ms: self.model.measurement_cost_ms(&config, runtime_ms),
                })
            })
            .collect()
    }
}

/// How the engine runs batches: the thread fan-out width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Worker threads for the evaluation fan-out. `1` evaluates inline;
    /// any value produces an identical run (only wall-clock time differs).
    pub threads: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { threads: 1 }
    }
}

impl EvalOptions {
    /// An option set with the given fan-out width (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        EvalOptions {
            threads: threads.max(1),
        }
    }
}

/// The outcome of one proposed configuration within a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalOutcome {
    /// Freshly measured; the full measurement cost was charged.
    Measured(f64),
    /// Served from the eval cache (or deduplicated within the batch); only
    /// [`crate::tuning::CACHE_HIT_COST_MS`] of framework overhead was charged.
    Cached(f64),
    /// The id does not name a configuration of the space. Nothing was
    /// charged; the proposal is counted in [`EvalMetrics::rejected`].
    Rejected,
    /// The budget was exhausted before (or by) this slot; strategies should
    /// stop proposing.
    OutOfBudget,
}

impl EvalOutcome {
    /// The runtime in milliseconds, when the proposal produced one.
    pub fn runtime(self) -> Option<f64> {
        match self {
            EvalOutcome::Measured(t) | EvalOutcome::Cached(t) => Some(t),
            EvalOutcome::Rejected | EvalOutcome::OutOfBudget => None,
        }
    }

    /// True when the budget ran out at or before this slot.
    pub fn is_out_of_budget(self) -> bool {
        matches!(self, EvalOutcome::OutOfBudget)
    }
}

/// True when any outcome in the batch reports budget exhaustion — the
/// batched counterpart of the old `evaluate(..) == None` stop signal.
pub fn out_of_budget(outcomes: &[EvalOutcome]) -> bool {
    outcomes.iter().any(|o| o.is_out_of_budget())
}

/// Counters describing the work the evaluation pipeline performed.
///
/// Everything except the `threads`/`fanout_*` fields is identical across
/// fan-out widths for a fixed seed (asserted by the determinism proptest);
/// the fan-out fields describe how the same work was scheduled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalMetrics {
    /// Batches submitted by the strategy (a single evaluation is a batch of 1).
    pub batches: u64,
    /// Total proposals across all batches.
    pub proposed: u64,
    /// Distinct configurations measured (and charged their full cost).
    pub measured: u64,
    /// Proposals served from the eval cache (prior batches).
    pub cache_hits: u64,
    /// Proposals deduplicated within their own batch (measured once,
    /// served as hits to the duplicates).
    pub deduped: u64,
    /// Proposals whose id named no configuration of the space.
    pub rejected: u64,
    /// Proposals dropped because the budget was exhausted.
    pub out_of_budget: u64,
    /// Largest single batch.
    pub largest_batch: usize,
    /// Configured fan-out width.
    pub threads: usize,
    /// Batches whose misses were evaluated on more than one thread.
    pub fanout_batches: u64,
    /// Worker threads actually used, summed over fan-out batches.
    pub fanout_thread_slots: u64,
}

impl EvalMetrics {
    /// Fraction of proposals served without a fresh measurement.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            (self.cache_hits + self.deduped) as f64 / self.proposed as f64
        }
    }

    /// Fraction of proposals that were in-batch duplicates.
    pub fn dedup_ratio(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.deduped as f64 / self.proposed as f64
        }
    }

    /// Mean fraction of the configured fan-out width used by parallel
    /// batches (1.0 = every fan-out batch filled all threads).
    pub fn fanout_utilization(&self) -> f64 {
        if self.fanout_batches == 0 || self.threads == 0 {
            0.0
        } else {
            self.fanout_thread_slots as f64 / (self.fanout_batches * self.threads as u64) as f64
        }
    }

    /// The counters as one JSON object, in field order: the `eval`
    /// section of the `atss.metrics.v1` envelope, and the start of
    /// `tune --json`'s `metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("batches", self.batches)
            .with("proposed", self.proposed)
            .with("measured", self.measured)
            .with("cache_hits", self.cache_hits)
            .with("deduped", self.deduped)
            .with("rejected", self.rejected)
            .with("out_of_budget", self.out_of_budget)
            .with("largest_batch", self.largest_batch)
            .with("threads", self.threads)
            .with("fanout_batches", self.fanout_batches)
            .with("fanout_thread_slots", self.fanout_thread_slots)
    }

    /// One-line human summary for reports.
    pub fn summary_line(&self) -> String {
        format!(
            "{} batches (largest {}), {} measured, {} hits + {} dups ({:.1}% cached), \
             {} rejected, {} over budget, fan-out {}x{} ({:.0}% util)",
            self.batches,
            self.largest_batch,
            self.measured,
            self.cache_hits,
            self.deduped,
            self.cache_hit_ratio() * 100.0,
            self.rejected,
            self.out_of_budget,
            self.threads,
            self.fanout_batches,
            self.fanout_utilization() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SyntheticKernel;
    use at_searchspace::prelude::*;

    fn space() -> SearchSpace {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 6))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("x * y >= 4");
        build_search_space(&spec, Method::Optimized).unwrap().0
    }

    #[test]
    fn model_backend_matches_the_model_arithmetic() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 3);
        let backend = ModelBackend::new(&k);
        let ids: Vec<ConfigId> = s.ids().take(5).collect();
        let out = backend.evaluate_batch(&s, &ids);
        assert_eq!(out.len(), ids.len());
        for (&id, m) in ids.iter().zip(&out) {
            let m = m.expect("valid id");
            let cfg = s.view(id).unwrap().to_vec();
            assert_eq!(m.runtime_ms, k.runtime_ms(&cfg));
            assert_eq!(m.cost_ms, k.measurement_cost_ms(&cfg, m.runtime_ms));
        }
    }

    #[test]
    fn model_backend_rejects_out_of_space_ids() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 3);
        let backend = ModelBackend::new(&k);
        let out = backend.evaluate_batch(&s, &[ConfigId::from_index(s.len())]);
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn metrics_ratios() {
        let m = EvalMetrics {
            batches: 4,
            proposed: 100,
            measured: 60,
            cache_hits: 25,
            deduped: 15,
            threads: 4,
            fanout_batches: 2,
            fanout_thread_slots: 6,
            ..Default::default()
        };
        assert!((m.cache_hit_ratio() - 0.40).abs() < 1e-12);
        assert!((m.dedup_ratio() - 0.15).abs() < 1e-12);
        assert!((m.fanout_utilization() - 0.75).abs() < 1e-12);
        assert!(EvalMetrics::default().cache_hit_ratio() == 0.0);
        assert!(m.summary_line().contains("4 batches"));
    }

    #[test]
    fn outcome_accessors() {
        assert_eq!(EvalOutcome::Measured(2.0).runtime(), Some(2.0));
        assert_eq!(EvalOutcome::Cached(3.0).runtime(), Some(3.0));
        assert_eq!(EvalOutcome::Rejected.runtime(), None);
        assert_eq!(EvalOutcome::OutOfBudget.runtime(), None);
        assert!(EvalOutcome::OutOfBudget.is_out_of_budget());
        assert!(out_of_budget(&[
            EvalOutcome::Measured(1.0),
            EvalOutcome::OutOfBudget
        ]));
        assert!(!out_of_budget(&[EvalOutcome::Rejected]));
    }
}
