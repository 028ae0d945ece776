//! Differential evolution adapted to discrete, constrained spaces.
//!
//! Individuals live in the per-parameter *value code* space. The classic
//! DE/rand/1/bin mutation `a + F * (b - c)` is computed on code vectors,
//! rounded, clamped to each parameter's code range and then snapped to a
//! valid configuration: if the mutant is not in the resolved search space the
//! nearest valid configuration (normalized code distance) among a bounded
//! candidate sample is used. This mirrors how Kernel Tuner adapts continuous
//! strategies to constrained discrete spaces via the `SearchSpace`. The whole
//! strategy works on encoded rows and the [`ConfigId`] fast path — no
//! configuration is ever decoded to values.
//!
//! The generation is the batch: all trial vectors are built serially (the
//! RNG draws stay in proposal order), then the whole generation is submitted
//! through [`TuningContext::evaluate_batch`] and selection happens
//! element-wise against the previous population.

use rand::Rng;

use at_searchspace::ConfigId;

use crate::eval::out_of_budget;
use crate::tuning::{Strategy, TuningContext};

/// DE/rand/1/bin over configuration value codes.
#[derive(Debug, Clone, Copy)]
pub struct DifferentialEvolution {
    /// Population size (and trial batch size per generation).
    pub population_size: usize,
    /// Differential weight `F`.
    pub differential_weight: f64,
    /// Crossover probability `CR`.
    pub crossover_rate: f64,
    /// How many random valid configurations to consider when snapping an
    /// invalid mutant back into the space.
    pub snap_candidates: usize,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        DifferentialEvolution {
            population_size: 20,
            differential_weight: 0.7,
            crossover_rate: 0.8,
            snap_candidates: 64,
        }
    }
}

impl DifferentialEvolution {
    /// Snap a code vector to a valid configuration id: exact hit through the
    /// encoded-row fast path if the corresponding configuration exists,
    /// otherwise the nearest of a random sample of valid configurations.
    fn snap(&self, ctx: &mut TuningContext<'_>, target: &[f64]) -> ConfigId {
        let space = ctx.space();
        let exact: Vec<u32> = target
            .iter()
            .zip(space.params().iter())
            .map(|(&code, param)| (code.round() as i64).clamp(0, param.len() as i64 - 1) as u32)
            .collect();
        if let Some(id) = space.index_of_codes(&exact) {
            return id;
        }
        let n = space.len();
        let mut best = ConfigId::from_index(0);
        let mut best_dist = f64::INFINITY;
        for _ in 0..self.snap_candidates.max(1) {
            let candidate = ConfigId::from_index(ctx.rng().gen_range(0..n));
            let space = ctx.space();
            let rank = space.rank_of(candidate).expect("valid id");
            let dist: f64 = target
                .iter()
                .zip(space.params().iter())
                .enumerate()
                .map(|(d, (&t, param))| {
                    let scale = param.len().max(1) as f64;
                    let diff = (space.code_at(rank, d) as f64 - t) / scale;
                    diff * diff
                })
                .sum();
            if dist < best_dist {
                best_dist = dist;
                best = candidate;
            }
        }
        best
    }
}

impl Strategy for DifferentialEvolution {
    fn name(&self) -> &'static str {
        "differential-evolution"
    }

    fn run(&self, ctx: &mut TuningContext<'_>) {
        let n = ctx.space().len();
        let dims = ctx.space().params().len();
        let pop_size = self.population_size.min(n).max(4);

        // initial population: one batch of random configurations (sampled
        // with replacement; the engine dedups in-batch repeats)
        let seeds: Vec<ConfigId> = (0..pop_size)
            .map(|_| ConfigId::from_index(ctx.rng().gen_range(0..n)))
            .collect();
        let outcomes = ctx.evaluate_batch(&seeds);
        let mut population: Vec<(ConfigId, f64)> = seeds
            .iter()
            .zip(&outcomes)
            .filter_map(|(&id, o)| o.runtime().map(|t| (id, t)))
            .collect();
        if out_of_budget(&outcomes) || population.len() < 4 {
            return;
        }

        while !ctx.exhausted() {
            // build the whole generation of trial configurations first
            let mut trials: Vec<ConfigId> = Vec::with_capacity(population.len());
            for i in 0..population.len() {
                // pick three distinct partners
                let mut partners = [0usize; 3];
                for slot in &mut partners {
                    loop {
                        let pick = ctx.rng().gen_range(0..population.len());
                        if pick != i {
                            *slot = pick;
                            break;
                        }
                    }
                }
                let (a, b, c) = (
                    population[partners[0]].0,
                    population[partners[1]].0,
                    population[partners[2]].0,
                );
                // mutation + binomial crossover in code space: decode each
                // cell of the four rows from its rank as it is needed (no
                // row copy — `space()` outlives the `rng()` borrows below)
                let space = ctx.space();
                let rank = |id: ConfigId| space.rank_of(id).expect("valid id");
                let ranks = [a, b, c, population[i].0].map(rank);
                let code = |row: usize, d: usize| space.code_at(ranks[row], d) as f64;
                let forced = ctx.rng().gen_range(0..dims);
                let mut trial = vec![0.0f64; dims];
                for (d, slot) in trial.iter_mut().enumerate() {
                    let mutant = code(0, d) + self.differential_weight * (code(1, d) - code(2, d));
                    let cross = ctx.rng().gen_bool(self.crossover_rate) || d == forced;
                    *slot = if cross { mutant } else { code(3, d) };
                }
                trials.push(self.snap(ctx, &trial));
            }

            // one batch per generation, then element-wise selection
            let outcomes = ctx.evaluate_batch(&trials);
            for ((&trial, outcome), incumbent) in
                trials.iter().zip(&outcomes).zip(population.iter_mut())
            {
                if let Some(t) = outcome.runtime() {
                    if t < incumbent.1 {
                        *incumbent = (trial, t);
                    }
                }
            }
            if out_of_budget(&outcomes) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SyntheticKernel;
    use crate::tuning::tune;
    use at_searchspace::prelude::*;
    use std::time::Duration;

    #[test]
    fn de_improves_and_stays_valid() {
        let spec = SearchSpaceSpec::new("de")
            .with_param(TunableParameter::pow2("x", 7))
            .with_param(TunableParameter::pow2("y", 6))
            .with_param(TunableParameter::ints("t", [1, 2, 4, 8]))
            .with_expr("16 <= x * y <= 2048")
            .with_expr("t <= y");
        let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let model = SyntheticKernel::for_space(&space, 13);
        let run = tune(
            &space,
            &model,
            &DifferentialEvolution::default(),
            Duration::from_secs(60),
            Duration::ZERO,
            21,
        );
        assert!(run.num_evaluations() > 10);
        for e in &run.evaluations {
            assert!(space.view(e.config_index).is_some());
        }
        // snapping keeps every proposal inside the space
        assert_eq!(run.metrics.rejected, 0);
        let initial_best = run.evaluations[..DifferentialEvolution::default()
            .population_size
            .min(run.num_evaluations())]
            .iter()
            .map(|e| e.runtime_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(run.best_runtime_ms().unwrap() <= initial_best);
    }
}
