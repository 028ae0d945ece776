//! Particle swarm optimization over the value-index space.
//!
//! Kernel Tuner ships a PSO strategy that treats each configuration as a
//! point in the per-parameter *value code* space: particle positions are
//! continuous vectors, and every evaluation snaps the position to a valid
//! configuration of the resolved search space. The snap step is where the
//! `SearchSpace` abstraction matters — without the resolved space, a
//! particle landing on an invalid combination would waste a kernel
//! compilation just to discover the constraint violation. Snapping first
//! tries the exact rounded position through the encoded-row lookup and
//! only falls back to a bounded random sample of valid configurations, so
//! snap cost is independent of space size.
//!
//! The swarm moves *synchronously*: every particle updates its velocity
//! against the previous generation's global best, the whole swarm is
//! evaluated as one batch, and personal/global bests are updated afterwards
//! — the classic synchronous PSO formulation, and exactly what the batch
//! engine wants.

use rand::Rng;

use at_searchspace::ConfigId;

use crate::eval::out_of_budget;
use crate::tuning::{Strategy, TuningContext};

/// Particle swarm optimization with inertia and cognitive/social attraction.
#[derive(Debug, Clone, Copy)]
pub struct ParticleSwarm {
    /// Number of particles (and batch size per iteration).
    pub swarm_size: usize,
    /// Velocity inertia weight.
    pub inertia: f64,
    /// Attraction towards the particle's own best position.
    pub cognitive: f64,
    /// Attraction towards the swarm's best position.
    pub social: f64,
    /// How many random valid configurations to consider when the rounded
    /// position is not itself a valid configuration.
    pub snap_candidates: usize,
}

impl Default for ParticleSwarm {
    fn default() -> Self {
        ParticleSwarm {
            swarm_size: 12,
            inertia: 0.7,
            cognitive: 1.5,
            social: 1.5,
            snap_candidates: 64,
        }
    }
}

struct Particle {
    position: Vec<f64>,
    velocity: Vec<f64>,
    best_position: Vec<f64>,
    best_time: f64,
}

impl ParticleSwarm {
    /// Snap a continuous position in value-code space to a valid
    /// configuration id: exact hit through the encoded-row lookup when
    /// the rounded position is valid, otherwise the nearest (normalized code
    /// distance) of a bounded random sample of valid configurations.
    fn snap(&self, ctx: &mut TuningContext<'_>, position: &[f64]) -> ConfigId {
        let space = ctx.space();
        let exact: Vec<u32> = position
            .iter()
            .zip(space.params().iter())
            .map(|(&p, param)| (p.round() as i64).clamp(0, param.len() as i64 - 1) as u32)
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
            let dist: f64 = position
                .iter()
                .zip(space.params().iter())
                .enumerate()
                .map(|(dim, (&p, param))| {
                    let scale = param.len().max(1) as f64;
                    let d = (space.code_at(rank, dim) as f64 - p) / scale;
                    d * d
                })
                .sum();
            if dist < best_dist {
                best_dist = dist;
                best = candidate;
            }
        }
        best
    }

    fn random_position(ctx: &mut TuningContext<'_>) -> Vec<f64> {
        let sizes: Vec<usize> = ctx.space().params().iter().map(|p| p.len()).collect();
        sizes
            .iter()
            .map(|&s| ctx.rng().gen_range(0.0..s.max(1) as f64))
            .collect()
    }
}

impl Strategy for ParticleSwarm {
    fn name(&self) -> &'static str {
        "particle-swarm"
    }

    fn run(&self, ctx: &mut TuningContext<'_>) {
        let dims = ctx.space().params().len();
        let swarm_size = self.swarm_size.clamp(2, ctx.space().len().max(2));

        // initialize the swarm: one batch over all starting positions
        let mut swarm: Vec<Particle> = Vec::with_capacity(swarm_size);
        let mut configs: Vec<ConfigId> = Vec::with_capacity(swarm_size);
        for _ in 0..swarm_size {
            let position = Self::random_position(ctx);
            configs.push(self.snap(ctx, &position));
            swarm.push(Particle {
                best_position: position.clone(),
                best_time: f64::INFINITY,
                position,
                velocity: vec![0.0; dims],
            });
        }
        let outcomes = ctx.evaluate_batch(&configs);
        let mut global_best_position: Option<Vec<f64>> = None;
        let mut global_best_time = f64::INFINITY;
        for (p, outcome) in swarm.iter_mut().zip(&outcomes) {
            if let Some(time) = outcome.runtime() {
                p.best_time = time;
                if time < global_best_time {
                    global_best_time = time;
                    global_best_position = Some(p.position.clone());
                }
            }
        }
        if out_of_budget(&outcomes) || global_best_position.is_none() {
            return;
        }

        let sizes: Vec<f64> = ctx
            .space()
            .params()
            .iter()
            .map(|p| p.len().max(1) as f64)
            .collect();

        while !ctx.exhausted() {
            // move every particle against the previous generation's global
            // best, collecting the whole swarm as one batch
            let global = global_best_position
                .as_ref()
                .expect("set during initialization")
                .clone();
            configs.clear();
            for p in &mut swarm {
                for d in 0..dims {
                    let r1: f64 = ctx.rng().gen();
                    let r2: f64 = ctx.rng().gen();
                    p.velocity[d] = self.inertia * p.velocity[d]
                        + self.cognitive * r1 * (p.best_position[d] - p.position[d])
                        + self.social * r2 * (global[d] - p.position[d]);
                    // clamp the step to the parameter range to avoid divergence
                    let limit = sizes[d];
                    p.velocity[d] = p.velocity[d].clamp(-limit, limit);
                    p.position[d] = (p.position[d] + p.velocity[d]).clamp(0.0, limit - 1.0);
                }
            }
            for p in &swarm {
                configs.push(self.snap(ctx, &p.position));
            }

            let outcomes = ctx.evaluate_batch(&configs);
            for (p, outcome) in swarm.iter_mut().zip(&outcomes) {
                if let Some(time) = outcome.runtime() {
                    if time < p.best_time {
                        p.best_time = time;
                        p.best_position = p.position.clone();
                    }
                    if time < global_best_time {
                        global_best_time = time;
                        global_best_position = Some(p.position.clone());
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

    fn space() -> SearchSpace {
        let spec = SearchSpaceSpec::new("pso")
            .with_param(TunableParameter::pow2("x", 7))
            .with_param(TunableParameter::pow2("y", 6))
            .with_param(TunableParameter::ints("w", [1, 2, 4]))
            .with_expr("16 <= x * y <= 2048");
        build_search_space(&spec, Method::Optimized).unwrap().0
    }

    #[test]
    fn pso_only_evaluates_valid_configurations() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 5);
        let run = tune(
            &s,
            &k,
            &ParticleSwarm::default(),
            Duration::from_secs(10),
            Duration::ZERO,
            21,
        );
        assert!(run.num_evaluations() > 0);
        for e in &run.evaluations {
            assert!(s.view(e.config_index).is_some());
        }
        // snapping keeps every proposal inside the space
        assert_eq!(run.metrics.rejected, 0);
    }

    #[test]
    fn pso_improves_over_initial_swarm_average() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 13);
        let pso = ParticleSwarm::default();
        let run = tune(&s, &k, &pso, Duration::from_secs(60), Duration::ZERO, 3);
        let init = pso.swarm_size.min(run.num_evaluations());
        let initial_avg: f64 = run.evaluations[..init]
            .iter()
            .map(|e| e.runtime_ms)
            .sum::<f64>()
            / init as f64;
        assert!(run.best_runtime_ms().unwrap() < initial_avg);
    }

    #[test]
    fn snap_returns_a_valid_index() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 1);
        let backend = crate::eval::ModelBackend::new(&k);
        let mut ctx = crate::tuning::TuningContext::new(
            &s,
            &backend,
            Duration::from_secs(1),
            Duration::ZERO,
            1,
            crate::eval::EvalOptions::default(),
        );
        let pso = ParticleSwarm::default();
        let pos = ParticleSwarm::random_position(&mut ctx);
        let id = pso.snap(&mut ctx, &pos);
        assert!(id.index() < s.len());
    }
}
