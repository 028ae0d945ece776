//! Greedy hill climbing with random restarts.

use rand::Rng;

use at_searchspace::{neighbors, ConfigId, NeighborMethod};

use crate::eval::out_of_budget;
use crate::tuning::{Strategy, TuningContext};

/// Greedy hill climbing over Hamming-distance-1 neighbors, restarting from a
/// random configuration at local optima. Each step proposes the *entire*
/// neighbor ring as one batch (so the engine can measure it in parallel) and
/// moves to the best improving neighbor — steepest descent rather than the
/// first-improvement walk the serial evaluator forced.
#[derive(Debug, Clone, Copy)]
pub struct HillClimbing {
    /// Neighbor definition used for the climb.
    pub neighbor_method: NeighborMethod,
}

impl Default for HillClimbing {
    fn default() -> Self {
        HillClimbing {
            neighbor_method: NeighborMethod::Hamming,
        }
    }
}

impl Strategy for HillClimbing {
    fn name(&self) -> &'static str {
        "hill-climbing"
    }

    fn run(&self, ctx: &mut TuningContext<'_>) {
        let n = ctx.space().len();
        while !ctx.exhausted() {
            // random restart
            let current = ConfigId::from_index(ctx.rng().gen_range(0..n));
            let start = ctx.evaluate_one(current);
            if start.is_out_of_budget() {
                return;
            }
            let Some(mut current_time) = start.runtime() else {
                continue;
            };
            let mut current = current;
            loop {
                let ring = neighbors(ctx.space(), current, self.neighbor_method);
                let outcomes = ctx.evaluate_batch(&ring);
                // steepest descent: best improving neighbor, if any
                let mut best: Option<(ConfigId, f64)> = None;
                for (&candidate, outcome) in ring.iter().zip(&outcomes) {
                    if let Some(t) = outcome.runtime() {
                        if t < current_time && best.map(|(_, bt)| t < bt).unwrap_or(true) {
                            best = Some((candidate, t));
                        }
                    }
                }
                if out_of_budget(&outcomes) {
                    return;
                }
                match best {
                    Some((next, t)) => {
                        current = next;
                        current_time = t;
                    }
                    None => break, // local optimum: restart
                }
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
    fn descends_to_a_local_optimum() {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 6))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("x * y >= 4");
        let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let model = SyntheticKernel::for_space(&space, 17);
        let run = tune(
            &space,
            &model,
            &HillClimbing::default(),
            Duration::from_secs(30),
            Duration::ZERO,
            99,
        );
        let best = run.best_runtime_ms().unwrap();
        // the final best must be no worse than the first random start
        assert!(best <= run.evaluations[0].runtime_ms);
    }
}
