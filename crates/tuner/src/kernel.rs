//! Simulated kernel performance models.
//!
//! The paper's end-to-end experiments (Section 5.4, Figures 6–7) tune real
//! GPU kernels on an NVIDIA A100. This reproduction has no GPU, so kernel
//! execution is replaced by deterministic synthetic performance models: a
//! configuration's "runtime" is a smooth multimodal function of its
//! normalized parameter values plus deterministic configuration-specific
//! jitter. What matters for the experiment — that different configurations
//! have different, reproducible performance, and that evaluating one costs
//! simulated wall-clock time — is preserved.
//!
//! Models plug into the batched evaluation pipeline through
//! [`crate::eval::ModelBackend`], the first [`crate::eval::EvalBackend`]
//! implementation; the `Send + Sync` bound is what lets the engine share a
//! model across its fan-out worker threads.

use at_csp::Value;
use at_searchspace::SearchSpace;

/// A model that maps a configuration to a simulated kernel runtime.
pub trait PerformanceModel: Send + Sync {
    /// Simulated runtime in milliseconds of one kernel execution for the
    /// configuration (values in parameter declaration order).
    fn runtime_ms(&self, config: &[Value]) -> f64;

    /// Simulated benchmarking overhead per configuration in milliseconds
    /// (compilation, data transfers, framework overhead). Defaults to 50 ms.
    fn overhead_ms(&self, _config: &[Value]) -> f64 {
        50.0
    }

    /// Number of kernel repetitions per measurement (Kernel Tuner defaults to
    /// several to reduce noise). Defaults to 7.
    fn iterations(&self) -> u32 {
        7
    }

    /// Total simulated cost of benchmarking one configuration whose
    /// [`PerformanceModel::runtime_ms`] is `runtime_ms`, in milliseconds.
    /// The caller passes the runtime it already evaluated, so a measurement
    /// evaluates the model once.
    fn measurement_cost_ms(&self, config: &[Value], runtime_ms: f64) -> f64 {
        self.overhead_ms(config) + runtime_ms * self.iterations() as f64
    }
}

/// A deterministic synthetic kernel model.
///
/// The runtime surface is built from the configuration's normalized position
/// in each parameter's value list: a sum of cosine ridges (creating multiple
/// local optima), a mild interaction term between neighbouring parameters,
/// and a per-configuration deterministic jitter derived from a hash of the
/// values, scaled by `noise`.
#[derive(Debug, Clone)]
pub struct SyntheticKernel {
    /// Baseline runtime in milliseconds for the best possible configuration.
    pub base_ms: f64,
    /// Amplitude of the performance variation relative to `base_ms`.
    pub amplitude: f64,
    /// Relative magnitude of deterministic per-configuration jitter.
    pub noise: f64,
    /// Seed mixed into the jitter hash.
    pub seed: u64,
    /// Per-parameter normalization: the number of values of each parameter.
    param_sizes: Vec<usize>,
}

impl SyntheticKernel {
    /// Create a model for a resolved search space.
    pub fn for_space(space: &SearchSpace, seed: u64) -> Self {
        SyntheticKernel {
            base_ms: 2.0,
            amplitude: 8.0,
            noise: 0.05,
            seed,
            param_sizes: space.params().iter().map(|p| p.len().max(1)).collect(),
        }
    }

    /// Create a model with explicit parameters.
    pub fn new(
        base_ms: f64,
        amplitude: f64,
        noise: f64,
        seed: u64,
        param_sizes: Vec<usize>,
    ) -> Self {
        SyntheticKernel {
            base_ms,
            amplitude,
            noise,
            seed,
            param_sizes,
        }
    }

    fn normalized(&self, config: &[Value]) -> Vec<f64> {
        config
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let size = (*self.param_sizes.get(i).unwrap_or(&1) as f64).max(2.0);
                match v.as_f64() {
                    // Positive numeric values map through log2 so that the
                    // power-of-two domains common in auto-tuning spread evenly.
                    Some(f) if f > 0.0 => f.log2().rem_euclid(size) / size,
                    Some(_) => 0.5,
                    // Non-numeric values get a stable pseudo-position.
                    None => (hash_value(v, self.seed) % 1000) as f64 / 1000.0,
                }
            })
            .collect()
    }

    fn jitter(&self, config: &[Value]) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in config {
            h = h
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(hash_value(v, self.seed));
        }
        // map to [-1, 1]
        ((h % 20001) as f64 / 10000.0) - 1.0
    }
}

fn hash_value(v: &Value, seed: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut hasher);
    v.hash(&mut hasher);
    hasher.finish()
}

impl PerformanceModel for SyntheticKernel {
    fn runtime_ms(&self, config: &[Value]) -> f64 {
        let coords = self.normalized(config);
        let n = coords.len().max(1) as f64;
        // Multimodal ridge landscape in [0, 1]^d.
        let mut penalty = 0.0;
        for (i, &x) in coords.iter().enumerate() {
            let phase = (i as f64 + 1.0) * 0.7;
            penalty += 0.5 * (1.0 - ((x * std::f64::consts::TAU * 1.5 + phase).cos())) / n;
            // distance to a per-dimension optimum
            let optimum = ((i as f64 * 0.37) + 0.21).fract();
            penalty += (x - optimum).abs() / n;
        }
        // interaction between neighbouring parameters
        for w in coords.windows(2) {
            penalty += 0.25 * (w[0] - w[1]).abs() / n;
        }
        let jitter = 1.0 + self.noise * self.jitter(config);
        (self.base_ms + self.amplitude * penalty) * jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::value::int_values;
    use at_searchspace::prelude::*;

    fn space() -> SearchSpace {
        let spec = SearchSpaceSpec::new("s")
            .with_param(TunableParameter::pow2("x", 6))
            .with_param(TunableParameter::pow2("y", 6))
            .with_expr("x * y >= 4");
        build_search_space(&spec, Method::Optimized).unwrap().0
    }

    #[test]
    fn deterministic() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 42);
        let cfg = s.iter().next().unwrap().to_vec();
        assert_eq!(k.runtime_ms(&cfg), k.runtime_ms(&cfg));
        let t = k.runtime_ms(&cfg);
        assert_eq!(
            k.measurement_cost_ms(&cfg, t),
            k.measurement_cost_ms(&cfg, t)
        );
    }

    #[test]
    fn different_configs_have_different_runtimes() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 42);
        let mut runtimes: Vec<f64> = s.iter_decoded().map(|c| k.runtime_ms(&c)).collect();
        runtimes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runtimes.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        assert!(runtimes.len() > s.len() / 2, "landscape too flat");
    }

    #[test]
    fn runtimes_are_positive_and_bounded() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 7);
        for c in s.iter_decoded() {
            let t = k.runtime_ms(&c);
            assert!(t > 0.0);
            assert!(t < k.base_ms + k.amplitude * 3.0 + 5.0);
        }
    }

    #[test]
    fn measurement_cost_includes_overhead_and_iterations() {
        let s = space();
        let k = SyntheticKernel::for_space(&s, 1);
        let cfg = s.iter().next().unwrap().to_vec();
        let t = k.runtime_ms(&cfg);
        let cost = k.measurement_cost_ms(&cfg, t);
        assert!(cost > t * k.iterations() as f64);
        assert_eq!(cost, k.overhead_ms(&cfg) + t * k.iterations() as f64);
    }

    #[test]
    fn seeds_change_the_landscape() {
        let s = space();
        let a = SyntheticKernel::for_space(&s, 1);
        let b = SyntheticKernel::for_space(&s, 2);
        let cfg = s.iter().next().unwrap().to_vec();
        assert_ne!(a.runtime_ms(&cfg), b.runtime_ms(&cfg));
    }

    #[test]
    fn string_values_are_supported() {
        let k = SyntheticKernel::new(1.0, 2.0, 0.0, 3, vec![2]);
        let t = k.runtime_ms(&[Value::str("on")]);
        assert!(t > 0.0);
        let _ = int_values([1]);
    }
}
