//! Sampling from the resolved search space: uniform random sampling and
//! Latin Hypercube Sampling (LHS).
//!
//! Because the space is fully resolved before tuning, samples are always
//! valid configurations and uniform sampling is unbiased — unlike sampling
//! through a chain-of-trees or rejection sampling through forbidden-clause
//! checks (Section 4.4). Samples are returned as [`ConfigId`]s; distances
//! and coverage are computed on the encoded code rows without decoding.

use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;

use crate::space::{ConfigId, SearchSpace};

/// Draw `count` distinct configuration ids uniformly at random.
/// If `count >= len`, all ids are returned (shuffled).
///
/// This is a *partial* Fisher–Yates shuffle over a sparse view of the id
/// range: only the first `count` steps of the shuffle run, and only the
/// displaced positions are tracked (in a hash map), so a call costs
/// O(count) time and memory regardless of the size of the space — drawing
/// 100 ids from a ten-million-configuration space no longer allocates and
/// shuffles a ten-million-entry vector. Distinctness and per-seed
/// determinism are preserved.
pub fn sample_indices<R: Rng>(space: &SearchSpace, count: usize, rng: &mut R) -> Vec<ConfigId> {
    let n = space.len();
    let count = count.min(n);
    // `displaced[p]` is the id currently "stored" at position p of the
    // virtual id array; absent positions still hold their own id.
    let mut displaced: FxHashMap<usize, usize> = FxHashMap::default();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let j = rng.gen_range(i..n);
        let pick = displaced.get(&j).copied().unwrap_or(j);
        let shadowed = displaced.get(&i).copied().unwrap_or(i);
        displaced.insert(j, shadowed);
        out.push(ConfigId::from_index(pick));
    }
    out
}

/// Latin Hypercube Sampling over the valid configurations.
///
/// Each parameter's *value code range* is divided into `count` strata; one
/// stratum per parameter is drawn per sample (a Latin square per dimension),
/// the resulting grid point is snapped to the nearest valid configuration
/// (normalized Euclidean distance over value codes), and duplicates are
/// removed. The result therefore contains at most `count` distinct,
/// always-valid configurations spread over the space.
pub fn latin_hypercube_sample<R: Rng>(
    space: &SearchSpace,
    count: usize,
    rng: &mut R,
) -> Vec<ConfigId> {
    let n = space.len();
    if n == 0 || count == 0 {
        return Vec::new();
    }
    let count = count.min(n);
    let dims = space.num_params();
    // Per dimension: a random permutation of the strata 0..count.
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(dims);
    for _ in 0..dims {
        let mut perm: Vec<usize> = (0..count).collect();
        perm.shuffle(rng);
        strata.push(perm);
    }
    // Normalized target coordinates per sample.
    let inv_sizes: Vec<f64> = space
        .params()
        .iter()
        .map(|p| 1.0 / p.len().max(1) as f64)
        .collect();
    let mut picked = Vec::with_capacity(count);
    #[allow(clippy::needless_range_loop)] // `s` selects one stratum *per dimension*
    for s in 0..count {
        let target: Vec<f64> = (0..dims)
            .map(|d| {
                let stratum = strata[d][s] as f64;
                let jitter: f64 = rng.gen_range(0.0..1.0);
                (stratum + jitter) / count as f64 // in [0, 1)
            })
            .collect();

        // Snap to the nearest valid configuration by normalized value code.
        let mut best = ConfigId::from_index(0);
        let mut best_dist = f64::INFINITY;
        for view in space.iter() {
            let mut dist = 0.0;
            for d in 0..dims {
                let code = space.code_at(view.rank(), d);
                let diff = code as f64 * inv_sizes[d] - target[d];
                dist += diff * diff;
            }
            if dist < best_dist {
                best_dist = dist;
                best = view.id();
            }
        }
        picked.push(best);
    }
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Summary of how well a set of samples covers each parameter's range,
/// reported as the fraction of distinct occurring values hit per parameter.
/// Used to verify the stratification benefit of LHS over naive sampling.
pub fn coverage_per_parameter(space: &SearchSpace, samples: &[ConfigId]) -> Vec<f64> {
    let occurring = space.occurring_values();
    (0..space.num_params())
        .map(|d| {
            let total = occurring[d].len().max(1);
            let mut seen = std::collections::HashSet::new();
            for &id in samples {
                if let Some(code) = space.view(id).and_then(|view| view.code(d)) {
                    seen.insert(code);
                }
            }
            seen.len() as f64 / total as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::TunableParameter;
    use at_csp::value::int_values;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn grid_space(k: i64) -> SearchSpace {
        let vals: Vec<i64> = (1..=k).collect();
        let params = vec![
            TunableParameter::ints("x", vals.clone()),
            TunableParameter::ints("y", vals.clone()),
        ];
        let mut configs = Vec::new();
        for &x in &vals {
            for &y in &vals {
                configs.push(int_values([x, y]));
            }
        }
        SearchSpace::from_configs("grid", params, configs).unwrap()
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let s = grid_space(8);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let samples = sample_indices(&s, 20, &mut rng);
        assert_eq!(samples.len(), 20);
        let mut dedup = samples.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
        assert!(samples.iter().all(|&i| i.index() < s.len()));
    }

    #[test]
    fn sample_more_than_space_returns_everything() {
        let s = grid_space(3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let samples = sample_indices(&s, 100, &mut rng);
        assert_eq!(samples.len(), 9);
        let mut all: Vec<usize> = samples.iter().map(|id| id.index()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let s = grid_space(16);
        let a = sample_indices(&s, 40, &mut ChaCha8Rng::seed_from_u64(9));
        let b = sample_indices(&s, 40, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = sample_indices(&s, 40, &mut ChaCha8Rng::seed_from_u64(10));
        assert_ne!(a, c, "different seeds should draw different samples");
    }

    #[test]
    fn sampling_covers_the_whole_id_range() {
        // every id must be reachable, including the tail of the range
        let s = grid_space(8); // 64 configurations
        let mut seen = vec![false; s.len()];
        for seed in 0..200 {
            for id in sample_indices(&s, 4, &mut ChaCha8Rng::seed_from_u64(seed)) {
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some ids were never drawn");
    }

    #[test]
    fn lhs_samples_are_valid_and_distinct() {
        let s = grid_space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let samples = latin_hypercube_sample(&s, 10, &mut rng);
        assert!(!samples.is_empty());
        assert!(samples.len() <= 10);
        assert!(samples.iter().all(|&i| i.index() < s.len()));
    }

    #[test]
    fn lhs_covers_parameter_ranges_better_than_a_single_stratum() {
        let s = grid_space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let samples = latin_hypercube_sample(&s, 10, &mut rng);
        let coverage = coverage_per_parameter(&s, &samples);
        // with 10 strata over 10 values, each dimension should hit a good
        // spread of values (well above a clustered sample's coverage)
        for c in coverage {
            assert!(c >= 0.5, "coverage {c}");
        }
    }

    #[test]
    fn empty_space_and_zero_count() {
        let s = SearchSpace::from_configs("empty", vec![TunableParameter::ints("x", [1])], vec![])
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(latin_hypercube_sample(&s, 5, &mut rng).is_empty());
        let s2 = grid_space(3);
        assert!(latin_hypercube_sample(&s2, 0, &mut rng).is_empty());
    }
}
