//! Integration tests of the resolved search space operations on a real-world
//! workload: neighbor symmetry, membership consistency, sampling validity and
//! true bounds.

use autotuning_searchspaces::prelude::*;
use autotuning_searchspaces::searchspace::{
    coverage_per_parameter, latin_hypercube_sample, neighbors, random_neighbor, sample_indices,
    NeighborMethod,
};
use autotuning_searchspaces::workloads::dedispersion;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dedispersion_space() -> SearchSpace {
    build_search_space(&dedispersion().spec, Method::Optimized)
        .expect("construction")
        .0
}

#[test]
fn hamming_neighbors_are_symmetric_and_valid_on_a_sample() {
    let space = dedispersion_space();
    let step = (space.len() / 50).max(1);
    for i in (0..space.len()).step_by(step).map(ConfigId::from_index) {
        let ns = neighbors(&space, i, NeighborMethod::Hamming);
        for &j in &ns {
            assert!(j.index() < space.len());
            // exactly one parameter differs (compare the encoded rows)
            let (mut a, mut b) = (Vec::new(), Vec::new());
            assert!(space.codes_into(i, &mut a) && space.codes_into(j, &mut b));
            let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
            assert_eq!(differing, 1);
            // symmetry
            let back = neighbors(&space, j, NeighborMethod::Hamming);
            assert!(back.contains(&i));
        }
    }
}

/// Draw `100 × |ring|` random Hamming neighbors of each queried id from one
/// fixed-seed generator, require every draw to be in the ring, and require
/// the pooled Pearson chi-square statistic of the per-ring counts to stay
/// under its p = 0.001 critical value (Wilson–Hilferty approximation).
fn assert_random_neighbors_are_uniform(space: &SearchSpace, ids: &[ConfigId], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut statistic, mut df) = (0.0f64, 0.0f64);
    for &id in ids {
        let ring = neighbors(space, id, NeighborMethod::Hamming);
        if ring.len() < 2 {
            continue;
        }
        let draws = 100 * ring.len();
        let mut counts = vec![0u64; ring.len()];
        for _ in 0..draws {
            let pick = random_neighbor(space, id, NeighborMethod::Hamming, &mut rng);
            let at = pick.and_then(|p| ring.iter().position(|&n| n == p));
            counts[at.unwrap_or_else(|| panic!("{id}: drew {pick:?} outside {ring:?}"))] += 1;
        }
        let expected = draws as f64 / ring.len() as f64;
        statistic += counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum::<f64>();
        df += (ring.len() - 1) as f64;
    }
    assert!(df >= 20.0, "too few neighbors to test: df {df}");
    let z = 3.090_232; // upper 0.001 quantile of the standard normal
    let a = 2.0 / (9.0 * df);
    let critical = df * (1.0 - a + z * a.sqrt()).powi(3);
    assert!(
        statistic < critical,
        "chi-square {statistic:.1} >= {critical:.1} (df {df})"
    );
}

#[test]
fn random_neighbors_are_uniform_on_a_grid() {
    let spec = SearchSpaceSpec::new("grid")
        .with_param(TunableParameter::ints("x", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("y", [1, 2, 4, 8]))
        .with_param(TunableParameter::ints("z", [1, 2, 4, 8]))
        .with_expr("x * y * z <= 64");
    let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
    let ids: Vec<ConfigId> = space.ids().collect();
    assert_random_neighbors_are_uniform(&space, &ids, 41);
}

#[test]
fn random_neighbors_are_uniform_on_dedispersion() {
    let space = dedispersion_space();
    let step = (space.len() / 40).max(1);
    let ids: Vec<ConfigId> = space.ids().step_by(step).collect();
    assert_random_neighbors_are_uniform(&space, &ids, 43);
}

#[test]
fn strictly_adjacent_neighbors_are_a_subset_of_hamming_neighbors() {
    let space = dedispersion_space();
    let step = (space.len() / 20).max(1);
    for i in (0..space.len()).step_by(step).map(ConfigId::from_index) {
        let hamming = neighbors(&space, i, NeighborMethod::Hamming);
        let strict = neighbors(&space, i, NeighborMethod::StrictlyAdjacent);
        for j in strict {
            assert!(hamming.contains(&j));
        }
    }
}

#[test]
fn membership_and_index_lookup_agree_with_enumeration() {
    let space = dedispersion_space();
    for view in space.iter().step_by(37) {
        let config = view.to_vec();
        assert!(space.contains(&config));
        assert_eq!(space.index_of(&config), Some(view.id()));
        let mut codes = Vec::new();
        view.codes_into(&mut codes);
        assert_eq!(space.index_of_codes(&codes), Some(view.id()));
        assert_eq!(space.index_of_rank(view.rank()), Some(view.id()));
    }
}

#[test]
fn true_bounds_are_within_declared_domains() {
    let space = dedispersion_space();
    for (param, bounds) in space.params().iter().zip(space.true_bounds()) {
        if let Some((lo, hi)) = bounds {
            let declared_min = param
                .values()
                .iter()
                .filter_map(|v| v.as_f64())
                .fold(f64::INFINITY, f64::min);
            let declared_max = param
                .values()
                .iter()
                .filter_map(|v| v.as_f64())
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(lo >= declared_min && hi <= declared_max, "{}", param.name());
            assert!(lo <= hi);
        }
    }
}

#[test]
fn random_and_lhs_samples_are_valid_and_lhs_spreads_over_parameters() {
    let space = dedispersion_space();
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let random = sample_indices(&space, 64, &mut rng);
    assert_eq!(random.len(), 64.min(space.len()));
    assert!(random.iter().all(|&i| i.index() < space.len()));

    let lhs = latin_hypercube_sample(&space, 32, &mut rng);
    assert!(!lhs.is_empty());
    assert!(lhs.iter().all(|&i| i.index() < space.len()));
    let coverage = coverage_per_parameter(&space, &lhs);
    // multi-valued parameters should see a decent spread of their values
    for (param, c) in space.params().iter().zip(coverage) {
        if param.len() >= 4 {
            assert!(c > 0.2, "{} coverage {c}", param.name());
        }
    }
}

#[test]
fn sparsity_matches_definition() {
    let space = dedispersion_space();
    let expected = 1.0 - space.len() as f64 / space.cartesian_size() as f64;
    assert!((space.sparsity() - expected).abs() < 1e-12);
}
