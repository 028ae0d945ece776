//! Integration tests of the resolved search space operations on a real-world
//! workload: neighbor symmetry, membership consistency, sampling validity and
//! true bounds.

use autotuning_searchspaces::prelude::*;
use autotuning_searchspaces::searchspace::{
    coverage_per_parameter, latin_hypercube_sample, neighbors, sample_indices, NeighborMethod,
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
            let a = space.codes_of(i).unwrap();
            let b = space.codes_of(j).unwrap();
            let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
            assert_eq!(differing, 1);
            // symmetry
            let back = neighbors(&space, j, NeighborMethod::Hamming);
            assert!(back.contains(&i));
        }
    }
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
        assert_eq!(space.index_of_codes(view.codes()), Some(view.id()));
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
