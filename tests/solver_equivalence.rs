//! Cross-crate integration tests: every construction method must produce the
//! identical search space on the real-world workloads that are small enough
//! to cross-check exhaustively (the validation the paper performs against a
//! brute-force reference for every solver). Every method yields the
//! canonical row order, so the spaces are compared byte for byte, ranks and
//! order included, not as sets.

use autotuning_searchspaces::prelude::*;
use autotuning_searchspaces::workloads::{atf_prl, dedispersion, generate, SyntheticConfig};

fn assert_all_methods_agree(spec: &SearchSpaceSpec, methods: &[Method]) {
    let (reference, _) = build_search_space(spec, methods[0]).expect("reference construction");
    for &method in &methods[1..] {
        let (space, _) = build_search_space(spec, method).expect("construction");
        assert_eq!(
            space.len(),
            reference.len(),
            "{}: {} finds a different number of configurations",
            spec.name,
            method.label()
        );
        assert!(
            space.arena() == reference.arena(),
            "{}: {} builds different ranks than {}",
            spec.name,
            method.label(),
            methods[0].label()
        );
    }
}

#[test]
fn dedispersion_all_methods_agree() {
    let w = dedispersion();
    assert_all_methods_agree(
        &w.spec,
        &[
            Method::BruteForce,
            Method::Original,
            Method::Optimized,
            Method::ParallelOptimized,
            Method::ChainOfTrees,
        ],
    );
}

#[test]
fn atf_prl_2x2_all_methods_agree() {
    let w = atf_prl(2);
    assert_all_methods_agree(
        &w.spec,
        &[
            Method::BruteForce,
            Method::Original,
            Method::Optimized,
            Method::ParallelOptimized,
            Method::ChainOfTrees,
        ],
    );
}

#[test]
fn synthetic_spaces_all_methods_agree_including_blocking_clause() {
    // small synthetic spaces so the quadratic blocking-clause enumerator stays fast
    for seed in [1u64, 2, 3] {
        let spec = generate(SyntheticConfig {
            dimensions: 3,
            target_cartesian_size: 1_000,
            num_constraints: 3,
            seed,
        });
        assert_all_methods_agree(
            &spec,
            &[
                Method::BruteForce,
                Method::Original,
                Method::Optimized,
                Method::ParallelOptimized,
                Method::ChainOfTrees,
                Method::BlockingClause,
            ],
        );
    }
}

#[test]
fn every_configuration_reported_by_the_optimized_solver_is_valid() {
    let w = dedispersion();
    let problem = w
        .spec
        .to_problem(RestrictionLowering::Generic)
        .expect("lowering");
    let (space, _) = build_search_space(&w.spec, Method::Optimized).expect("construction");
    for config in space.iter_decoded() {
        assert!(problem.is_valid_configuration(&config));
    }
}

#[test]
fn optimized_and_generic_lowerings_produce_the_same_space() {
    let w = dedispersion();
    let (optimized, _) = build_search_space_with(
        &w.spec,
        Method::Optimized,
        BuildOptions {
            lowering: Some(RestrictionLowering::Optimized),
            ..Default::default()
        },
    )
    .expect("construction");
    let (generic, _) = build_search_space_with(
        &w.spec,
        Method::Optimized,
        BuildOptions {
            lowering: Some(RestrictionLowering::Generic),
            ..Default::default()
        },
    )
    .expect("construction");
    assert_eq!(optimized.len(), generic.len());
    for config in optimized.iter_decoded() {
        assert!(generic.contains(&config));
    }
}
