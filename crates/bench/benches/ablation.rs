//! Ablation study: how much each individual optimization of Section 4.3
//! contributes, measured on GEMM and on the two spaces the repository
//! benchmark builds cold, MicroHH and ATF PRL 8x8.
//!
//! * variable ordering (Algorithm 1's `SortVariables`)
//! * domain preprocessing by specific constraints
//! * forward checking
//! * constraint decomposition + specific-constraint recognition (the parser)
//! * AC-3 generalized arc consistency (an optional extra pass, off by default)

use criterion::{criterion_group, criterion_main, Criterion};

use at_csp::OptimizedSolverConfig;
use at_searchspace::{build_search_space_with, BuildOptions, Method, RestrictionLowering};
use at_workloads::{atf_prl, gemm, microhh};

fn bench_ablation(c: &mut Criterion) {
    for (label, spec) in [
        ("gemm", gemm().spec),
        ("microhh", microhh().spec),
        ("prl-8x8", atf_prl(8).spec),
    ] {
        let mut group = c.benchmark_group(format!("ablation/{label}"));
        group.sample_size(10);
        for (name, options) in configs() {
            group.bench_function(name, |b| {
                b.iter(|| {
                    build_search_space_with(&spec, Method::Optimized, options)
                        .unwrap()
                        .0
                        .len()
                })
            });
        }
        group.finish();
    }
}

/// The full solver, then each optimization switched off (or AC-3 on).
fn configs() -> Vec<(&'static str, BuildOptions)> {
    vec![
        ("full", BuildOptions::default()),
        (
            "no-variable-ordering",
            BuildOptions {
                solver_config: Some(OptimizedSolverConfig {
                    variable_ordering: false,
                    ..Default::default()
                }),
                ..Default::default()
            },
        ),
        (
            "no-preprocessing",
            BuildOptions {
                solver_config: Some(OptimizedSolverConfig {
                    preprocess: false,
                    ..Default::default()
                }),
                ..Default::default()
            },
        ),
        (
            "no-forward-checking",
            BuildOptions {
                solver_config: Some(OptimizedSolverConfig {
                    forward_check: false,
                    ..Default::default()
                }),
                ..Default::default()
            },
        ),
        (
            "no-parser-generic-lowering",
            BuildOptions {
                lowering: Some(RestrictionLowering::Generic),
                ..Default::default()
            },
        ),
        (
            "with-arc-consistency",
            BuildOptions {
                solver_config: Some(OptimizedSolverConfig {
                    arc_consistency: true,
                    ..Default::default()
                }),
                ..Default::default()
            },
        ),
    ]
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
