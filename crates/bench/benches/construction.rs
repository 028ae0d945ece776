//! Construction-path benchmarks: time and peak transient allocation for all
//! six construction methods on real-world workloads.
//!
//! Complements `realworld.rs` (which tracks the paper's Figure 5 series) by
//! measuring what the streaming construction pipeline is specifically
//! responsible for: the *peak transient allocation* between the start of
//! `build_search_space` and the finished `SearchSpace`. The counting
//! global allocator (`at_obs::alloc`) reports the high-water mark of live
//! heap bytes during one instrumented construction per method; with the
//! encoding sink this is dominated by the `u64` rank array itself (or by the
//! method's own search structures) rather than a decoded
//! `Vec<Vec<Value>>` copy of every solution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use at_searchspace::builder::{build_search_space_with, BuildOptions};
use at_searchspace::{build_search_space, Method, SearchSpaceSpec, TunableParameter};
use at_workloads::{atf_prl, dedispersion, expdist};

#[global_allocator]
static ALLOC: at_obs::alloc::CountingAllocator = at_obs::alloc::CountingAllocator;

fn workloads() -> Vec<SearchSpaceSpec> {
    vec![dedispersion().spec, atf_prl(2).spec]
}

/// The methods in evaluation order, with the quadratic blocking-clause
/// enumerator last (it dominates runtime).
const METHODS: [Method; 6] = [
    Method::BruteForce,
    Method::Original,
    Method::Optimized,
    Method::ParallelOptimized,
    Method::ChainOfTrees,
    Method::BlockingClause,
];

/// One instrumented construction per method/workload: report the peak
/// transient heap allocation above the pre-call baseline, alongside the
/// retained size of the finished space.
fn report_peak_allocation() {
    println!("construction peak transient allocation (one instrumented run each):");
    for spec in workloads() {
        for method in METHODS {
            let baseline = at_obs::alloc::reset_peak();
            let (space, report) = build_search_space(&spec, method).expect("construction");
            let peak = at_obs::alloc::peak_since(baseline);
            let arena_bytes = std::mem::size_of_val(space.arena());
            println!(
                "  {:<14} {:<20} peak {:>12} B   arena {:>10} B   {} configs in {:.3?}",
                spec.name,
                method.label(),
                peak,
                arena_bytes,
                report.num_valid,
                report.duration,
            );
        }
    }
}

fn bench_construction(c: &mut Criterion) {
    report_peak_allocation();

    let mut group = c.benchmark_group("construction/methods");
    group.sample_size(10);
    for spec in workloads() {
        for method in METHODS {
            if method == Method::BlockingClause {
                continue; // benched separately: one run costs seconds
            }
            group.bench_with_input(
                BenchmarkId::new(method.label(), &spec.name),
                &spec,
                |b, spec| b.iter(|| build_search_space(spec, method).unwrap().0.len()),
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("construction/blocking_clause");
    group.sample_size(2);
    for spec in workloads() {
        group.bench_with_input(
            BenchmarkId::new(Method::BlockingClause.label(), &spec.name),
            &spec,
            |b, spec| {
                b.iter(|| {
                    build_search_space(spec, Method::BlockingClause)
                        .unwrap()
                        .0
                        .len()
                })
            },
        );
    }
    group.finish();

    // Cold construction vs. a warm ATSS load of the persisted space: the
    // `at_store` promise is that once a space has been solved, every later
    // process pays the load, not the solve (`benches/store.rs` has the full
    // persistence-path suite and the acceptance ratio printout).
    let mut group = c.benchmark_group("construction/warm_load");
    group.sample_size(20);
    let dir = std::env::temp_dir().join("atss-construction-bench");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    for spec in workloads() {
        let (space, _) = build_search_space(&spec, Method::Optimized).expect("construction");
        let path = dir.join(format!("{}.atss", spec.name));
        at_store::write_space_to_path(&space, &path).expect("persist");
        group.bench_with_input(
            BenchmarkId::new("atss-load", &spec.name),
            &path,
            |b, path| b.iter(|| at_store::read_space_from_path(path).unwrap().0.len()),
        );
    }
    group.finish();

    // Analyzer-driven domain pre-pruning: the at_check contract is a
    // *smaller solve for the identical space*. Assert the identity here —
    // byte-for-byte arena equality — then time both variants on specs
    // where the analyzer finds prunable values (expdist: 1, prl-8x8: 8
    // across 2 parameters, and a synthetic spec whose membership
    // restrictions kill 80% of two domains — the brute-force enumerator
    // pays for every dead tuple, so pruning shrinks its product ~25×).
    let mut group = c.benchmark_group("construction/pruning");
    group.sample_size(10);
    for (spec, method) in [
        (expdist().spec, Method::Optimized),
        (atf_prl(8).spec, Method::Optimized),
        (prunable_synthetic(), Method::BruteForce),
    ] {
        let prune = BuildOptions {
            prune: true,
            ..Default::default()
        };
        let (plain, plain_report) = build_search_space(&spec, method).expect("construction");
        let (pruned, pruned_report) =
            build_search_space_with(&spec, method, prune).expect("pruned construction");
        assert_eq!(
            plain.arena(),
            pruned.arena(),
            "{}: pre-pruning must not change the constructed space",
            spec.name
        );
        println!(
            "  {:<20} {:<12} pruning: {} configs, solve {:.3?} plain vs {:.3?} pruned",
            spec.name,
            method.label(),
            plain_report.num_valid,
            plain_report.duration,
            pruned_report.duration,
        );
        group.bench_with_input(
            BenchmarkId::new(format!("plain-{}", method.label()), &spec.name),
            &spec,
            |b, spec| b.iter(|| build_search_space(spec, method).unwrap().0.len()),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("pruned-{}", method.label()), &spec.name),
            &spec,
            |b, spec| {
                b.iter(|| {
                    build_search_space_with(spec, method, prune)
                        .unwrap()
                        .0
                        .len()
                })
            },
        );
    }
    group.finish();
}

/// A spec built to have a large prunable fraction: the membership
/// restrictions support only 4 of 20 values of `a` and `b`, so analyzer
/// pre-pruning cuts the Cartesian product from 160 000 to 6 400 tuples
/// before the brute-force enumerator ever sees it.
fn prunable_synthetic() -> SearchSpaceSpec {
    SearchSpaceSpec::new("synthetic-prunable")
        .with_param(TunableParameter::ints("a", 1..=20))
        .with_param(TunableParameter::ints("b", 1..=20))
        .with_param(TunableParameter::ints("c", 1..=20))
        .with_param(TunableParameter::ints("d", 1..=20))
        .with_expr("a in [2, 4, 8, 16]")
        .with_expr("b in [2, 4, 8, 16]")
        .with_expr("a * b <= c * d")
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
