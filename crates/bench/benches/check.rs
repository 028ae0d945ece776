//! Criterion benchmarks of the static analyzer: `check_spec` on four
//! built-in specs.
//!
//! The analyzer evaluates each restriction small enough to enumerate
//! once into a truth table and reads the verdicts, the AT0008 pairs and
//! the pre-pruning evidence from the tables. The lines printed up front
//! are the work behind each timing, as the `check/analyze` span records
//! it: reference-interpreter calls (`assignments`) and the overlapping
//! pairs decided from tables (`pairs`).

use criterion::{criterion_group, criterion_main, Criterion};

use at_check::check_spec;
use at_searchspace::SearchSpaceSpec;
use at_workloads::{atf_prl, gemm, hotspot, microhh};

fn specs() -> Vec<(&'static str, SearchSpaceSpec)> {
    vec![
        ("microhh", microhh().spec),
        ("prl-8x8", atf_prl(8).spec),
        ("gemm", gemm().spec),
        ("hotspot", hotspot().spec),
    ]
}

/// Print each spec's analyzer work, read from its `check/analyze` span.
fn report_analyzer_work(specs: &[(&'static str, SearchSpaceSpec)]) {
    println!("check_spec work (from the check/analyze span):");
    for (name, spec) in specs {
        at_obs::enable();
        check_spec(spec);
        at_obs::disable();
        let span = at_obs::drain()
            .into_iter()
            .find(|r| r.name == "check")
            .expect("check_spec records its span");
        println!(
            "  {name:<8} assignments {:>5}   pairs {:>3}",
            span.arg("assignments").unwrap_or(0),
            span.arg("pairs").unwrap_or(0)
        );
    }
    println!();
}

fn bench_check(c: &mut Criterion) {
    let specs = specs();
    report_analyzer_work(&specs);

    let mut group = c.benchmark_group("check_spec");
    group.sample_size(50);
    for (name, spec) in &specs {
        group.bench_function(name, |b| b.iter(|| check_spec(spec).diagnostics.len()));
    }
    group.finish();
}

criterion_group!(benches, bench_check);
criterion_main!(benches);
