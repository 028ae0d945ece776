//! Persistence-path benchmarks: cold construction vs. warm `ATSS` loads.
//!
//! The `at_store` promise is "solve once, serve forever", and the serving
//! cost itself comes in two policies. A one-shot comparison (min-of-5,
//! printed up front, with an identity check) reports, on `dedispersion`
//! and `microhh`, how much faster the verified copy is than construction
//! and how much faster again the trusted zero-copy mmap is. Criterion
//! groups then track the individual costs:
//!
//! * `store/cold_construct` — optimized-solver construction from scratch,
//! * `store/warm_load_verified` — the verified copy: every checksum and
//!   one pass that the ranks strictly ascend below the Cartesian size (the
//!   default `SpaceStore` hit path),
//! * `store/warm_load_mmap` — the trusted zero-copy mmap: O(header) work,
//!   no rank byte read, proving the paper's "serve from the
//!   representation" argument end-to-end,
//! * `store/write` — persisting an already-resolved space.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use at_searchspace::{build_search_space, Method, SearchSpace};
use at_store::{load_space_from_path, read_space_from_path, write_space_to_path, LoadOptions};
use at_workloads::{dedispersion, microhh};

fn bench_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("atss-store-bench");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn min_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..runs {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, value));
        }
    }
    best.expect("at least one run")
}

fn assert_identical(cold: &SearchSpace, warm: &SearchSpace) {
    assert_eq!(cold.arena(), warm.arena(), "arenas differ");
    assert_eq!(cold.name(), warm.name());
    for view in cold.iter().take(1000) {
        assert_eq!(warm.index_of(&view.to_vec()), Some(view.id()));
    }
}

/// The acceptance comparison: construct cold, load warm (verified copy,
/// then trusted zero-copy mmap), report both ratios.
fn report_cold_vs_warm() {
    println!("cold construction vs. verified-copy warm load vs. trusted mmap load (min of 5):");
    for workload in [dedispersion(), microhh()] {
        let spec = workload.spec;
        let path = bench_dir().join(format!("{}.atss", spec.name));
        let (cold_time, (cold, _)) = min_of(5, || {
            build_search_space(&spec, Method::Optimized).expect("construction")
        });
        write_space_to_path(&cold, &path).expect("persist");
        let (copy_time, loaded) = min_of(5, || {
            load_space_from_path(&path, LoadOptions::default()).expect("copying load")
        });
        assert_identical(&cold, &loaded.space);
        let (mmap_time, loaded) = min_of(5, || {
            load_space_from_path(&path, LoadOptions::mmap_trusted()).expect("mmap load")
        });
        assert_identical(&cold, &loaded.space);
        let zero_copy = loaded.report.is_zero_copy();
        let cold_vs_copy = cold_time.as_secs_f64() / copy_time.as_secs_f64().max(1e-9);
        let copy_vs_mmap = copy_time.as_secs_f64() / mmap_time.as_secs_f64().max(1e-9);
        println!(
            "  {:<14} cold {:>10.3?}   copy-warm {:>10.3?} ({:>6.1}x)   mmap-warm {:>10.3?} \
             ({:>6.1}x vs copy{})   ({} configs, {} B on disk)",
            spec.name,
            cold_time,
            copy_time,
            cold_vs_copy,
            mmap_time,
            copy_vs_mmap,
            if zero_copy {
                ", zero-copy"
            } else {
                ", FELL BACK TO COPY"
            },
            loaded.space.len(),
            loaded.info.file_bytes,
        );
    }
}

fn bench_store(c: &mut Criterion) {
    report_cold_vs_warm();

    let workloads: Vec<(String, std::path::PathBuf, SearchSpace)> = [dedispersion(), microhh()]
        .into_iter()
        .map(|w| {
            let spec = w.spec;
            let (space, _) = build_search_space(&spec, Method::Optimized).expect("construction");
            let path = bench_dir().join(format!("{}.atss", spec.name));
            write_space_to_path(&space, &path).expect("persist");
            (spec.name.clone(), path, space)
        })
        .collect();

    let specs = [dedispersion().spec, microhh().spec];
    let mut group = c.benchmark_group("store/cold_construct");
    group.sample_size(10);
    for spec in &specs {
        group.bench_with_input(
            BenchmarkId::new("optimized", &spec.name),
            spec,
            |b, spec| b.iter(|| build_search_space(spec, Method::Optimized).unwrap().0.len()),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("store/warm_load_verified");
    group.sample_size(20);
    for (name, path, _) in &workloads {
        group.bench_with_input(BenchmarkId::new("atss", name), path, |b, path| {
            b.iter(|| {
                load_space_from_path(path, LoadOptions::default())
                    .unwrap()
                    .space
                    .len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("store/warm_load_mmap");
    group.sample_size(50);
    for (name, path, _) in &workloads {
        group.bench_with_input(BenchmarkId::new("atss", name), path, |b, path| {
            b.iter(|| {
                load_space_from_path(path, LoadOptions::mmap_trusted())
                    .unwrap()
                    .space
                    .len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("store/write");
    group.sample_size(20);
    for (name, path, space) in &workloads {
        group.bench_with_input(BenchmarkId::new("atss", name), space, |b, space| {
            b.iter(|| write_space_to_path(space, path).unwrap().bytes_written)
        });
    }
    group.finish();

    // Guard against silent API drift: the strict reader still works.
    let (name, path, space) = &workloads[0];
    let (loaded, info) = read_space_from_path(path).unwrap();
    assert_eq!(&info.name, name);
    assert_identical(space, &loaded);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
