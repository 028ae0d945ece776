//! Criterion benchmarks of the resolved-search-space operations that
//! optimization algorithms rely on (Section 4.4): rank lookups (the
//! value-row path, the encoded-row path and the bare binary search),
//! neighbor queries, sampling and the single-pass rank statistics.
//!
//! A Hamming neighbor query is `Σ_p (|D_p| − 1)` rank lookups, so
//! `hamming_neighbors` reads as a multiple of `index_of_rank` in the same
//! group: 39 lookups on dedispersion, 35 on microhh. `random_neighbor`
//! stops at the first valid candidate of a random probe order, an expected
//! `(K + 1) / (V + 1)` lookups for `K` candidates and `V` neighbors; it
//! cycles through a fixed set of query ids so the figure is an average over
//! rows, not one row's luck.

use criterion::{criterion_group, criterion_main, Bencher, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use at_searchspace::{
    build_search_space, latin_hypercube_sample, neighbors, random_neighbor, sample_indices,
    ConfigId, Method, NeighborMethod, SearchSpace,
};
use at_workloads::{dedispersion, microhh};

/// 64 query ids spread evenly over the space.
fn query_ids(space: &SearchSpace) -> Vec<ConfigId> {
    let step = (space.len() / 64).max(1);
    space.ids().step_by(step).take(64).collect()
}

/// Time one `random_neighbor` Hamming draw, cycling through `ids`.
fn bench_random_neighbor(b: &mut Bencher, space: &SearchSpace) {
    let ids = query_ids(space);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut next = 0;
    b.iter(|| {
        next = (next + 1) % ids.len();
        random_neighbor(space, ids[next], NeighborMethod::Hamming, &mut rng)
    })
}

fn bench_searchspace_ops(c: &mut Criterion) {
    let (space, _) = build_search_space(&dedispersion().spec, Method::Optimized).unwrap();
    let mid = ConfigId::from_index(space.len() / 2);
    let some_config = space.view(mid).unwrap().to_vec();
    let mut some_codes = Vec::new();
    space.codes_into(mid, &mut some_codes);
    let some_rank = space.rank_of(mid).unwrap();

    let mut group = c.benchmark_group("searchspace_ops/dedispersion");
    group.bench_function("contains", |b| b.iter(|| space.contains(&some_config)));
    group.bench_function("index_of", |b| b.iter(|| space.index_of(&some_config)));
    group.bench_function("index_of_codes", |b| {
        b.iter(|| space.index_of_codes(&some_codes))
    });
    group.bench_function("index_of_rank", |b| {
        b.iter(|| space.index_of_rank(some_rank))
    });
    group.bench_function("decode_row", |b| {
        b.iter(|| space.codes_into(mid, &mut some_codes))
    });
    group.bench_function("hamming_neighbors", |b| {
        b.iter(|| neighbors(&space, mid, NeighborMethod::Hamming).len())
    });
    group.bench_function("random_neighbor", |b| bench_random_neighbor(b, &space));
    group.bench_function("adjacent_neighbors_scan", |b| {
        b.iter(|| neighbors(&space, mid, NeighborMethod::Adjacent).len())
    });
    group.bench_function("random_sample_100", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            sample_indices(&space, 100, &mut rng).len()
        })
    });
    group.bench_function("latin_hypercube_sample_32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            latin_hypercube_sample(&space, 32, &mut rng).len()
        })
    });
    group.bench_function("true_bounds", |b| b.iter(|| space.true_bounds().len()));
    group.bench_function("occurring_values", |b| {
        b.iter(|| space.occurring_values().len())
    });
    group.finish();

    let (space, _) = build_search_space(&microhh().spec, Method::Optimized).unwrap();
    let mid = ConfigId::from_index(space.len() / 2);
    let mut some_codes = Vec::new();
    space.codes_into(mid, &mut some_codes);
    let some_rank = space.rank_of(mid).unwrap();
    let mut group = c.benchmark_group("searchspace_ops/microhh");
    group.bench_function("index_of_codes", |b| {
        b.iter(|| space.index_of_codes(&some_codes))
    });
    group.bench_function("index_of_rank", |b| {
        b.iter(|| space.index_of_rank(some_rank))
    });
    group.bench_function("hamming_neighbors", |b| {
        b.iter(|| neighbors(&space, mid, NeighborMethod::Hamming).len())
    });
    group.bench_function("random_neighbor", |b| bench_random_neighbor(b, &space));
    group.finish();
}

criterion_group!(benches, bench_searchspace_ops);
criterion_main!(benches);
