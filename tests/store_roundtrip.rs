//! Property-based and corruption tests of the `at_store` persistence layer:
//! for arbitrary generated spaces, save → load must round-trip
//! code-for-code identical (arena, dictionaries, name, `index_of`
//! behavior); damaged files (truncation, flipped bytes, wrong version) must
//! produce a clean `StoreError`; and the content-addressed cache must fall
//! back to a rebuild instead of ever serving a damaged entry.

use proptest::prelude::*;

use autotuning_searchspaces::csp::Value;
use autotuning_searchspaces::searchspace::{
    build_search_space, Method, SearchSpace, SearchSpaceSpec, TunableParameter,
};
use autotuning_searchspaces::store::{
    read_space_from_bytes, read_space_from_path, write_space, write_space_to_path, CacheStatus,
    SpaceStore, StoreError, FORMAT_VERSION,
};

/// A randomly generated space description: per-parameter domains (integers,
/// floats or strings) and a pseudo-random subset of the Cartesian product
/// kept as "valid".
#[derive(Debug, Clone)]
struct RandomSpace {
    domains: Vec<Vec<Value>>,
    keep_seed: u64,
    keep_percent: u64,
}

fn domain() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec((-50i64..50).prop_map(Value::Int), 1..6),
        proptest::collection::vec((1i64..40).prop_map(|i| Value::Float(i as f64 / 4.0)), 1..5),
        proptest::collection::vec((0i64..26).prop_map(|i| Value::str(format!("v{i}"))), 1..4),
    ]
}

fn random_space() -> impl Strategy<Value = RandomSpace> {
    (
        proptest::collection::vec(domain(), 1..5),
        0u64..u64::MAX,
        5u64..100,
    )
        .prop_map(|(domains, keep_seed, keep_percent)| RandomSpace {
            domains,
            keep_seed,
            keep_percent,
        })
}

/// Deterministic pseudo-random keep decision (splitmix-style hash).
fn keep(seed: u64, row_index: u64, percent: u64) -> bool {
    let mut z = seed ^ row_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 100 < percent
}

/// Build the parameters and the kept subset of the Cartesian product.
fn materialize(space: &RandomSpace) -> (Vec<TunableParameter>, Vec<Vec<Value>>) {
    let params: Vec<TunableParameter> = space
        .domains
        .iter()
        .enumerate()
        .map(|(i, d)| TunableParameter::new(format!("p{i}"), d.clone()))
        .collect();
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
    for p in &params {
        rows = rows
            .into_iter()
            .flat_map(|row| {
                p.values().iter().map(move |v| {
                    let mut next = row.clone();
                    next.push(v.clone());
                    next
                })
            })
            .collect();
    }
    let rows = rows
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep(space.keep_seed, *i as u64, space.keep_percent))
        .map(|(_, row)| row)
        .collect();
    (params, rows)
}

/// The full identity contract: same name, same dictionaries, same arena,
/// same `index_of`/`contains` behavior for member and non-member rows.
fn assert_spaces_identical(original: &SearchSpace, loaded: &SearchSpace) {
    assert_eq!(original.name(), loaded.name());
    assert_eq!(original.len(), loaded.len());
    assert_eq!(original.num_params(), loaded.num_params());
    assert_eq!(original.arena(), loaded.arena());
    for (a, b) in original.params().iter().zip(loaded.params()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.values(), b.values());
    }
    for view in original.iter() {
        let row = view.to_vec();
        assert_eq!(loaded.index_of(&row), Some(view.id()));
        assert!(loaded.contains(&row));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_load_round_trips_code_for_code(desc in random_space()) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("roundtrip", params, rows).unwrap();
        let mut bytes = Vec::new();
        let summary = write_space(&space, &mut bytes).unwrap();
        prop_assert_eq!(summary.rows as usize, space.len());
        prop_assert_eq!(summary.bytes_written as usize, bytes.len());
        let (loaded, info) = read_space_from_bytes(&bytes).unwrap();
        prop_assert_eq!(info.version, FORMAT_VERSION);
        prop_assert_eq!(
            info.file_bytes as usize,
            bytes.len(),
            "the file is the preamble, 8 bytes per rank and the trailer"
        );
        prop_assert_eq!(info.num_rows, space.len());
        assert_spaces_identical(&space, &loaded);
        // Rows outside the space stay outside after a round trip.
        if let Some(first) = space.params().first() {
            let mut foreign = space.iter().next().map(|v| v.to_vec());
            if let Some(row) = foreign.as_mut() {
                // A value from the dictionary that may form an absent row, or
                // at minimum: identical membership answers on both spaces.
                row[0] = first.values().last().unwrap().clone();
                prop_assert_eq!(space.index_of(row), loaded.index_of(row));
            }
        }
    }

    #[test]
    fn truncation_always_errors_cleanly(desc in random_space(), cut in 0.0f64..1.0) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("truncated", params, rows).unwrap();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let keep_bytes = ((bytes.len() - 1) as f64 * cut) as usize;
        let result = read_space_from_bytes(&bytes[..keep_bytes]);
        prop_assert!(result.is_err(), "truncation to {keep_bytes}/{} bytes slipped through", bytes.len());
    }

    #[test]
    fn byte_flips_always_error_cleanly(desc in random_space(), pos in 0.0f64..1.0, mask in 1u8..255) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("flipped", params, rows).unwrap();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let at = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[at] ^= mask;
        let result = read_space_from_bytes(&bytes);
        prop_assert!(result.is_err(), "flip of byte {at} (mask {mask:#04x}) slipped through");
    }
}

fn small_spec(name: &str) -> SearchSpaceSpec {
    SearchSpaceSpec::new(name)
        .with_param(TunableParameter::pow2("block_size_x", 6))
        .with_param(TunableParameter::pow2("block_size_y", 5))
        .with_param(TunableParameter::ints("work_per_thread", [1, 2, 4]))
        .with_expr("32 <= block_size_x * block_size_y <= 256")
        .with_expr("work_per_thread <= block_size_y")
}

fn fresh_store(tag: &str) -> SpaceStore {
    let dir = std::env::temp_dir().join(format!("at-store-roundtrip-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    SpaceStore::new(&dir).unwrap()
}

#[test]
fn constructed_and_loaded_spaces_are_identical_for_every_method() {
    let spec = small_spec("methods");
    let dir = std::env::temp_dir().join("at-store-roundtrip-methods-files");
    std::fs::create_dir_all(&dir).unwrap();
    for method in Method::all() {
        let (space, _) = build_search_space(&spec, method).unwrap();
        let path = dir.join(format!("{}.atss", method.label()));
        write_space_to_path(&space, &path).unwrap();
        let (loaded, _) = read_space_from_path(&path).unwrap();
        assert_spaces_identical(&space, &loaded);
    }
}

#[test]
fn cache_miss_entries_are_write_space_bytes_on_every_sink_path() {
    // A miss builds the space, then persists it with `write_space`: the
    // entry holds exactly those bytes and loads back identical. Optimized
    // and parallel-optimized share a cache key, so each method gets its
    // own store.
    let spec = small_spec("persisted");
    for method in [
        Method::Optimized,
        Method::ParallelOptimized,
        Method::ChainOfTrees,
    ] {
        let store = fresh_store(&format!("miss-bytes-{}", method.label()));
        let (built, outcome) = store.get_or_build(&spec, method).unwrap();
        assert_eq!(outcome.status, CacheStatus::Miss, "{method:?}");
        let report = outcome.report.expect("a miss reports its build");
        assert_eq!(report.stats.solutions as usize, built.len(), "{method:?}");
        let path = outcome.path.unwrap();
        let entry = std::fs::read(&path).unwrap();
        let mut expected = Vec::new();
        write_space(&built, &mut expected).unwrap();
        assert!(
            entry == expected,
            "{method:?}: entry differs from write_space"
        );
        assert_eq!(outcome.file_bytes, entry.len() as u64, "{method:?}");
        let (loaded, _) = read_space_from_path(&path).unwrap();
        assert_spaces_identical(&built, &loaded);
    }
}

#[test]
fn a_failed_build_leaves_no_entry_and_no_temp_file() {
    let store = fresh_store("failed-build");
    let spec = small_spec("broken").with_expr("no_such_parameter <= 4");
    for method in [Method::Optimized, Method::ChainOfTrees] {
        let err = store.get_or_build(&spec, method).unwrap_err();
        assert!(matches!(err, StoreError::Build(_)), "{method:?}: {err}");
    }
    let left: Vec<_> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "the cache directory holds {left:?}");
}

#[test]
fn wrong_version_is_a_clean_store_error() {
    let spec = small_spec("version");
    let (space, _) = build_search_space(&spec, Method::Optimized).unwrap();
    let mut bytes = Vec::new();
    write_space(&space, &mut bytes).unwrap();
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match read_space_from_bytes(&bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn cache_falls_back_to_rebuild_on_any_damage() {
    let store = fresh_store("fallback");
    let spec = small_spec("fallback");
    let (original, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert_eq!(outcome.status, CacheStatus::Miss);
    let path = outcome.path.unwrap();

    // Wrong version, flipped byte, truncation: each must rebuild, repair
    // the entry, and serve an identical space.
    let pristine = std::fs::read(&path).unwrap();
    let mut wrong_version = pristine.clone();
    wrong_version[4..8].copy_from_slice(&(FORMAT_VERSION + 7).to_le_bytes());
    let mut flipped = pristine.clone();
    let mid = pristine.len() / 2;
    flipped[mid] ^= 0x10;
    let damaged_variants = [
        wrong_version,
        flipped,
        pristine[..pristine.len() / 3].to_vec(),
        b"ATSS".to_vec(),
        Vec::new(),
    ];
    for damage in damaged_variants {
        std::fs::write(&path, &damage).unwrap();
        let (rebuilt, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(outcome.status, CacheStatus::Miss, "damage must not hit");
        assert_spaces_identical(&original, &rebuilt);
        let (served, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert!(outcome.status.is_hit(), "rebuild must repair the entry");
        assert_spaces_identical(&original, &served);
    }
}

#[test]
fn warm_hit_equals_cold_build_on_real_workloads() {
    use autotuning_searchspaces::workloads::dedispersion;

    let store = fresh_store("dedispersion");
    let spec = dedispersion().spec;
    let (cold, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert_eq!(outcome.status, CacheStatus::Miss);
    let (warm, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
    assert!(outcome.status.is_hit());
    assert!(outcome.report.is_none(), "a hit performs no solving");
    assert_spaces_identical(&cold, &warm);
}
