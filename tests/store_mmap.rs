//! Zero-copy load equivalence and `IDX`-section corruption coverage.
//!
//! The v2 `ATSS` contract under test:
//!
//! * an mmap-loaded space is code-for-code and `index_of`-identical to an
//!   owned (copying) load and to the cold build — for arbitrary generated
//!   spaces and the real workloads;
//! * damage to the persisted membership table (byte flips, truncation) is
//!   never served: the load either fails cleanly or falls back to a
//!   *reported* index rebuild, and every lookup stays correct;
//! * a v1 file (the checked-in fixture) is rejected by every reader with
//!   `UnsupportedVersion`: this build reads only the version it writes.

use proptest::prelude::*;

use autotuning_searchspaces::csp::Value;
use autotuning_searchspaces::searchspace::{
    build_search_space, Method, SearchSpace, TunableParameter,
};
use autotuning_searchspaces::store::{
    load_space_from_path, peek_info, read_space_from_path, write_space, write_space_to_path,
    LoadOptions, StoreError, StoreReader, FORMAT_VERSION,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("at-store-mmap-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full identity contract between two loads of the same space.
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

/// Both load policies must serve the same space.
fn assert_all_load_paths_identical(reference: &SearchSpace, path: &std::path::Path) {
    let reader = StoreReader::open(path).unwrap();
    for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
        let loaded = reader.load(options).unwrap();
        assert!(
            loaded.report.index_fallback().is_none(),
            "pristine file must not fall back: {:?}",
            loaded.report
        );
        if options == LoadOptions::mmap_trusted() && cfg!(target_os = "linux") {
            assert!(loaded.report.is_zero_copy());
            assert!(loaded.space.is_zero_copy());
        }
        assert_spaces_identical(reference, &loaded.space);
    }
}

/// A randomly generated space: per-parameter domains and a pseudo-random
/// subset of the Cartesian product kept as "valid".
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

fn keep(seed: u64, row_index: u64, percent: u64) -> bool {
    let mut z = seed ^ row_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 100 < percent
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mmap_and_copy_loads_are_identical_for_arbitrary_spaces(desc in random_space()) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("zc", params, rows).unwrap();
        let path = temp_dir("prop").join("space.atss");
        write_space_to_path(&space, &path).unwrap();
        assert_all_load_paths_identical(&space, &path);
    }

    /// Any damage to the region after the arena (the IDX section) must
    /// yield either a clean error or a correct space with a *reported*
    /// index rebuild — never a wrong lookup.
    #[test]
    fn damaged_index_sections_never_produce_wrong_lookups(
        desc in random_space(),
        pos in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("dmg", params, rows).unwrap();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        // The IDX section spans from arena end to the trailer. Recompute
        // its range from the written layout: everything between the end of
        // the (empty-or-not) arena and the last 16 bytes.
        let trailer_at = bytes.len() - 16;
        let arena_bytes = space.len() * space.num_params() * 4;
        let idx_start = trailer_at - (4 + 8 + 8 + space.index_slots().len() * 4 + 4);
        prop_assert!(idx_start >= arena_bytes, "layout sanity");
        let at = idx_start + ((trailer_at - 1 - idx_start) as f64 * pos) as usize;
        bytes[at] ^= mask;

        let path = temp_dir("prop-dmg").join("damaged.atss");
        std::fs::write(&path, &bytes).unwrap();
        for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
            match load_space_from_path(&path, options) {
                Ok(loaded) => {
                    // Damage to the index itself must have been detected
                    // and reported; either way every lookup is correct.
                    prop_assert!(
                        loaded.report.index_fallback().is_some(),
                        "flip at {at} adopted silently: {:?}",
                        loaded.report
                    );
                    assert_spaces_identical(&space, &loaded.space);
                }
                Err(e) => {
                    // Structural damage (e.g. the section frame): a clean
                    // content error, which the cache turns into a rebuild.
                    prop_assert!(e.is_content_error(), "unexpected error kind: {e}");
                }
            }
        }
    }

    #[test]
    fn truncated_files_never_load(desc in random_space(), cut in 0.0f64..1.0) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("trunc", params, rows).unwrap();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let keep_bytes = ((bytes.len() - 1) as f64 * cut) as usize;
        let path = temp_dir("prop-trunc").join("truncated.atss");
        std::fs::write(&path, &bytes[..keep_bytes]).unwrap();
        for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
            prop_assert!(
                load_space_from_path(&path, options).is_err(),
                "truncation to {keep_bytes}/{} bytes slipped through",
                bytes.len()
            );
        }
    }
}

#[test]
fn real_workloads_load_identically_through_every_path() {
    use autotuning_searchspaces::workloads::{atf_prl, dedispersion};

    for workload in [dedispersion(), atf_prl(2)] {
        let spec = workload.spec;
        let (cold, _) = build_search_space(&spec, Method::Optimized).unwrap();
        let path = temp_dir("real").join(format!("{}.atss", spec.name));
        write_space_to_path(&cold, &path).unwrap();
        assert_all_load_paths_identical(&cold, &path);
    }
}

#[test]
fn v1_fixture_is_rejected_by_every_reader() {
    // `tests/fixtures/v1-small.atss` was written by the version 1 writer
    // and checked in. This build reads only the version it writes.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-small.atss");
    let is_v1_rejection = |what: &str, e: StoreError| match e {
        StoreError::UnsupportedVersion {
            found: 1,
            supported,
        } => {
            assert_eq!(supported, FORMAT_VERSION, "{what}")
        }
        other => panic!("{what}: {other}"),
    };
    is_v1_rejection("peek_info", peek_info(&path).unwrap_err());
    is_v1_rejection(
        "read_space_from_path",
        read_space_from_path(&path).unwrap_err(),
    );
    for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
        is_v1_rejection(
            &format!("{options:?}"),
            load_space_from_path(&path, options).unwrap_err(),
        );
    }
}
