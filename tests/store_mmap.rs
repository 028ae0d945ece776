//! Zero-copy load equivalence and rank-section corruption coverage.
//!
//! The v3 `ATSS` contract under test:
//!
//! * an mmap-loaded space is rank-for-rank and `index_of`-identical to an
//!   owned (copying) load and to the cold build — for arbitrary generated
//!   spaces and the real workloads;
//! * damage to the rank section never passes the verified copy, and the
//!   trusted mmap, which does not look, serves it without panicking,
//!   decoding every code in range and never misattributing a lookup;
//! * v1 and v2 files (the checked-in fixtures) are rejected by every
//!   reader with `UnsupportedVersion`: this build reads only the version
//!   it writes.

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

    /// Any damage to the rank section must fail the verified copy with a
    /// clean content error, which the cache and the daemon turn into a
    /// rebuild before any client attaches. The trusted mmap does not look:
    /// it may serve the damaged ranks, but never panics, decodes every
    /// code inside its dictionary and never misattributes a lookup.
    #[test]
    fn damaged_rank_sections_never_pass_the_verified_copy(
        desc in random_space(),
        pos in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("dmg", params, rows).unwrap();
        if space.is_empty() {
            return; // no rank byte to damage
        }
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        // The ranks end at the 16-byte trailer, one u64 per row.
        let trailer_at = bytes.len() - 16;
        let ranks_at = trailer_at - space.len() * 8;
        let at = ranks_at + ((trailer_at - 1 - ranks_at) as f64 * pos) as usize;
        bytes[at] ^= mask;

        let path = temp_dir("prop-dmg").join("damaged.atss");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_space_from_path(&path, LoadOptions::default()).unwrap_err();
        prop_assert!(err.is_content_error(), "unexpected error kind: {err}");
        prop_assert!(read_space_from_path(&path).is_err());

        let trusted = load_space_from_path(&path, LoadOptions::mmap_trusted()).unwrap();
        let served = &trusted.space;
        prop_assert_eq!(served.len(), space.len());
        let (mut codes, mut found_codes) = (Vec::new(), Vec::new());
        for view in served.iter() {
            view.codes_into(&mut codes);
            for (&code, param) in codes.iter().zip(served.params()) {
                prop_assert!((code as usize) < param.len());
            }
            if let Some(found) = served.index_of_codes(&codes) {
                served.codes_into(found, &mut found_codes);
                prop_assert_eq!(&found_codes, &codes);
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

/// Every reader rejects the checked-in fixture written by format
/// `version` with `UnsupportedVersion`: this build reads only the version
/// it writes.
fn assert_rejected_by_every_reader(fixture: &str, version: u32) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(fixture);
    let is_rejection = |what: &str, e: StoreError| match e {
        StoreError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, version, "{what}");
            assert_eq!(supported, FORMAT_VERSION, "{what}");
        }
        other => panic!("{what}: {other}"),
    };
    is_rejection("peek_info", peek_info(&path).unwrap_err());
    is_rejection(
        "read_space_from_path",
        read_space_from_path(&path).unwrap_err(),
    );
    for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
        is_rejection(
            &format!("{options:?}"),
            load_space_from_path(&path, options).unwrap_err(),
        );
    }
}

#[test]
fn v1_fixture_is_rejected_by_every_reader() {
    // Written by the version 1 writer (code arena, no index section).
    assert_rejected_by_every_reader("tests/fixtures/v1-small.atss", 1);
}

#[test]
fn v2_fixture_is_rejected_by_every_reader() {
    // Written by the version 2 writer (code arena plus `IDX` section), in
    // whatever row order its builder emitted.
    assert_rejected_by_every_reader("tests/fixtures/v2-small.atss", 2);
}
