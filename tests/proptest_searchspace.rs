//! Property-based tests of the index-encoded `SearchSpace` core: for
//! arbitrary small specifications, encode/decode round-trips, `iter_decoded`,
//! `ConfigView` and `index_of`/`index_of_codes` must all agree with the
//! plain row semantics of the old `Vec<Vec<Value>>` representation,
//! construction must reject rows containing out-of-domain values,
//! Hamming neighbor queries (membership-table probes) must return exactly
//! what a scan of the whole space finds, and a random neighbor must be a
//! member of the ring, `None` exactly when the ring is empty.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use autotuning_searchspaces::csp::Value;
use autotuning_searchspaces::searchspace::{
    build_search_space, neighbors, random_neighbor, ConfigId, Method, NeighborMethod, SearchSpace,
    SpaceError, TunableParameter,
};
use autotuning_searchspaces::workloads::brute_forceable_real_world;

/// A randomly generated space description: per-parameter integer domains and
/// a pseudo-random subset of the Cartesian product to keep as "valid".
#[derive(Debug, Clone)]
struct RandomSpace {
    domains: Vec<Vec<i64>>,
    keep_seed: u64,
    keep_percent: u64,
}

fn random_space() -> impl Strategy<Value = RandomSpace> {
    let domain = proptest::collection::vec(1i64..50, 1..6);
    let domains = proptest::collection::vec(domain, 1..5);
    (domains, 0u64..u64::MAX, 10u64..100).prop_map(|(domains, keep_seed, keep_percent)| {
        RandomSpace {
            domains,
            keep_seed,
            keep_percent,
        }
    })
}

/// Deterministic pseudo-random keep decision (splitmix-style hash).
fn keep(seed: u64, row_index: u64, percent: u64) -> bool {
    let mut z = seed ^ row_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 100 < percent
}

/// Build the parameters (deduplicated domains, like `TunableParameter::new`)
/// and the kept subset of the Cartesian product in row-major order.
fn materialize(space: &RandomSpace) -> (Vec<TunableParameter>, Vec<Vec<Value>>) {
    let params: Vec<TunableParameter> = space
        .domains
        .iter()
        .enumerate()
        .map(|(i, d)| TunableParameter::ints(format!("p{i}"), d.clone()))
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

/// The reference definition of Hamming neighbors: every configuration whose
/// code row differs from `id`'s in exactly one position, in id order.
fn hamming_scan(space: &SearchSpace, id: ConfigId) -> Vec<ConfigId> {
    let (mut row, mut other) = (Vec::new(), Vec::new());
    assert!(space.codes_into(id, &mut row));
    space
        .ids()
        .filter(|&j| {
            space.codes_into(j, &mut other);
            row.iter().zip(&other).filter(|(a, b)| a != b).count() == 1
        })
        .collect()
}

#[test]
fn hamming_probe_matches_the_scan_on_real_workloads() {
    for workload in brute_forceable_real_world() {
        let (space, _) = build_search_space(&workload.spec, Method::Optimized).unwrap();
        let step = (space.len() / 8).max(1);
        for id in space.ids().step_by(step) {
            assert_eq!(
                neighbors(&space, id, NeighborMethod::Hamming),
                hamming_scan(&space, id),
                "{} {id}",
                workload.spec.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_and_lookup_agree_with_row_semantics(desc in random_space()) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("prop", params.clone(), rows.clone()).unwrap();
        prop_assert_eq!(space.len(), rows.len());

        // iter_decoded reproduces the input rows in order.
        let decoded: Vec<Vec<Value>> = space.iter_decoded().collect();
        prop_assert_eq!(&decoded, &rows);

        for (i, row) in rows.iter().enumerate() {
            let id = ConfigId::from_index(i);
            let view = space.view(id).unwrap();
            // ConfigView agrees with the row cell by cell.
            prop_assert_eq!(view.len(), row.len());
            for (d, expected) in row.iter().enumerate() {
                prop_assert_eq!(view.value(d), Some(expected));
            }
            prop_assert_eq!(view.to_vec(), row.clone());
            // The codes round-trip through encode and the rank lookup.
            let codes = space.encode(row).unwrap();
            let mut decoded_codes = Vec::new();
            view.codes_into(&mut decoded_codes);
            prop_assert_eq!(&codes, &decoded_codes);
            prop_assert_eq!(space.rank_of(id), Some(view.rank()));
            prop_assert_eq!(space.index_of(row), Some(id));
            prop_assert_eq!(space.index_of_codes(&codes), Some(id));
            // Codes point at the right dictionary entries.
            for (d, &code) in codes.iter().enumerate() {
                prop_assert_eq!(&params[d].values()[code as usize], &row[d]);
            }
        }
    }

    #[test]
    fn rows_outside_the_space_are_rejected_or_absent(desc in random_space()) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("prop", params.clone(), rows.clone()).unwrap();

        // A value outside every domain is never contained and cannot encode.
        let foreign: Vec<Value> = params.iter().map(|_| Value::Int(999)).collect();
        prop_assert!(!space.contains(&foreign));
        prop_assert_eq!(space.encode(&foreign), None);

        // Construction with a foreign value errors instead of corrupting.
        let mut bad_rows = rows;
        bad_rows.push(foreign);
        let err = SearchSpace::from_configs("bad", params, bad_rows).unwrap_err();
        prop_assert!(matches!(err, SpaceError::UnknownValue { .. }));
    }

    #[test]
    fn hamming_probe_matches_the_scan(desc in random_space()) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("prop", params, rows).unwrap();
        for id in space.ids() {
            prop_assert_eq!(
                neighbors(&space, id, NeighborMethod::Hamming),
                hamming_scan(&space, id)
            );
        }
    }

    #[test]
    fn random_neighbors_are_ring_members_and_none_iff_the_ring_is_empty(
        desc in random_space(),
        seed in 0u64..u64::MAX,
    ) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("prop", params, rows).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for method in [
            NeighborMethod::Hamming,
            NeighborMethod::Adjacent,
            NeighborMethod::StrictlyAdjacent,
        ] {
            for id in space.ids() {
                let ring = neighbors(&space, id, method);
                for _ in 0..4 {
                    match random_neighbor(&space, id, method, &mut rng) {
                        Some(pick) => prop_assert!(ring.contains(&pick), "{method:?} {id}: {pick}"),
                        None => prop_assert!(ring.is_empty(), "{method:?} {id}: None"),
                    }
                }
            }
        }
    }

    #[test]
    fn filter_preserves_ids_densely(desc in random_space()) {
        let (params, rows) = materialize(&desc);
        let space = SearchSpace::from_configs("prop", params, rows).unwrap();
        // Keep every other configuration.
        let filtered = space.filter(|view| view.id().index() % 2 == 0);
        prop_assert_eq!(filtered.len(), space.len().div_ceil(2));
        for (new_index, view) in filtered.iter().enumerate() {
            let original = space.view(ConfigId::from_index(new_index * 2)).unwrap();
            prop_assert_eq!(view.to_vec(), original.to_vec());
            prop_assert_eq!(filtered.index_of(&view.to_vec()), Some(view.id()));
        }
    }
}
