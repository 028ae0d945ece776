//! Valid-neighbor queries over the resolved search space.
//!
//! Optimization strategies such as genetic algorithms, hill climbing and
//! simulated annealing repeatedly ask for the valid neighbors of a
//! configuration. Because the space is fully resolved, validity is a hash
//! lookup (Section 4.4), so neighbors never need re-checking against the
//! constraints.
//!
//! # Hamming queries probe the membership table
//!
//! A Hamming-distance-1 neighbor differs from the queried row at exactly one
//! position `p`. [`neighbors`] finds them all by substituting every other
//! code `c ≠ codes[p]` of every parameter into a copy of the row and looking
//! the candidate up with [`SearchSpace::index_of_codes`]; the hits come back
//! sorted by id. A query costs `Σ_p (|D_p| − 1)` lookups (35 on MicroHH, 71
//! on Hotspot), independent of the size of the space, and there is nothing
//! to build: no index, no memory beyond one row-sized buffer and the result.
//!
//! Every returned id is a valid neighbor, because a lookup only returns an
//! id after comparing its arena row with the candidate. Completeness rests
//! on the membership table, exactly as for [`SearchSpace::index_of`]: a
//! row the table cannot find (say, a trusted but stale persisted table) is
//! missed, never replaced by a wrong one.
//!
//! **Duplicate rows.** [`SearchSpace::from_configs`] accepts repeated rows.
//! A neighbor row that occurs several times is returned once, as its first
//! occurrence — the id `index_of` gives. Solver- and store-built spaces
//! never repeat rows.
//!
//! # One random neighbor: probe in random order, stop at the first hit
//!
//! Strategies that move to *one* random neighbor (a GA mutation, an
//! annealing proposal, a local-search perturbation) call
//! [`random_neighbor`] instead of listing the whole ring. For `Hamming` it
//! visits the `K = Σ_p (|D_p| − 1)` candidate rows in a uniformly random
//! order, drawn one Fisher–Yates step at a time, and returns the first one
//! the membership table finds. The first valid entry of a uniform
//! permutation is uniform over the valid entries, so the answer is
//! distributed exactly like a uniform pick from [`neighbors`]; it costs
//! `(K + 1) / (V + 1)` lookups in expectation for `V` valid neighbors
//! (about 1.7 on MicroHH) instead of `K` (35). A row without neighbors
//! costs the full `K` lookups and gives `None`.
//!
//! The code-distance variants ([`NeighborMethod::Adjacent`],
//! [`NeighborMethod::StrictlyAdjacent`]) scan the whole space, which is also
//! the reference definition the Hamming probe is tested against.
//! [`random_neighbor`] picks from that scan with one `gen_range`.
//!
//! All queries operate on [`ConfigId`]s and the space's encoded code rows —
//! no configuration is decoded to [`at_csp::Value`]s anywhere in this module.

use rand::Rng;

use crate::space::{ConfigId, SearchSpace};

/// The neighbor definitions supported by Kernel Tuner's `SearchSpace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborMethod {
    /// Configurations differing in exactly one parameter (Hamming distance 1).
    Hamming,
    /// Configurations whose value *code* differs by at most one in every
    /// parameter (and by at least one somewhere).
    Adjacent,
    /// Configurations differing in exactly one parameter, whose value code
    /// differs by exactly one.
    StrictlyAdjacent,
}

/// An empty stand-in for the former Hamming neighbor index.
///
/// Hamming queries no longer need an index: [`neighbors`] probes the
/// space's membership table directly. The type survives only because the
/// repository benchmark (`perfbench/src/traced.rs`) still times
/// `NeighborIndex::build`; remove it together with that call.
#[derive(Debug, Default)]
pub struct NeighborIndex;

impl NeighborIndex {
    /// O(1) and allocation-free: there is nothing to build.
    pub fn build(_space: &SearchSpace) -> Self {
        NeighborIndex
    }
}

/// Neighbors of the configuration with the given id according to `method`,
/// sorted by id. An id outside the space has no neighbors.
///
/// `Hamming` queries probe the membership table (see the
/// [module documentation](self)); the code-distance variants scan.
pub fn neighbors(space: &SearchSpace, id: ConfigId, method: NeighborMethod) -> Vec<ConfigId> {
    let Some(codes) = space.codes_of(id) else {
        return Vec::new();
    };
    match method {
        NeighborMethod::Hamming => probe_hamming(space, codes),
        _ => scan_neighbors(space, id, method),
    }
}

/// The Hamming neighbors of the row `codes`: every one-position
/// substitution that the membership table finds, sorted by id.
fn probe_hamming(space: &SearchSpace, codes: &[u32]) -> Vec<ConfigId> {
    let mut candidate = codes.to_vec();
    let mut out = Vec::new();
    for (pos, param) in space.params().iter().enumerate() {
        let own = codes[pos];
        for code in (0..param.len() as u32).filter(|&c| c != own) {
            candidate[pos] = code;
            out.extend(space.index_of_codes(&candidate));
        }
        candidate[pos] = own;
    }
    out.sort_unstable();
    out
}

/// One uniformly random neighbor of the configuration with the given id
/// according to `method`, or `None` when it has none. An id outside the
/// space has no neighbors.
///
/// The result is distributed exactly like
/// `list[rng.gen_range(0..list.len())]` over `list = neighbors(space, id,
/// method)`, and for the code-distance variants it *is* that expression,
/// RNG draws included. `Hamming` queries stop probing at the first valid
/// candidate of a random order (see the [module documentation](self)), so
/// they make as many draws as probes.
pub fn random_neighbor<R: Rng + ?Sized>(
    space: &SearchSpace,
    id: ConfigId,
    method: NeighborMethod,
    rng: &mut R,
) -> Option<ConfigId> {
    let codes = space.codes_of(id)?;
    match method {
        NeighborMethod::Hamming => draw_hamming(space, codes, rng),
        _ => {
            let list = scan_neighbors(space, id, method);
            (!list.is_empty()).then(|| list[rng.gen_range(0..list.len())])
        }
    }
}

/// Probe the one-position substitutions of the row `codes` in a uniformly
/// random order and return the first one the membership table finds.
///
/// Candidate `k` of the `Σ_p (|D_p| − 1)` is the `k`-th substitution in
/// parameter order, skipping each parameter's own code. The order is a
/// Fisher–Yates shuffle of the candidate numbers that stops at the first
/// hit.
fn draw_hamming<R: Rng + ?Sized>(
    space: &SearchSpace,
    codes: &[u32],
    rng: &mut R,
) -> Option<ConfigId> {
    let params = space.params();
    let others = |pos: usize| params[pos].len().saturating_sub(1);
    let total: usize = (0..params.len()).map(others).sum();
    let mut order: Vec<usize> = (0..total).collect();
    let mut candidate = codes.to_vec();
    for i in 0..total {
        let j = rng.gen_range(i..total);
        order.swap(i, j);
        let (mut pos, mut offset) = (0, order[i]);
        while offset >= others(pos) {
            offset -= others(pos);
            pos += 1;
        }
        let (own, code) = (codes[pos], offset as u32);
        candidate[pos] = code + u32::from(code >= own);
        let hit = space.index_of_codes(&candidate);
        if hit.is_some() {
            return hit;
        }
        candidate[pos] = own;
    }
    None
}

fn scan_neighbors(space: &SearchSpace, id: ConfigId, method: NeighborMethod) -> Vec<ConfigId> {
    let reference = space.codes_of(id).expect("valid id");
    let mut out = Vec::new();
    for candidate in space.ids() {
        if candidate == id {
            continue;
        }
        let codes = space.codes_of(candidate).expect("valid id");
        if is_neighbor(reference, codes, method) {
            out.push(candidate);
        }
    }
    out
}

fn is_neighbor(a: &[u32], b: &[u32], method: NeighborMethod) -> bool {
    match method {
        NeighborMethod::Hamming => {
            let differing = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
            differing == 1
        }
        NeighborMethod::Adjacent => {
            let mut any_diff = false;
            for (&x, &y) in a.iter().zip(b.iter()) {
                let d = x.abs_diff(y);
                if d > 1 {
                    return false;
                }
                if d == 1 {
                    any_diff = true;
                }
            }
            any_diff
        }
        NeighborMethod::StrictlyAdjacent => {
            let mut differing = 0;
            for (&x, &y) in a.iter().zip(b.iter()) {
                if x.abs_diff(y) > 1 {
                    return false;
                }
                if x != y {
                    differing += 1;
                }
            }
            differing == 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::TunableParameter;
    use at_csp::value::int_values;
    use at_csp::Value;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Full 3x3 grid over x,y in {1,2,4} minus the (4,4) corner.
    fn space() -> SearchSpace {
        let params = vec![
            TunableParameter::ints("x", [1, 2, 4]),
            TunableParameter::ints("y", [1, 2, 4]),
        ];
        let mut configs = Vec::new();
        for &x in &[1i64, 2, 4] {
            for &y in &[1i64, 2, 4] {
                if !(x == 4 && y == 4) {
                    configs.push(int_values([x, y]));
                }
            }
        }
        SearchSpace::from_configs("grid", params, configs).unwrap()
    }

    #[test]
    fn hamming_probe_matches_the_scan() {
        let s = space();
        for id in s.ids() {
            let scanned = scan_neighbors(&s, id, NeighborMethod::Hamming);
            let probed = neighbors(&s, id, NeighborMethod::Hamming);
            assert_eq!(scanned, probed, "config {id}");
        }
    }

    #[test]
    fn hamming_neighbors_of_corner() {
        let s = space();
        let origin = s.index_of(&int_values([1, 1])).unwrap();
        let n = neighbors(&s, origin, NeighborMethod::Hamming);
        // same row or same column: (1,2), (1,4), (2,1), (4,1)
        assert_eq!(n.len(), 4);
        for j in n {
            let view = s.view(j).unwrap();
            assert!(view[0] == Value::Int(1) || view[1] == Value::Int(1));
        }
    }

    #[test]
    fn duplicate_neighbor_rows_resolve_to_their_first_occurrence() {
        // (1,2) appears at ids 1 and 3; (1,1) at ids 0 and 4.
        let params = vec![
            TunableParameter::ints("x", [1, 2]),
            TunableParameter::ints("y", [1, 2]),
        ];
        let configs = vec![
            int_values([1, 1]),
            int_values([1, 2]),
            int_values([2, 1]),
            int_values([1, 2]),
            int_values([1, 1]),
        ];
        let s = SearchSpace::from_configs("dup", params, configs).unwrap();
        let id = ConfigId::from_index;
        // Every copy of a neighbor row is a scan hit; the probe returns the
        // copy `index_of` resolves to, once.
        assert_eq!(
            scan_neighbors(&s, id(0), NeighborMethod::Hamming),
            vec![id(1), id(2), id(3)]
        );
        assert_eq!(
            neighbors(&s, id(0), NeighborMethod::Hamming),
            vec![id(1), id(2)]
        );
        assert_eq!(s.index_of(&int_values([1, 2])), Some(id(1)));
        // A duplicate is not its own neighbor, and both copies of the queried
        // row get the same answer.
        assert_eq!(
            neighbors(&s, id(4), NeighborMethod::Hamming),
            vec![id(1), id(2)]
        );
        assert_eq!(neighbors(&s, id(3), NeighborMethod::Hamming), vec![id(0)]);
    }

    #[test]
    fn adjacent_neighbors_use_value_positions() {
        let s = space();
        let center = s.index_of(&int_values([2, 2])).unwrap();
        let n = neighbors(&s, center, NeighborMethod::Adjacent);
        // all 8 surrounding grid cells except the removed (4,4)
        assert_eq!(n.len(), 7);
    }

    #[test]
    fn strictly_adjacent_neighbors() {
        let s = space();
        let center = s.index_of(&int_values([2, 2])).unwrap();
        let n = neighbors(&s, center, NeighborMethod::StrictlyAdjacent);
        // only the 4 axis-aligned direct neighbors
        assert_eq!(n.len(), 4);
        let corner = s.index_of(&int_values([1, 1])).unwrap();
        let n = neighbors(&s, corner, NeighborMethod::StrictlyAdjacent);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn neighborhood_is_symmetric() {
        let s = space();
        for method in [
            NeighborMethod::Hamming,
            NeighborMethod::Adjacent,
            NeighborMethod::StrictlyAdjacent,
        ] {
            for i in s.ids() {
                for &j in &neighbors(&s, i, method) {
                    let back = neighbors(&s, j, method);
                    assert!(
                        back.contains(&i),
                        "{method:?} asymmetric between {i} and {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_id_has_no_neighbors() {
        let s = space();
        let bogus = ConfigId::from_index(999);
        assert!(neighbors(&s, bogus, NeighborMethod::Hamming).is_empty());
    }

    const METHODS: [NeighborMethod; 3] = [
        NeighborMethod::Hamming,
        NeighborMethod::Adjacent,
        NeighborMethod::StrictlyAdjacent,
    ];

    #[test]
    fn random_neighbors_are_members_of_the_ring() {
        let s = space();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for method in METHODS {
            for id in s.ids() {
                let ring = neighbors(&s, id, method);
                let mut seen = vec![false; ring.len()];
                for _ in 0..200 {
                    let pick = random_neighbor(&s, id, method, &mut rng).expect("a neighbor");
                    let at = ring.iter().position(|&n| n == pick);
                    seen[at.unwrap_or_else(|| panic!("{method:?} {id}: {pick} not in {ring:?}"))] =
                        true;
                }
                assert!(seen.iter().all(|&hit| hit), "{method:?} {id}: {seen:?}");
            }
        }
    }

    #[test]
    fn random_neighbor_is_none_exactly_when_the_ring_is_empty() {
        let param = |x| TunableParameter::ints(x, [1, 2]);
        // One configuration; two that differ in both positions (no Hamming
        // or strictly adjacent neighbor, but an adjacent one); two that
        // differ in one.
        let spaces = [
            (vec![int_values([1, 1])], [0, 0, 0]),
            (vec![int_values([1, 1]), int_values([2, 2])], [0, 1, 0]),
            (vec![int_values([1, 1]), int_values([1, 2])], [1, 1, 1]),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (configs, ring_sizes) in spaces {
            let s =
                SearchSpace::from_configs("small", vec![param("x"), param("y")], configs).unwrap();
            for (method, size) in METHODS.into_iter().zip(ring_sizes) {
                for id in s.ids() {
                    assert_eq!(neighbors(&s, id, method).len(), size);
                    let pick = random_neighbor(&s, id, method, &mut rng);
                    assert_eq!(pick.is_some(), size > 0, "{method:?} {id}");
                }
            }
        }
        // An isolated row inside a larger space: (8,8) shares no value with
        // the 2x2 block and is at least two codes away from it.
        let params = vec![
            TunableParameter::ints("x", [1, 2, 4, 8]),
            TunableParameter::ints("y", [1, 2, 4, 8]),
        ];
        let configs = vec![
            int_values([1, 1]),
            int_values([1, 2]),
            int_values([2, 1]),
            int_values([2, 2]),
            int_values([8, 8]),
        ];
        let s = SearchSpace::from_configs("isolated", params, configs).unwrap();
        let isolated = ConfigId::from_index(4);
        for method in METHODS {
            assert!(neighbors(&s, isolated, method).is_empty());
            assert_eq!(random_neighbor(&s, isolated, method, &mut rng), None);
        }
        let bogus = ConfigId::from_index(99);
        assert_eq!(
            random_neighbor(&s, bogus, NeighborMethod::Hamming, &mut rng),
            None
        );
    }

    #[test]
    fn random_neighbor_resolves_duplicate_rows_to_their_first_occurrence() {
        // (1,2) appears at ids 1 and 3; (1,1) at ids 0 and 4.
        let params = vec![
            TunableParameter::ints("x", [1, 2]),
            TunableParameter::ints("y", [1, 2]),
        ];
        let configs = vec![
            int_values([1, 1]),
            int_values([1, 2]),
            int_values([2, 1]),
            int_values([1, 2]),
            int_values([1, 1]),
        ];
        let s = SearchSpace::from_configs("dup", params, configs).unwrap();
        let id = ConfigId::from_index;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for query in [id(0), id(4)] {
            let mut counts = [0usize; 5];
            for _ in 0..400 {
                let pick = random_neighbor(&s, query, NeighborMethod::Hamming, &mut rng);
                counts[pick.unwrap().index()] += 1;
            }
            // Only the first copy of (1,2) is drawn, as often as (2,1).
            assert_eq!(counts[0] + counts[3] + counts[4], 0, "{counts:?}");
            assert!(counts[1] > 150 && counts[2] > 150, "{counts:?}");
        }
        assert_eq!(
            random_neighbor(&s, id(3), NeighborMethod::Hamming, &mut rng),
            Some(id(0))
        );
    }

    #[test]
    fn scanned_methods_pick_like_one_gen_range_over_the_list() {
        let s = space();
        for method in [NeighborMethod::Adjacent, NeighborMethod::StrictlyAdjacent] {
            for seed in 0..20 {
                for id in s.ids() {
                    let mut ours = ChaCha8Rng::seed_from_u64(seed);
                    let mut reference = ours.clone();
                    let pick = random_neighbor(&s, id, method, &mut ours);
                    let list = neighbors(&s, id, method);
                    let expected = list[reference.gen_range(0..list.len())];
                    assert_eq!(pick, Some(expected), "{method:?} {id} seed {seed}");
                    assert_eq!(ours.next_u64(), reference.next_u64());
                }
            }
        }
    }

    #[test]
    fn neighbor_index_is_an_empty_stand_in() {
        assert_eq!(std::mem::size_of::<NeighborIndex>(), 0);
        let _ = NeighborIndex::build(&space());
    }
}
