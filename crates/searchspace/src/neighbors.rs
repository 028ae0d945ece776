//! Valid-neighbor queries over the resolved search space.
//!
//! Optimization strategies such as genetic algorithms, hill climbing and
//! simulated annealing repeatedly ask for the valid neighbors of a
//! configuration. Because the space is fully resolved, validity is a lookup
//! (Section 4.4), so neighbors never need re-checking against the
//! constraints.
//!
//! # Hamming queries are rank arithmetic
//!
//! A Hamming-distance-1 neighbor differs from the queried row at exactly one
//! position `p`. Changing code `c` to `c'` there moves the row's rank by
//! `(c' − c) · stride_p` (see [`SearchSpace::strides`]), so [`neighbors`]
//! computes each candidate's rank from the queried rank alone and looks it
//! up with [`SearchSpace::index_of_rank`]; the hits come back sorted by id.
//! A query costs `Σ_p (|D_p| − 1)` lookups (35 on MicroHH, 71 on Hotspot),
//! independent of the size of the space, and there is nothing to build: no
//! index, no copied row, and no memory beyond the result.
//!
//! Every returned id is a valid neighbor, because a lookup only returns the
//! id whose rank equals the candidate's. A space never repeats a row
//! ([`SearchSpace::from_configs`] and construction reject duplicates), so
//! each neighbor row has exactly one id.
//!
//! # One random neighbor: probe in random order, stop at the first hit
//!
//! Strategies that move to *one* random neighbor (a GA mutation, an
//! annealing proposal, a local-search perturbation) call
//! [`random_neighbor`] instead of listing the whole ring. For `Hamming` it
//! visits the `K = Σ_p (|D_p| − 1)` candidate rows in a uniformly random
//! order, drawn one Fisher–Yates step at a time, and returns the first one
//! the space contains. The first valid entry of a uniform permutation is
//! uniform over the valid entries, so the answer is distributed exactly
//! like a uniform pick from [`neighbors`]; it costs `(K + 1) / (V + 1)`
//! lookups in expectation for `V` valid neighbors (about 1.7 on MicroHH)
//! instead of `K` (35). A row without neighbors costs the full `K` lookups
//! and gives `None`. The shuffle lives on the stack for rings of up to 128
//! candidates, which covers every built-in workload, so a draw allocates
//! nothing.
//!
//! The code-distance variants ([`NeighborMethod::Adjacent`],
//! [`NeighborMethod::StrictlyAdjacent`]) scan the whole space, which is also
//! the reference definition the Hamming probe is tested against.
//! [`random_neighbor`] picks from that scan with one `gen_range`.
//!
//! All queries operate on [`ConfigId`]s, ranks and codes — no configuration
//! is decoded to [`at_csp::Value`]s anywhere in this module.

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
/// Hamming queries no longer need an index: [`neighbors`] looks candidate
/// ranks up in the space directly. The type survives only because the
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
/// `Hamming` queries probe candidate ranks (see the
/// [module documentation](self)); the code-distance variants scan.
pub fn neighbors(space: &SearchSpace, id: ConfigId, method: NeighborMethod) -> Vec<ConfigId> {
    let Some(rank) = space.rank_of(id) else {
        return Vec::new();
    };
    match method {
        NeighborMethod::Hamming => probe_hamming(space, rank),
        _ => scan_neighbors(space, id, method),
    }
}

/// The rank of the row `rank` with parameter `pos` set to `code`.
#[inline]
fn substitute(space: &SearchSpace, rank: u64, pos: usize, code: u32) -> u64 {
    let stride = space.strides()[pos];
    let own = u64::from(space.code_at(rank, pos));
    // `own * stride <= rank`, since `own` is `(rank / stride) % |D_pos|`.
    (rank - own * stride).wrapping_add(u64::from(code) * stride)
}

/// The Hamming neighbors of the row with rank `rank`: every one-position
/// substitution the space contains, sorted by id.
fn probe_hamming(space: &SearchSpace, rank: u64) -> Vec<ConfigId> {
    let mut out = Vec::new();
    for (pos, param) in space.params().iter().enumerate() {
        let own = space.code_at(rank, pos);
        for code in (0..param.len() as u32).filter(|&c| c != own) {
            out.extend(space.index_of_rank(substitute(space, rank, pos, code)));
        }
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
    let rank = space.rank_of(id)?;
    match method {
        NeighborMethod::Hamming => draw_hamming(space, rank, rng),
        _ => {
            let list = scan_neighbors(space, id, method);
            (!list.is_empty()).then(|| list[rng.gen_range(0..list.len())])
        }
    }
}

/// Rings up to this many candidates shuffle on the stack.
const STACK_CANDIDATES: usize = 128;

/// Probe the one-position substitutions of the row with rank `rank` in a
/// uniformly random order and return the first one the space contains.
///
/// Candidate `k` of the `Σ_p (|D_p| − 1)` is the `k`-th substitution in
/// parameter order, skipping each parameter's own code. The order is a
/// Fisher–Yates shuffle of the candidate numbers that stops at the first
/// hit.
fn draw_hamming<R: Rng + ?Sized>(space: &SearchSpace, rank: u64, rng: &mut R) -> Option<ConfigId> {
    let params = space.params();
    let others = |pos: usize| params[pos].len().saturating_sub(1);
    let total: usize = (0..params.len()).map(others).sum();
    let mut on_stack = [0usize; STACK_CANDIDATES];
    let mut on_heap = Vec::new();
    let order: &mut [usize] = match on_stack.get_mut(..total) {
        Some(order) => order,
        None => {
            on_heap.resize(total, 0);
            &mut on_heap
        }
    };
    for (k, slot) in order.iter_mut().enumerate() {
        *slot = k;
    }
    for i in 0..total {
        let j = rng.gen_range(i..total);
        order.swap(i, j);
        let (mut pos, mut offset) = (0, order[i]);
        while offset >= others(pos) {
            offset -= others(pos);
            pos += 1;
        }
        let (own, code) = (space.code_at(rank, pos), offset as u32);
        let candidate = substitute(space, rank, pos, code + u32::from(code >= own));
        let hit = space.index_of_rank(candidate);
        if hit.is_some() {
            return hit;
        }
    }
    None
}

fn scan_neighbors(space: &SearchSpace, id: ConfigId, method: NeighborMethod) -> Vec<ConfigId> {
    let (mut reference, mut codes) = (Vec::new(), Vec::new());
    space.codes_into(id, &mut reference);
    let mut out = Vec::new();
    for view in space.iter() {
        if view.id() == id {
            continue;
        }
        view.codes_into(&mut codes);
        if is_neighbor(&reference, &codes, method) {
            out.push(view.id());
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
    fn neighbors_are_the_same_whatever_order_the_rows_came_in() {
        let s = space();
        let mut rows: Vec<Vec<Value>> = s.iter_decoded().collect();
        rows.reverse();
        let reversed = SearchSpace::from_configs("grid", s.params().to_vec(), rows).unwrap();
        assert_eq!(reversed.arena(), s.arena());
        for method in METHODS {
            for id in s.ids() {
                assert_eq!(neighbors(&s, id, method), neighbors(&reversed, id, method));
            }
        }
    }

    #[test]
    fn hamming_candidates_move_the_rank_by_whole_strides() {
        let s = space();
        // (2, 2) has codes (1, 1) and rank 4; strides are (3, 1).
        let center = s.index_of(&int_values([2, 2])).unwrap();
        assert_eq!(s.rank_of(center), Some(4));
        assert_eq!(substitute(&s, 4, 0, 0), 1);
        assert_eq!(substitute(&s, 4, 0, 2), 7);
        assert_eq!(substitute(&s, 4, 1, 2), 5);
        let ranks: Vec<u64> = neighbors(&s, center, NeighborMethod::Hamming)
            .into_iter()
            .map(|n| s.rank_of(n).unwrap())
            .collect();
        assert_eq!(ranks, [1, 3, 5, 7]);
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
    fn a_ring_larger_than_the_stack_buffer_draws_like_a_small_one() {
        // 200 values: 199 candidates, beyond the stack buffer.
        let params = vec![
            TunableParameter::ints("x", 0..200),
            TunableParameter::ints("y", [0, 1]),
        ];
        let configs = vec![int_values([0, 0]), int_values([150, 0]), int_values([7, 1])];
        let s = SearchSpace::from_configs("wide", params, configs).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let origin = s.index_of(&int_values([0, 0])).unwrap();
        let ring = neighbors(&s, origin, NeighborMethod::Hamming);
        assert_eq!(ring.len(), 1);
        for _ in 0..20 {
            assert_eq!(
                random_neighbor(&s, origin, NeighborMethod::Hamming, &mut rng),
                Some(ring[0])
            );
        }
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
