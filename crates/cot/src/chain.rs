//! The chain of trees: linked per-group trees and whole-space operations.

use at_csp::Value;
use rand::Rng;

use crate::tree::{GroupTree, TreeNode};

/// Draw a uniform index in `[0, span)` by rejection sampling over two `u64`
/// draws.
///
/// The word is assembled from two full 64-bit draws; words falling in the
/// final partial block of `span`-sized buckets above `zone` would bias the
/// low residues, so they are rejected and redrawn (rejection probability is
/// `(2^128 mod span) / 2^128`, i.e. at most one in two and practically zero
/// for realistic chain sizes).
fn uniform_u128<R: Rng>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0, "cannot sample an empty range");
    let rem = (u128::MAX % span + 1) % span; // 2^128 mod span
    let zone = u128::MAX - rem;
    loop {
        let word = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if word <= zone {
            return word % span;
        }
    }
}

/// A chain of per-group trees representing a constrained search space.
#[derive(Debug, Clone)]
pub struct ChainOfTrees {
    /// Variable names of the full space, in declaration order.
    names: Vec<String>,
    /// The group trees, in group order.
    trees: Vec<GroupTree>,
}

impl ChainOfTrees {
    /// Assemble a chain from its trees. `names` are the full space's
    /// parameter names in declaration order.
    pub fn new(names: Vec<String>, trees: Vec<GroupTree>) -> Self {
        ChainOfTrees { names, trees }
    }

    /// Parameter names in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The per-group trees.
    pub fn trees(&self) -> &[GroupTree] {
        &self.trees
    }

    /// Number of valid configurations (product of per-tree leaf counts).
    pub fn size(&self) -> u128 {
        self.trees
            .iter()
            .map(|t| t.leaf_count as u128)
            .fold(1, |a, b| a.saturating_mul(b))
    }

    /// Total constraint evaluations spent building the chain.
    pub fn constraint_checks(&self) -> u64 {
        self.trees.iter().map(|t| t.constraint_checks).sum()
    }

    /// Total number of tree nodes (memory proxy; the chain is usually much
    /// smaller than the flat enumeration).
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(|t| t.node_count()).sum()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.iter().any(|t| t.leaf_count == 0)
    }

    /// The configuration at `index` (0 ≤ index < `size()`), decoded mixed-radix
    /// over the group sizes. Values are returned in declaration order.
    pub fn configuration(&self, index: u128) -> Option<Vec<Value>> {
        if index >= self.size() || self.is_empty() {
            return None;
        }
        let mut remaining = index;
        let mut values: Vec<Option<Value>> = vec![None; self.names.len()];
        // Least-significant group last for a stable lexicographic-ish order.
        for tree in self.trees.iter().rev() {
            let radix = tree.leaf_count as u128;
            let digit = (remaining % radix) as usize;
            remaining /= radix;
            let combo = tree.combination(digit)?;
            for (pos, &param) in tree.params.iter().enumerate() {
                values[param] = Some(combo[pos].clone());
            }
        }
        values.into_iter().collect()
    }

    /// Visit every configuration in the space as a row of codes in
    /// declaration order (each node's [`TreeNode::code`]) without
    /// materializing the set: the row is one reused buffer, updated in
    /// place as the walk moves and passed to `visit` the moment it is
    /// complete, so the whole walk allocates O(params), not
    /// O(size × params). Returning an error from `visit` aborts the walk.
    ///
    /// The visit order matches [`ChainOfTrees::configuration`]: the last
    /// tree varies fastest.
    pub fn for_each_code_row<E, F>(&self, mut visit: F) -> Result<(), E>
    where
        F: FnMut(&[u32]) -> Result<(), E>,
    {
        if self.is_empty() {
            return Ok(());
        }
        let mut row = vec![0u32; self.names.len()];
        self.walk_tree(0, &mut row, &mut visit)
    }

    /// DFS helper for [`ChainOfTrees::for_each_code_row`]: place tree
    /// `ti`'s codes, then recurse into the next tree.
    fn walk_tree<E, F>(&self, ti: usize, row: &mut [u32], visit: &mut F) -> Result<(), E>
    where
        F: FnMut(&[u32]) -> Result<(), E>,
    {
        if ti == self.trees.len() {
            return visit(row);
        }
        let tree = &self.trees[ti];
        if tree.depth() == 0 {
            return self.walk_tree(ti + 1, row, visit);
        }
        self.walk_nodes(ti, &tree.roots, 0, row, visit)
    }

    /// DFS helper walking one tree's levels.
    fn walk_nodes<E, F>(
        &self,
        ti: usize,
        nodes: &[TreeNode],
        level: usize,
        row: &mut [u32],
        visit: &mut F,
    ) -> Result<(), E>
    where
        F: FnMut(&[u32]) -> Result<(), E>,
    {
        let tree = &self.trees[ti];
        for node in nodes {
            row[tree.params[level]] = node.code;
            if level + 1 == tree.depth() {
                self.walk_tree(ti + 1, row, visit)?;
            } else {
                self.walk_nodes(ti, &node.children, level + 1, row, visit)?;
            }
        }
        Ok(())
    }

    /// Enumerate every configuration in the space (values in declaration
    /// order), in [`ChainOfTrees::configuration`] order. Intended for
    /// validation on spaces that fit in memory; use
    /// [`ChainOfTrees::for_each_code_row`] to stream instead.
    pub fn enumerate(&self) -> Vec<Vec<Value>> {
        (0..self.size())
            .map(|index| self.configuration(index).expect("index below size"))
            .collect()
    }

    /// Sample a configuration uniformly at random by index.
    ///
    /// The index is drawn as a full-width `u128` by rejection sampling
    /// over two `u64` draws, so it is unbiased at any chain size.
    /// (An earlier version cast `size()` through `u64`, which panicked on
    /// chains of exactly `2^64` configurations and made every configuration
    /// beyond index `u64::MAX - 1` unreachable on larger chains.)
    pub fn sample_uniform<R: Rng>(&self, rng: &mut R) -> Option<Vec<Value>> {
        if self.is_empty() {
            return None;
        }
        let index = uniform_u128(rng, self.size());
        self.configuration(index)
    }

    /// Sample by walking each tree from the root, picking a uniformly random
    /// child at every level. This is the "naive" tree sampling the paper
    /// notes is *biased towards the sparser parts* of the chain-of-trees:
    /// paths through sparsely populated subtrees are over-represented.
    pub fn sample_path_biased<R: Rng>(&self, rng: &mut R) -> Option<Vec<Value>> {
        if self.is_empty() {
            return None;
        }
        let mut values: Vec<Option<Value>> = vec![None; self.names.len()];
        for tree in &self.trees {
            let mut nodes = &tree.roots;
            for level in 0..tree.depth() {
                let node = &nodes[rng.gen_range(0..nodes.len())];
                values[tree.params[level]] = Some(tree.declared[level][node.code as usize].clone());
                nodes = &node.children;
            }
        }
        values.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{GroupConstraint, GroupTree};
    use at_csp::value::int_values;
    use at_csp::{Domain, MaxProduct};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Two groups: (x, y) with x*y <= 8, and an independent z.
    fn small_chain() -> ChainOfTrees {
        let xy = Domain::new(int_values([1, 2, 4]));
        let t1 = GroupTree::build(
            vec![0, 1],
            &[&xy, &xy],
            &[GroupConstraint {
                constraint: Arc::new(MaxProduct::new(8.0)),
                scope_positions: vec![0, 1],
                ready_at: 1,
            }],
        );
        let t2 = GroupTree::build(vec![2], &[&Domain::new(int_values([10, 20]))], &[]);
        ChainOfTrees::new(
            vec!["x".to_string(), "y".to_string(), "z".to_string()],
            vec![t1, t2],
        )
    }

    fn reference() -> HashSet<(i64, i64, i64)> {
        let mut set = HashSet::new();
        for x in [1i64, 2, 4] {
            for y in [1i64, 2, 4] {
                for z in [10i64, 20] {
                    if x * y <= 8 {
                        set.insert((x, y, z));
                    }
                }
            }
        }
        set
    }

    fn as_tuple(row: &[Value]) -> (i64, i64, i64) {
        (
            row[0].as_i64().unwrap(),
            row[1].as_i64().unwrap(),
            row[2].as_i64().unwrap(),
        )
    }

    #[test]
    fn size_and_enumeration_match_reference() {
        let chain = small_chain();
        let expected = reference();
        assert_eq!(chain.size(), expected.len() as u128);
        let got: HashSet<_> = chain.enumerate().iter().map(|r| as_tuple(r)).collect();
        assert_eq!(got, expected);
        assert!(!chain.is_empty());
        assert!(chain.constraint_checks() > 0);
    }

    #[test]
    fn indexed_configurations_cover_the_space_exactly_once() {
        let chain = small_chain();
        let mut seen = HashSet::new();
        for i in 0..chain.size() {
            let row = chain.configuration(i).unwrap();
            assert!(seen.insert(as_tuple(&row)), "duplicate at index {i}");
        }
        assert_eq!(seen, reference());
        assert!(chain.configuration(chain.size()).is_none());
    }

    #[test]
    fn uniform_sampling_hits_every_configuration() {
        let chain = small_chain();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            seen.insert(as_tuple(&chain.sample_uniform(&mut rng).unwrap()));
        }
        assert_eq!(seen, reference());
    }

    #[test]
    fn biased_sampling_yields_valid_configurations() {
        let chain = small_chain();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let expected = reference();
        for _ in 0..200 {
            let row = chain.sample_path_biased(&mut rng).unwrap();
            assert!(expected.contains(&as_tuple(&row)));
        }
    }

    #[test]
    fn code_rows_decode_to_the_indexed_configurations_in_order() {
        let chain = small_chain();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        chain
            .for_each_code_row(|row| -> Result<(), std::convert::Infallible> {
                rows.push(row.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(rows.len() as u128, chain.size());
        let (xy, z) = ([1i64, 2, 4], [10i64, 20]);
        for (i, row) in rows.iter().enumerate() {
            let decoded = (xy[row[0] as usize], xy[row[1] as usize], z[row[2] as usize]);
            let indexed = chain.configuration(i as u128).unwrap();
            assert_eq!(decoded, as_tuple(&indexed), "row {i}");
        }
    }

    #[test]
    fn streaming_aborts_on_error() {
        let chain = small_chain();
        let mut seen = 0usize;
        let result = chain.for_each_code_row(|_| {
            seen += 1;
            if seen == 3 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!(result, Err("stop"));
        assert_eq!(seen, 3);
    }

    /// A chain of `num_binary` independent two-value parameters: its size is
    /// exactly `2^num_binary`, letting tests cross the `u64` boundary with a
    /// structure that is cheap to build.
    fn huge_chain(num_binary: usize) -> ChainOfTrees {
        let names = (0..num_binary).map(|i| format!("p{i}")).collect();
        let trees = (0..num_binary)
            .map(|i| GroupTree::build(vec![i], &[&Domain::new(int_values([0, 1]))], &[]))
            .collect();
        ChainOfTrees::new(names, trees)
    }

    #[test]
    fn sampling_a_chain_of_exactly_two_pow_64_configurations() {
        // Regression: `size as u64` truncated 2^64 to 0, so the index draw
        // panicked on an empty range.
        let chain = huge_chain(64);
        assert_eq!(chain.size(), 1u128 << 64);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for _ in 0..32 {
            let row = chain.sample_uniform(&mut rng).unwrap();
            assert_eq!(row.len(), 64);
        }
    }

    #[test]
    fn sampling_reaches_beyond_the_u64_boundary() {
        // Regression: with the truncating cast every drawn index stayed
        // below 2^64, so the first (most significant) parameter could never
        // take its second value on a chain of size 2^65.
        let chain = huge_chain(65);
        assert!(chain.size() > u64::MAX as u128);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut high_half_seen = false;
        for _ in 0..64 {
            let row = chain.sample_uniform(&mut rng).unwrap();
            assert_eq!(row.len(), 65);
            high_half_seen |= row[0].as_i64() == Some(1);
        }
        assert!(
            high_half_seen,
            "64 draws from a 2^65 space never reached the high half \
             (probability 2^-64 under a correct sampler)"
        );
    }

    #[test]
    fn uniform_u128_stays_in_range_and_covers_small_spans() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let x = uniform_u128(&mut rng, 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..100 {
            let span = 3u128 << 100;
            assert!(uniform_u128(&mut rng, span) < span);
            assert!(uniform_u128(&mut rng, u128::MAX) < u128::MAX);
            assert_eq!(uniform_u128(&mut rng, 1), 0);
        }
    }

    #[test]
    fn empty_chain_reports_empty() {
        let t = GroupTree::build(
            vec![0],
            &[&Domain::new(int_values([10, 20]))],
            &[GroupConstraint {
                constraint: Arc::new(MaxProduct::new(1.0)),
                scope_positions: vec![0],
                ready_at: 0,
            }],
        );
        let chain = ChainOfTrees::new(vec!["x".to_string()], vec![t]);
        assert!(chain.is_empty());
        assert_eq!(chain.size(), 0);
        assert!(chain.enumerate().is_empty());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(chain.sample_uniform(&mut rng).is_none());
    }

    #[test]
    fn node_count_is_reported() {
        let chain = small_chain();
        assert!(chain.node_count() >= 3);
    }
}
