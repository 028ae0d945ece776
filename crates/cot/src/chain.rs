//! The chain of trees: linked per-group trees and whole-space operations.

use at_csp::Value;

use crate::tree::{GroupTree, TreeNode};

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

    /// Visit every configuration in the space as a row of codes in
    /// declaration order (each node's [`TreeNode::code`]) without
    /// materializing the set: the row is one reused buffer, updated in
    /// place as the walk moves and passed to `visit` the moment it is
    /// complete, so the whole walk allocates O(params), not
    /// O(size × params). Returning an error from `visit` aborts the walk.
    ///
    /// Each tree is walked depth first, its nodes in code order, and the
    /// last tree varies fastest.
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
    /// order), in [`ChainOfTrees::for_each_code_row`] order. Intended for
    /// validation on spaces that fit in memory; stream the code rows
    /// instead where the space is large.
    pub fn enumerate(&self) -> Vec<Vec<Value>> {
        // Each parameter's declared values, which its codes index.
        let mut declared: Vec<&[Value]> = vec![&[]; self.names.len()];
        for tree in &self.trees {
            for (level, &param) in tree.params.iter().enumerate() {
                declared[param] = &tree.declared[level];
            }
        }
        let mut rows = Vec::new();
        self.for_each_code_row(|codes| -> Result<(), std::convert::Infallible> {
            rows.push(
                codes
                    .iter()
                    .zip(&declared)
                    .map(|(&code, values)| values[code as usize].clone())
                    .collect(),
            );
            Ok(())
        })
        .expect("the visit never fails");
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{GroupConstraint, GroupTree};
    use at_csp::value::int_values;
    use at_csp::{Domain, MaxProduct};
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
    fn code_rows_come_depth_first_with_the_last_tree_fastest() {
        let chain = small_chain();
        let mut rows: Vec<Vec<u32>> = Vec::new();
        chain
            .for_each_code_row(|row| -> Result<(), std::convert::Infallible> {
                rows.push(row.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(rows.len() as u128, chain.size());
        // (x, y) in code order with x*y <= 8, each followed by both z.
        let xy = [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
        ];
        let expected: Vec<Vec<u32>> = xy
            .iter()
            .flat_map(|&(x, y)| [vec![x, y, 0], vec![x, y, 1]])
            .collect();
        assert_eq!(rows, expected);
        let decoded: Vec<(i64, i64, i64)> = chain.enumerate().iter().map(|r| as_tuple(r)).collect();
        let (values, z) = ([1i64, 2, 4], [10i64, 20]);
        let from_codes: Vec<(i64, i64, i64)> = rows
            .iter()
            .map(|r| {
                (
                    values[r[0] as usize],
                    values[r[1] as usize],
                    z[r[2] as usize],
                )
            })
            .collect();
        assert_eq!(decoded, from_codes);
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
    }

    #[test]
    fn node_count_is_reported() {
        let chain = small_chain();
        assert!(chain.node_count() >= 3);
    }
}
