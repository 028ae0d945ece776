//! Per-group trees of valid parameter-value prefixes.
//!
//! A group tree has one level per parameter of the group (in declaration
//! order). Every root-to-leaf path of full depth is a valid combination of
//! the group's parameter values with respect to the constraints whose scope
//! lies inside the group. Following ATF, a constraint is evaluated at the
//! level of the *last* of its parameters (in the group's order), i.e. as soon
//! as all of its parameters are on the current path.

use std::sync::Arc;

use at_csp::{ConstraintRef, Domain, Value};

/// A node of a group tree, holding one parameter value as its code and the
/// subtree of valid completions.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The code of this level's parameter value on this path: its index in
    /// the parameter's declared domain ([`GroupTree::declared`]).
    pub code: u32,
    /// Children at the next level (empty at the deepest level).
    pub children: Vec<TreeNode>,
    /// Number of full-depth leaves below (1 for a deepest-level node).
    pub leaves: usize,
}

/// A constraint restricted to a group, with its scope expressed as positions
/// *within the group's parameter list*.
#[derive(Clone)]
pub struct GroupConstraint {
    /// The constraint.
    pub constraint: ConstraintRef,
    /// For each scope entry, the index into the group's parameter list.
    pub scope_positions: Vec<usize>,
    /// The level (position of the last scope parameter) at which the
    /// constraint becomes evaluable.
    pub ready_at: usize,
}

impl std::fmt::Debug for GroupConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupConstraint")
            .field("kind", &self.constraint.kind())
            .field("scope_positions", &self.scope_positions)
            .field("ready_at", &self.ready_at)
            .finish()
    }
}

/// The tree of valid value combinations for one parameter group.
#[derive(Debug, Clone)]
pub struct GroupTree {
    /// Global parameter indices of this group, in declaration order.
    pub params: Vec<usize>,
    /// For each group parameter (same order), its declared value list:
    /// `declared[level][node.code]` is the value of a node at `level`.
    pub declared: Vec<Arc<[Value]>>,
    /// The first-level nodes.
    pub roots: Vec<TreeNode>,
    /// Total number of valid combinations (full-depth leaves).
    pub leaf_count: usize,
    /// Number of constraint evaluations performed while building the tree.
    pub constraint_checks: u64,
}

impl GroupTree {
    /// Build the tree for a group.
    ///
    /// * `params` — global parameter indices of the group (declaration order)
    /// * `domains` — for each group parameter (same order), its domain; the
    ///   nodes take their codes from it, and the tree shares its declared list
    /// * `constraints` — the constraints whose scope lies within this group
    pub fn build(params: Vec<usize>, domains: &[&Domain], constraints: &[GroupConstraint]) -> Self {
        assert_eq!(params.len(), domains.len());
        let mut checks = 0u64;
        let mut prefix: Vec<Value> = Vec::with_capacity(params.len());
        let roots = build_level(0, domains, constraints, &mut prefix, &mut checks);
        let leaf_count = roots.iter().map(|n| n.leaves).sum();
        GroupTree {
            params,
            declared: domains.iter().map(|d| Arc::clone(d.declared())).collect(),
            roots,
            leaf_count,
            constraint_checks: checks,
        }
    }

    /// Depth (number of parameters) of the tree.
    pub fn depth(&self) -> usize {
        self.params.len()
    }

    /// Total number of tree nodes (a memory-use proxy).
    pub fn node_count(&self) -> usize {
        fn count(node: &TreeNode) -> usize {
            1 + node.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }
}

fn build_level(
    depth: usize,
    domains: &[&Domain],
    constraints: &[GroupConstraint],
    prefix: &mut Vec<Value>,
    checks: &mut u64,
) -> Vec<TreeNode> {
    let last_level = depth + 1 == domains.len();
    let mut nodes = Vec::new();
    let domain = domains[depth];
    for (value, &code) in domain.values().iter().zip(domain.codes()) {
        prefix.push(value.clone());
        let mut ok = true;
        let mut scope_buf: Vec<Value> = Vec::new();
        for gc in constraints.iter().filter(|c| c.ready_at == depth) {
            scope_buf.clear();
            scope_buf.extend(gc.scope_positions.iter().map(|&p| prefix[p].clone()));
            *checks += 1;
            if !gc.constraint.evaluate(&scope_buf) {
                ok = false;
                break;
            }
        }
        if ok {
            if last_level {
                nodes.push(TreeNode {
                    code,
                    children: Vec::new(),
                    leaves: 1,
                });
            } else {
                let children = build_level(depth + 1, domains, constraints, prefix, checks);
                if !children.is_empty() {
                    let leaves = children.iter().map(|c| c.leaves).sum();
                    nodes.push(TreeNode {
                        code,
                        children,
                        leaves,
                    });
                }
            }
        }
        prefix.pop();
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::value::int_values;
    use at_csp::{MaxProduct, MinProduct};

    fn product_group() -> GroupTree {
        // two parameters x in {1..32 pow2}, y in {1..32 pow2}, 32 <= x*y <= 256
        let x = Domain::new(int_values([1, 2, 4, 8, 16, 32]));
        let y = Domain::new(int_values([1, 2, 4, 8, 16, 32]));
        let constraints = vec![
            GroupConstraint {
                constraint: Arc::new(MinProduct::new(32.0)),
                scope_positions: vec![0, 1],
                ready_at: 1,
            },
            GroupConstraint {
                constraint: Arc::new(MaxProduct::new(256.0)),
                scope_positions: vec![0, 1],
                ready_at: 1,
            },
        ];
        GroupTree::build(vec![0, 1], &[&x, &y], &constraints)
    }

    fn reference_count() -> usize {
        let vals = [1i64, 2, 4, 8, 16, 32];
        let mut n = 0;
        for &x in &vals {
            for &y in &vals {
                if x * y >= 32 && x * y <= 256 {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn leaf_count_matches_reference() {
        let tree = product_group();
        assert_eq!(tree.leaf_count, reference_count());
        assert_eq!(tree.depth(), 2);
        assert!(tree.constraint_checks > 0);
        assert!(tree.node_count() >= tree.leaf_count);
    }

    #[test]
    fn nodes_carry_declared_codes_of_a_pruned_domain() {
        // Pruning 1 and 2 from x leaves codes 2.. on the surviving nodes.
        let mut x = Domain::new(int_values([1, 2, 4, 8, 16, 32]));
        x.retain(|v| v.as_i64().unwrap() >= 4);
        let y = Domain::new(int_values([1, 2]));
        let tree = GroupTree::build(vec![0, 1], &[&x, &y], &[]);
        let codes: Vec<u32> = tree.roots.iter().map(|n| n.code).collect();
        assert_eq!(codes, vec![2, 3, 4, 5]);
        assert_eq!(tree.declared[0][tree.roots[0].code as usize], Value::Int(4));
        assert_eq!(tree.roots[0].children[1].code, 1);
    }

    #[test]
    fn dead_branches_are_pruned() {
        // x in {1, 100}, y in {1, 2}: with x*y <= 4 the x=100 branch vanishes.
        let x = Domain::new(int_values([1, 100]));
        let y = Domain::new(int_values([1, 2]));
        let constraints = vec![GroupConstraint {
            constraint: Arc::new(MaxProduct::new(4.0)),
            scope_positions: vec![0, 1],
            ready_at: 1,
        }];
        let tree = GroupTree::build(vec![0, 1], &[&x, &y], &constraints);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.leaf_count, 2);
    }

    #[test]
    fn unconstrained_single_parameter_tree() {
        let tree = GroupTree::build(vec![5], &[&Domain::new(int_values([1, 2, 3]))], &[]);
        assert_eq!(tree.leaf_count, 3);
        assert_eq!(tree.node_count(), 3);
    }
}
