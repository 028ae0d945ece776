//! End-to-end chain-of-trees construction from a generic space specification.

use at_csp::sink::RowSink;
use at_csp::{CspResult, Problem, SolutionSet};

use crate::chain::ChainOfTrees;
use crate::grouping::group_parameters;
use crate::tree::{GroupConstraint, GroupTree};

/// Build a chain of trees for an [`at_csp::Problem`]: group its variables by
/// constraint interdependence and build one tree per group over the
/// variables' current domains. The nodes carry the domains' codes, so a
/// pre-pruned problem still emits the codes of its declared domains.
pub fn build_chain_from_problem(problem: &Problem) -> ChainOfTrees {
    let scopes: Vec<Vec<usize>> = problem
        .constraints()
        .iter()
        .map(|e| e.scope.clone())
        .collect();
    let groups = group_parameters(problem.num_variables(), &scopes);
    let mut trees = Vec::with_capacity(groups.len());
    for group in groups {
        // position of each global parameter inside the group
        let pos_of = |param: usize| group.iter().position(|&p| p == param);
        let group_domains: Vec<_> = group.iter().map(|&p| problem.domain(p)).collect();
        let mut group_constraints = Vec::new();
        for entry in problem.constraints() {
            let positions: Option<Vec<usize>> = entry.scope.iter().map(|&p| pos_of(p)).collect();
            if let Some(scope_positions) = positions {
                let ready_at = scope_positions.iter().copied().max().unwrap_or(0);
                group_constraints.push(GroupConstraint {
                    constraint: entry.constraint.clone(),
                    scope_positions,
                    ready_at,
                });
            }
        }
        trees.push(GroupTree::build(
            group.clone(),
            &group_domains,
            &group_constraints,
        ));
    }
    ChainOfTrees::new(problem.variable_names().to_vec(), trees)
}

/// Enumerate a chain into the same dense [`SolutionSet`] format the CSP
/// solvers produce.
pub fn enumerate_chain(chain: &ChainOfTrees) -> SolutionSet {
    SolutionSet::from_rows(chain.names().to_vec(), chain.enumerate())
}

/// Stream every configuration of a chain into a [`RowSink`] as a code row
/// in declaration order — the chain-of-trees counterpart of
/// [`at_csp::Solver::solve_into`](at_csp::Solver): no intermediate of the
/// whole space is ever allocated.
pub fn enumerate_chain_into(chain: &ChainOfTrees, sink: &mut dyn RowSink) -> CspResult<()> {
    chain.for_each_code_row(|row| sink.push_codes(row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::prelude::*;
    use at_csp::value::int_values;

    fn block_size_problem() -> Problem {
        let mut p = Problem::new();
        let mut xs: Vec<i64> = vec![1, 2, 4, 8, 16];
        xs.extend((1..=32).map(|i| 32 * i));
        p.add_variable("block_size_x", int_values(xs)).unwrap();
        p.add_variable("block_size_y", int_values((0..6).map(|i| 1 << i)))
            .unwrap();
        p.add_variable("unroll", int_values([1, 2, 4])).unwrap();
        p.add_constraint(MinProduct::new(32.0), &["block_size_x", "block_size_y"])
            .unwrap();
        p.add_constraint(MaxProduct::new(1024.0), &["block_size_x", "block_size_y"])
            .unwrap();
        p
    }

    #[test]
    fn chain_matches_csp_solver_on_block_size_problem() {
        let p = block_size_problem();
        let chain = build_chain_from_problem(&p);
        // two groups: {block_size_x, block_size_y} and {unroll}
        assert_eq!(chain.trees().len(), 2);
        let from_chain = enumerate_chain(&chain);
        let from_solver = OptimizedSolver::new().solve(&p).unwrap();
        assert_eq!(from_chain.len() as u128, chain.size());
        assert!(from_solver.solutions.same_solutions(&from_chain));
    }

    #[test]
    fn streamed_codes_decode_to_the_collected_rows() {
        let p = block_size_problem();
        let chain = build_chain_from_problem(&p);
        let collected = enumerate_chain(&chain);
        let mut codes: Vec<u32> = Vec::new();
        enumerate_chain_into(&chain, &mut codes).unwrap();
        assert_eq!(p.decode_rows(&codes).rows(), collected.rows());
    }

    #[test]
    fn a_pruned_problem_streams_the_declared_codes() {
        // b >= 2 prunes b = 1, and with it a = 5..=8 (a * b <= 8).
        let mut p = Problem::new();
        p.add_variable("a", int_values(1..=8)).unwrap();
        p.add_variable("b", int_values(1..=8)).unwrap();
        p.add_variable("c", int_values([1, 2, 3])).unwrap();
        p.add_constraint(MaxProduct::new(8.0), &["a", "b"]).unwrap();
        p.add_function_constraint(&["b"], |v| v[0].as_i64().unwrap() >= 2)
            .unwrap();
        let mut pruned = p.clone();
        let report = at_csp::preprune_domains(&mut pruned).unwrap();
        assert_eq!(report.removed, 5, "the fixture must prune");
        let mut plain: Vec<u32> = Vec::new();
        enumerate_chain_into(&build_chain_from_problem(&p), &mut plain).unwrap();
        let mut from_pruned: Vec<u32> = Vec::new();
        enumerate_chain_into(&build_chain_from_problem(&pruned), &mut from_pruned).unwrap();
        assert_eq!(from_pruned, plain);
    }

    #[test]
    fn sink_errors_stop_the_walk_at_the_failing_row() {
        struct FailingSink {
            seen: u64,
        }
        impl RowSink for FailingSink {
            fn push_codes(&mut self, _codes: &[u32]) -> CspResult<()> {
                self.seen += 1;
                if self.seen > 2 {
                    return Err(at_csp::CspError::Solver("sink full".into()));
                }
                Ok(())
            }
        }
        let chain = build_chain_from_problem(&block_size_problem());
        let mut sink = FailingSink { seen: 0 };
        assert!(enumerate_chain_into(&chain, &mut sink).is_err());
        assert_eq!(sink.seen, 3);
    }

    #[test]
    fn chain_handles_function_constraints() {
        let mut p = Problem::new();
        p.add_variable("a", int_values([1, 2, 3, 4])).unwrap();
        p.add_variable("b", int_values([1, 2, 3, 4])).unwrap();
        p.add_function_constraint(&["a", "b"], |v| {
            v[0].as_i64().unwrap() % v[1].as_i64().unwrap() == 0
        })
        .unwrap();
        let chain = build_chain_from_problem(&p);
        let from_chain = enumerate_chain(&chain);
        let reference = BruteForceSolver::new().solve(&p).unwrap();
        assert!(reference.solutions.same_solutions(&from_chain));
    }

    #[test]
    fn independent_parameters_are_singleton_trees() {
        let mut p = Problem::new();
        p.add_variable("a", int_values([1, 2])).unwrap();
        p.add_variable("b", int_values([1, 2, 3])).unwrap();
        let chain = build_chain_from_problem(&p);
        assert_eq!(chain.trees().len(), 2);
        assert_eq!(chain.size(), 6);
    }

    #[test]
    fn chain_reuse_reduces_memory_vs_flat_enumeration() {
        // With 3 chained parameters under a loose constraint, the chain's node
        // count must stay below the number of flat configuration cells.
        let mut p = Problem::new();
        p.add_variable("a", int_values(1..=8)).unwrap();
        p.add_variable("b", int_values(1..=8)).unwrap();
        p.add_variable("c", int_values(1..=8)).unwrap();
        p.add_constraint(MaxSum::new(18.0), &["a", "b", "c"])
            .unwrap();
        let chain = build_chain_from_problem(&p);
        let flat_cells = enumerate_chain(&chain).len() * 3;
        assert!(chain.node_count() < flat_cells);
    }
}
