//! The *original* (unoptimized) backtracking solver.
//!
//! This reproduces the behaviour of vanilla `python-constraint` before the
//! paper's optimizations: recursive backtracking in variable declaration
//! order, no domain preprocessing, no forward checking and no variable
//! ordering. Constraints are only evaluated once every variable in their
//! scope has been assigned, which is what gives it its roughly
//! one-order-of-magnitude advantage over brute force on sparse spaces
//! (Figure 5C) while still scaling poorly compared to the optimized solver.

use super::Solver;
use crate::assignment::Assignment;
use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::RowSink;
use crate::stats::SolveStats;
use crate::value::Value;

/// Unoptimized recursive backtracking solver (the paper's `original` series).
#[derive(Debug, Clone, Default)]
pub struct OriginalBacktrackingSolver;

impl OriginalBacktrackingSolver {
    /// Create the solver.
    pub fn new() -> Self {
        OriginalBacktrackingSolver
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        problem: &Problem,
        ready_constraints: &[Vec<usize>],
        depth: usize,
        assignment: &mut Assignment,
        scope_buf: &mut Vec<Value>,
        row: &mut [u32],
        sink: &mut dyn RowSink,
        stats: &mut SolveStats,
    ) -> CspResult<()> {
        if depth == problem.num_variables() {
            sink.push_codes(row)?;
            stats.solutions += 1;
            return Ok(());
        }
        let domain = problem.domain(depth);
        for (value, &code) in domain.values().iter().zip(domain.codes()) {
            assignment.assign(depth, value.clone());
            row[depth] = code;
            stats.nodes += 1;
            let mut ok = true;
            for &ci in &ready_constraints[depth] {
                let entry = &problem.constraints()[ci];
                scope_buf.clear();
                for &v in &entry.scope {
                    scope_buf.push(assignment.get(v).expect("scope assigned").clone());
                }
                stats.constraint_checks += 1;
                if !entry.constraint.evaluate(scope_buf) {
                    ok = false;
                    break;
                }
            }
            if ok {
                Self::search(
                    problem,
                    ready_constraints,
                    depth + 1,
                    assignment,
                    scope_buf,
                    row,
                    sink,
                    stats,
                )?;
            } else {
                stats.backtracks += 1;
            }
            assignment.unassign(depth);
        }
        Ok(())
    }
}

impl Solver for OriginalBacktrackingSolver {
    fn name(&self) -> &'static str {
        "original"
    }

    fn solve_into(&self, problem: &Problem, sink: &mut dyn RowSink) -> CspResult<SolveStats> {
        let mut stats = SolveStats::default();
        if problem.num_variables() == 0 {
            return Ok(stats);
        }
        // A constraint becomes checkable exactly when the latest variable of
        // its scope (in declaration order) is assigned.
        let mut ready_constraints: Vec<Vec<usize>> = vec![Vec::new(); problem.num_variables()];
        for (ci, entry) in problem.constraints().iter().enumerate() {
            let last = entry.scope.iter().copied().max().expect("non-empty scope");
            ready_constraints[last].push(ci);
        }
        let mut assignment = Assignment::new(problem.num_variables());
        let mut scope_buf = Vec::new();
        let mut row = vec![0u32; problem.num_variables()];
        Self::search(
            problem,
            &ready_constraints,
            0,
            &mut assignment,
            &mut scope_buf,
            &mut row,
            sink,
            &mut stats,
        )?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::BruteForceSolver;
    use super::*;

    #[test]
    fn matches_brute_force_on_block_size() {
        let p = block_size_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let orig = OriginalBacktrackingSolver::new().solve(&p).unwrap();
        assert!(bf.solutions.same_solutions(&orig.solutions));
    }

    #[test]
    fn matches_brute_force_on_mixed() {
        let p = mixed_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let orig = OriginalBacktrackingSolver::new().solve(&p).unwrap();
        assert!(bf.solutions.same_solutions(&orig.solutions));
    }

    #[test]
    fn does_less_work_than_brute_force_on_sparse_space() {
        let p = unsatisfiable_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let orig = OriginalBacktrackingSolver::new().solve(&p).unwrap();
        assert!(orig.solutions.is_empty());
        assert!(orig.stats.constraint_checks <= bf.stats.constraint_checks);
    }

    #[test]
    fn all_solutions_valid() {
        let p = mixed_problem();
        let r = OriginalBacktrackingSolver::new().solve(&p).unwrap();
        for row in r.solutions.iter() {
            assert!(p.is_valid_configuration(row));
        }
        assert_eq!(r.solutions.len(), expected_mixed_solutions());
    }
}
