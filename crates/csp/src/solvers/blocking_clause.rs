//! One-solution-at-a-time enumeration with blocking clauses.
//!
//! SAT/SMT solvers such as Z3 return a *single* model; to enumerate a search
//! space they must be re-invoked with the previous model excluded (a
//! *blocking clause*) until the problem becomes unsatisfiable (Section 4.1).
//! This solver reproduces that usage pattern faithfully — including its poor
//! scaling in the number of valid configurations (Figure 4): every iteration
//! restarts the search from scratch and must skip all previously found
//! solutions.

use std::collections::HashSet;

use super::Solver;
use crate::assignment::Assignment;
use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::RowSink;
use crate::stats::SolveStats;
use crate::value::Value;

/// Enumerates solutions one at a time, excluding each found solution with a
/// blocking clause and re-solving, like a SAT/SMT solver would.
#[derive(Debug, Clone, Default)]
pub struct BlockingClauseSolver {
    /// Optional safety cap on the number of solutions to enumerate.
    max_solutions: Option<usize>,
}

impl BlockingClauseSolver {
    /// Enumerate all solutions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enumerate at most `max_solutions` solutions (useful to bound the
    /// quadratic blow-up on large spaces).
    pub fn with_max_solutions(max_solutions: usize) -> Self {
        BlockingClauseSolver {
            max_solutions: Some(max_solutions),
        }
    }

    /// Find the first solution not contained in `blocked`, restarting the
    /// search from the root (as an SMT solver re-invocation would).
    ///
    /// Solutions are identified by their *code row* (the declared-domain
    /// index of each assigned value), not by the values themselves:
    /// value-based keys conflate distinct domain entries that compare equal
    /// — rendered display strings collide for `Int(1)` vs `Str("1")`, and
    /// Python-style value equality collides for `Int(2)` vs `Float(2.0)` —
    /// silently dropping the later solution and returning fewer rows than
    /// every other solver. Code rows are unambiguous.
    ///
    /// Returns `true` when a solution was found; `path` then holds its code
    /// row (the caller pushes it and inserts it into `blocked`). On failure
    /// `path` is restored.
    #[allow(clippy::too_many_arguments)]
    fn find_one(
        problem: &Problem,
        ready_constraints: &[Vec<usize>],
        blocked: &HashSet<Vec<u32>>,
        depth: usize,
        assignment: &mut Assignment,
        path: &mut Vec<u32>,
        stats: &mut SolveStats,
    ) -> bool {
        if depth == problem.num_variables() {
            // The blocking clauses are additional constraints in the re-solved
            // problem; count their evaluation as one check.
            stats.constraint_checks += 1;
            return !blocked.contains(path);
        }
        let domain = problem.domain(depth);
        let mut scope_buf: Vec<Value> = Vec::new();
        for (value, &code) in domain.values().iter().zip(domain.codes()) {
            assignment.assign(depth, value.clone());
            path.push(code);
            stats.nodes += 1;
            let mut ok = true;
            for &ci in &ready_constraints[depth] {
                let entry = &problem.constraints()[ci];
                scope_buf.clear();
                for &v in &entry.scope {
                    scope_buf.push(assignment.get(v).expect("assigned").clone());
                }
                stats.constraint_checks += 1;
                if !entry.constraint.evaluate(&scope_buf) {
                    ok = false;
                    break;
                }
            }
            if ok {
                if Self::find_one(
                    problem,
                    ready_constraints,
                    blocked,
                    depth + 1,
                    assignment,
                    path,
                    stats,
                ) {
                    // Leave `path` intact: it is the found code row.
                    assignment.unassign(depth);
                    return true;
                }
            } else {
                stats.backtracks += 1;
            }
            path.pop();
            assignment.unassign(depth);
        }
        false
    }
}

impl Solver for BlockingClauseSolver {
    fn name(&self) -> &'static str {
        "blocking-clause"
    }

    fn solve_into(&self, problem: &Problem, sink: &mut dyn RowSink) -> CspResult<SolveStats> {
        let mut stats = SolveStats::default();
        if problem.num_variables() == 0 {
            return Ok(stats);
        }
        let mut ready_constraints: Vec<Vec<usize>> = vec![Vec::new(); problem.num_variables()];
        for (ci, entry) in problem.constraints().iter().enumerate() {
            let last = entry.scope.iter().copied().max().expect("non-empty scope");
            ready_constraints[last].push(ci);
        }
        let mut blocked: HashSet<Vec<u32>> = HashSet::new();
        let mut path: Vec<u32> = Vec::with_capacity(problem.num_variables());
        loop {
            if let Some(cap) = self.max_solutions {
                if blocked.len() >= cap {
                    break;
                }
            }
            let mut assignment = Assignment::new(problem.num_variables());
            path.clear();
            if !Self::find_one(
                problem,
                &ready_constraints,
                &blocked,
                0,
                &mut assignment,
                &mut path,
                &mut stats,
            ) {
                break;
            }
            sink.push_codes(&path)?;
            stats.solutions += 1;
            blocked.insert(path.clone());
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::{BruteForceSolver, OptimizedSolver};
    use super::*;

    #[test]
    fn matches_brute_force_on_mixed() {
        let p = mixed_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let bc = BlockingClauseSolver::new().solve(&p).unwrap();
        assert!(bf.solutions.same_solutions(&bc.solutions));
    }

    #[test]
    fn matches_optimized_on_block_size() {
        let p = block_size_problem();
        let opt = OptimizedSolver::new().solve(&p).unwrap();
        let bc = BlockingClauseSolver::new().solve(&p).unwrap();
        assert!(opt.solutions.same_solutions(&bc.solutions));
    }

    #[test]
    fn respects_max_solutions() {
        let p = block_size_problem();
        let bc = BlockingClauseSolver::with_max_solutions(5)
            .solve(&p)
            .unwrap();
        assert_eq!(bc.solutions.len(), 5);
    }

    #[test]
    fn does_far_more_work_than_a_single_enumeration() {
        // The re-solving pattern must visit many more nodes than the original
        // single-pass backtracking enumeration.
        let p = mixed_problem();
        let orig = super::super::OriginalBacktrackingSolver::new()
            .solve(&p)
            .unwrap();
        let bc = BlockingClauseSolver::new().solve(&p).unwrap();
        assert!(bc.stats.nodes > orig.stats.nodes);
    }

    #[test]
    fn unsatisfiable_is_empty() {
        let p = unsatisfiable_problem();
        let r = BlockingClauseSolver::new().solve(&p).unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn solutions_with_identical_display_forms_are_not_conflated() {
        // Int(1) and Str("1") both render as "1": with display-string
        // blocking keys the second solution was treated as already blocked
        // and silently dropped from the enumeration.
        use crate::value::Value;
        let mut p = Problem::new();
        p.add_variable("x", vec![Value::Int(1), Value::str("1")])
            .unwrap();
        p.add_variable("y", vec![Value::Int(7)]).unwrap();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let bc = BlockingClauseSolver::new().solve(&p).unwrap();
        assert_eq!(bf.solutions.len(), 2);
        assert_eq!(bc.solutions.len(), 2);
        assert!(bf.solutions.same_solutions(&bc.solutions));
    }

    #[test]
    fn python_equal_duplicate_domain_values_are_not_conflated() {
        // Int(2) and Float(2.0) are distinct domain entries that compare
        // Python-equal; index-path blocking keys must enumerate both, like
        // every other solver does.
        use crate::value::{int_values, Value};
        let mut p = Problem::new();
        p.add_variable("x", vec![Value::Int(2), Value::Float(2.0)])
            .unwrap();
        p.add_variable("y", int_values(1..=8)).unwrap();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let bc = BlockingClauseSolver::new().solve(&p).unwrap();
        assert_eq!(bf.solutions.len(), 16);
        assert_eq!(bc.solutions.len(), 16);
    }
}
