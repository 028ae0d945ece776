//! Brute-force search space construction.
//!
//! Iterates the full Cartesian product of all domains and filters out
//! combinations that violate a constraint — the baseline every auto-tuning
//! framework falls back to in the absence of something smarter.

use super::{SolveStats, Solver};
use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::SolutionSink;
use crate::value::Value;

/// Exhaustive enumeration of the Cartesian product with post-hoc filtering.
#[derive(Debug, Clone, Default)]
pub struct BruteForceSolver;

impl BruteForceSolver {
    /// Sequential brute force (the paper's `brute-force` series).
    pub fn new() -> Self {
        BruteForceSolver
    }
}

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn solve_into(&self, problem: &Problem, sink: &mut dyn SolutionSink) -> CspResult<SolveStats> {
        // Odometer enumeration over every variable.
        let mut stats = SolveStats::default();
        let num_vars = problem.num_variables();
        let domains: Vec<&[Value]> = (0..num_vars).map(|v| problem.domain(v).values()).collect();
        if num_vars == 0 || domains.iter().any(|d| d.is_empty()) {
            return Ok(stats);
        }
        let mut indices = vec![0usize; num_vars];
        let mut values: Vec<Value> = Vec::with_capacity(num_vars);
        let mut scope_buf: Vec<Value> = Vec::new();
        loop {
            values.clear();
            for (i, &idx) in indices.iter().enumerate() {
                values.push(domains[i][idx].clone());
            }
            stats.nodes += 1;
            let mut ok = true;
            for entry in problem.constraints() {
                scope_buf.clear();
                scope_buf.extend(entry.scope.iter().map(|&v| values[v].clone()));
                stats.constraint_checks += 1;
                if !entry.constraint.evaluate(&scope_buf) {
                    ok = false;
                    break;
                }
            }
            if ok {
                sink.push_row(&values)?;
                stats.solutions += 1;
            }
            // advance odometer
            let mut pos = indices.len();
            loop {
                if pos == 0 {
                    return Ok(stats);
                }
                pos -= 1;
                indices[pos] += 1;
                if indices[pos] < domains[pos].len() {
                    break;
                }
                indices[pos] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::*;

    #[test]
    fn block_size_count_matches_reference() {
        let p = block_size_problem();
        let r = BruteForceSolver::new().solve(&p).unwrap();
        assert_eq!(r.solutions.len(), expected_block_size_solutions());
        assert_eq!(r.stats.solutions as usize, r.solutions.len());
        assert_eq!(r.stats.nodes, p.cartesian_size() as u64);
    }

    #[test]
    fn mixed_problem_count() {
        let p = mixed_problem();
        let r = BruteForceSolver::new().solve(&p).unwrap();
        assert_eq!(r.solutions.len(), expected_mixed_solutions());
    }

    #[test]
    fn unsatisfiable_yields_empty() {
        let p = unsatisfiable_problem();
        let r = BruteForceSolver::new().solve(&p).unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn every_reported_solution_is_valid() {
        let p = mixed_problem();
        let r = BruteForceSolver::new().solve(&p).unwrap();
        for row in r.solutions.iter() {
            assert!(p.is_valid_configuration(row));
        }
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new();
        let r = BruteForceSolver::new().solve(&p).unwrap();
        assert!(r.solutions.is_empty());
    }
}
