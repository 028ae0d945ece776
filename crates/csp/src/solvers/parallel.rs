//! Data-parallel all-solutions solver.
//!
//! The search tree is split on the leading variables of the optimized search
//! order: every Cartesian combination of their values induces an independent
//! subproblem, which rayon distributes over worker threads. Splitting on the
//! first variable alone load-balances badly when its domain is small, so the
//! split deepens until there are enough subproblems to keep every core busy
//! (see [`super::split`]). Every subproblem is solved with the same iterative
//! optimized search; each worker collects its code rows in a private
//! `Vec<u32>`, and the solver replays them into the caller's sink in
//! subproblem order. Subproblems share no mutable state, and the split
//! enumerates the leading variables' candidates in the order the
//! sequential search tries them, so the caller receives exactly the
//! sequential solver's rows, in the same order.

use rayon::prelude::*;

use super::optimized::OptimizedSolver;
use super::split::{split_prefixes, split_target};
use super::{OptimizedSolverConfig, Solver};
use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::RowSink;
use crate::stats::SolveStats;

/// Parallel variant of [`OptimizedSolver`] using multi-level domain splitting.
#[derive(Debug, Clone, Default)]
pub struct ParallelSolver {
    config: OptimizedSolverConfig,
}

impl ParallelSolver {
    /// Parallel solver with all optimizations enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parallel solver with an explicit optimization configuration.
    pub fn with_config(config: OptimizedSolverConfig) -> Self {
        ParallelSolver { config }
    }
}

impl Solver for ParallelSolver {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn solve_into(&self, problem: &Problem, sink: &mut dyn RowSink) -> CspResult<SolveStats> {
        let mut stats = SolveStats::default();
        let Some((domains, order, constraints_per_var)) =
            OptimizedSolver::prepare(&self.config, problem, &mut stats)?
        else {
            return Ok(stats);
        };
        let forward_check = self.config.forward_check;
        let prefixes = split_prefixes(&order, |v| domains.domain(v).len(), split_target());
        if prefixes.is_empty() {
            // An empty split domain: the space has no configurations.
            return Ok(stats);
        }

        let domains_ref = &domains;
        let order_ref = &order;
        let constraints_ref = &constraints_per_var;
        let partials: Vec<CspResult<(Vec<u32>, SolveStats)>> = prefixes
            .par_iter()
            .enumerate()
            .map(|(chunk_index, prefix)| {
                let span = at_obs::span("solve-chunk", "solve").arg("chunk", chunk_index as u64);
                // Pin the first `prefix.len()` variables of the search order
                // to one value each; the subsearch explores the rest. The
                // pin is by *index*, not equality: a domain may hold
                // distinct values that compare Python-equal (Int(2) and
                // Float(2.0)), and an equality retain would keep both in
                // every subproblem, duplicating rows vs the sequential run.
                let mut local_domains = domains_ref.clone();
                for (level, &value_index) in prefix.iter().enumerate() {
                    let var = order_ref[level];
                    let mut position = 0usize;
                    local_domains.domain_mut(var).retain(|_| {
                        let keep = position == value_index;
                        position += 1;
                        keep
                    });
                }
                let mut rows: Vec<u32> = Vec::new();
                let mut local_stats = SolveStats::default();
                OptimizedSolver::search(
                    problem,
                    &mut local_domains,
                    order_ref,
                    constraints_ref,
                    forward_check,
                    &mut rows,
                    &mut local_stats,
                )?;
                drop(
                    span.arg("nodes", local_stats.nodes)
                        .arg("solutions", local_stats.solutions),
                );
                Ok((rows, local_stats))
            })
            .collect();

        let width = problem.num_variables();
        for partial in partials {
            let (rows, local_stats) = partial?;
            for row in rows.chunks_exact(width) {
                sink.push_codes(row)?;
            }
            stats.merge(&local_stats);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::{BruteForceSolver, OptimizedSolver};
    use super::*;
    use crate::sink::CountingSink;

    #[test]
    fn matches_sequential_optimized() {
        let p = block_size_problem();
        let seq = OptimizedSolver::new().solve(&p).unwrap();
        let par = ParallelSolver::new().solve(&p).unwrap();
        assert!(seq.solutions.same_solutions(&par.solutions));
    }

    #[test]
    fn matches_brute_force_on_mixed() {
        let p = mixed_problem();
        let bf = BruteForceSolver::new().solve(&p).unwrap();
        let par = ParallelSolver::new().solve(&p).unwrap();
        assert!(bf.solutions.same_solutions(&par.solutions));
    }

    #[test]
    fn unsatisfiable_is_empty() {
        let p = unsatisfiable_problem();
        let r = ParallelSolver::new().solve(&p).unwrap();
        assert!(r.solutions.is_empty());
    }

    #[test]
    fn works_without_forward_checking() {
        let p = mixed_problem();
        let cfg = OptimizedSolverConfig {
            forward_check: false,
            ..Default::default()
        };
        let r = ParallelSolver::with_config(cfg).solve(&p).unwrap();
        assert_eq!(r.solutions.len(), expected_mixed_solutions());
    }

    #[test]
    fn python_equal_duplicate_domain_values_do_not_duplicate_rows() {
        // Int(2) and Float(2.0) compare Python-equal but are distinct domain
        // entries; pinning split variables by *index* must keep exactly one
        // per subproblem, or the parallel solver would return every such row
        // once per equal duplicate.
        use crate::value::{int_values, Value};
        let mut p = Problem::new();
        p.add_variable("x", vec![Value::Int(2), Value::Float(2.0)])
            .unwrap();
        p.add_variable("y", int_values(1..=8)).unwrap();
        let seq = OptimizedSolver::new().solve(&p).unwrap();
        let par = ParallelSolver::new().solve(&p).unwrap();
        assert_eq!(seq.solutions.len(), 16);
        assert_eq!(par.solutions.len(), seq.solutions.len());
    }

    #[test]
    fn arc_consistency_runs_before_the_split() {
        // AC-3 removes 1, 5, 7 and 8 from both domains of x * y == 12.
        use crate::value::int_values;
        let mut p = Problem::new();
        p.add_variable("x", int_values(1..=8)).unwrap();
        p.add_variable("y", int_values(1..=8)).unwrap();
        p.add_function_constraint(&["x", "y"], |v| {
            v[0].as_i64().unwrap() * v[1].as_i64().unwrap() == 12
        })
        .unwrap();
        let cfg = OptimizedSolverConfig {
            arc_consistency: true,
            ..Default::default()
        };
        let seq = OptimizedSolver::with_config(cfg).solve(&p).unwrap();
        let par = ParallelSolver::with_config(cfg).solve(&p).unwrap();
        assert_eq!(seq.stats.preprocess_removed, 8);
        assert_eq!(par.stats.preprocess_removed, 8);
        assert_eq!(seq.solutions.len(), 4);
        assert!(seq.solutions.same_solutions(&par.solutions));
    }

    #[test]
    fn replays_the_sequential_code_rows_in_order() {
        // Equal vectors, not equal sets: the replay must hand the caller
        // the sequential solver's rows in the sequential order.
        use crate::value::{int_values, Value};
        let mut python_equal = Problem::new();
        python_equal
            .add_variable("x", vec![Value::Int(2), Value::Float(2.0)])
            .unwrap();
        python_equal.add_variable("y", int_values(1..=8)).unwrap();
        for p in [block_size_problem(), mixed_problem(), python_equal] {
            let mut sequential: Vec<u32> = Vec::new();
            OptimizedSolver::new()
                .solve_into(&p, &mut sequential)
                .unwrap();
            let mut parallel: Vec<u32> = Vec::new();
            ParallelSolver::new().solve_into(&p, &mut parallel).unwrap();
            assert!(!sequential.is_empty());
            assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn streams_the_same_count_as_collecting() {
        let p = block_size_problem();
        let collected = ParallelSolver::new().solve(&p).unwrap();
        let mut count = CountingSink::default();
        let stats = ParallelSolver::new().solve_into(&p, &mut count).unwrap();
        assert_eq!(count.rows() as usize, collected.solutions.len());
        assert_eq!(stats.solutions, count.rows());
    }
}
