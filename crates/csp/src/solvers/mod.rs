//! All-solutions solvers.
//!
//! The paper's evaluation compares five construction methods; each has a
//! counterpart here:
//!
//! | Paper series | Solver |
//! |---|---|
//! | `brute-force` | [`BruteForceSolver`] |
//! | `original` (unoptimized python-constraint) | [`OriginalBacktrackingSolver`] |
//! | `optimized` (this work) | [`OptimizedSolver`] |
//! | ATF / pyATF (chain-of-trees) | the `at-cot` crate |
//! | PySMT + Z3 (one solution at a time) | [`BlockingClauseSolver`] |
//!
//! In addition, [`ParallelSolver`] extends the optimized solver with
//! domain-splitting data parallelism over rayon worker threads.

use crate::error::CspResult;
use crate::problem::Problem;
use crate::sink::RowSink;
use crate::solution::SolutionSet;
use crate::stats::SolveStats;

mod blocking_clause;
mod brute_force;
mod optimized;
mod original;
mod parallel;
mod split;

pub use blocking_clause::BlockingClauseSolver;
pub use brute_force::BruteForceSolver;
pub use optimized::{OptimizedSolver, OptimizedSolverConfig};
pub use original::OriginalBacktrackingSolver;
pub use parallel::ParallelSolver;

/// The outcome of solving a problem for all solutions.
#[derive(Debug, Clone, Default)]
pub struct SolveResult {
    /// All valid configurations.
    pub solutions: SolutionSet,
    /// Counters describing the work the solver performed.
    pub stats: SolveStats,
}

/// An all-solutions constraint solver.
///
/// Implementations provide the streaming `solve_into`; the collecting
/// `solve` is derived from it.
pub trait Solver: Send + Sync {
    /// Short name used in reports (e.g. `"optimized"`).
    fn name(&self) -> &'static str;

    /// Enumerate every valid configuration of `problem` into an owned
    /// [`SolutionSet`]: the code rows of [`Solver::solve_into`], decoded
    /// once through the problem's declared domains.
    fn solve(&self, problem: &Problem) -> CspResult<SolveResult> {
        let mut codes: Vec<u32> = Vec::new();
        let stats = self.solve_into(problem, &mut codes)?;
        Ok(SolveResult {
            solutions: problem.decode_rows(&codes),
            stats,
        })
    }

    /// Enumerate every valid configuration of `problem`, pushing each one
    /// into `sink` the moment it is found, as the codes of its values in
    /// variable declaration order (see [`crate::sink`]). The built-in
    /// solvers never materialize the solutions themselves.
    fn solve_into(&self, problem: &Problem, sink: &mut dyn RowSink) -> CspResult<SolveStats>;
}

/// Construct one of the built-in solvers by paper series name.
/// Recognised names: `brute-force`, `original`, `optimized`, `parallel`,
/// `blocking-clause`.
pub fn solver_by_name(name: &str) -> Option<Box<dyn Solver>> {
    match name {
        "brute-force" | "bruteforce" => Some(Box::new(BruteForceSolver::new())),
        "original" => Some(Box::new(OriginalBacktrackingSolver::new())),
        "optimized" => Some(Box::new(OptimizedSolver::new())),
        "parallel" => Some(Box::new(ParallelSolver::new())),
        "blocking-clause" | "smt" => Some(Box::new(BlockingClauseSolver::new())),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared problem fixtures for solver tests.
    use crate::constraints::{AllDifferent, MaxProduct, MaxSum, MinProduct};
    use crate::problem::Problem;
    use crate::value::int_values;

    /// The Listing 3 block-size problem; 37 x 6 Cartesian, both product
    /// constraints. The reference solution count is computed by direct
    /// enumeration in `expected_block_size_solutions`.
    pub fn block_size_problem() -> Problem {
        let mut p = Problem::new();
        let mut xs: Vec<i64> = vec![1, 2, 4, 8, 16];
        xs.extend((1..=32).map(|i| 32 * i));
        p.add_variable("block_size_x", int_values(xs)).unwrap();
        p.add_variable("block_size_y", int_values((0..6).map(|i| 1 << i)))
            .unwrap();
        p.add_constraint(MinProduct::new(32.0), &["block_size_x", "block_size_y"])
            .unwrap();
        p.add_constraint(MaxProduct::new(1024.0), &["block_size_x", "block_size_y"])
            .unwrap();
        p
    }

    /// Independent reference count for [`block_size_problem`].
    pub fn expected_block_size_solutions() -> usize {
        let mut xs: Vec<i64> = vec![1, 2, 4, 8, 16];
        xs.extend((1..=32).map(|i| 32 * i));
        let ys: Vec<i64> = (0..6).map(|i| 1 << i).collect();
        let mut count = 0;
        for &x in &xs {
            for &y in &ys {
                if x * y >= 32 && x * y <= 1024 {
                    count += 1;
                }
            }
        }
        count
    }

    /// A small problem mixing constraint kinds, with string values.
    pub fn mixed_problem() -> Problem {
        let mut p = Problem::new();
        p.add_variable("a", int_values([1, 2, 3, 4])).unwrap();
        p.add_variable("b", int_values([1, 2, 3, 4])).unwrap();
        p.add_variable("c", int_values([0, 1])).unwrap();
        p.add_constraint(MaxSum::new(6.0), &["a", "b"]).unwrap();
        p.add_constraint(AllDifferent::new(), &["a", "b"]).unwrap();
        p.add_function_constraint(&["a", "b", "c"], |v| {
            // when c == 1 require a*b to be even
            if v[2].as_i64().unwrap() == 1 {
                (v[0].as_i64().unwrap() * v[1].as_i64().unwrap()) % 2 == 0
            } else {
                true
            }
        })
        .unwrap();
        p
    }

    /// Reference count for [`mixed_problem`] by direct enumeration.
    pub fn expected_mixed_solutions() -> usize {
        let mut count = 0;
        for a in 1..=4i64 {
            for b in 1..=4i64 {
                for c in 0..=1i64 {
                    if a + b <= 6 && a != b && (c == 0 || (a * b) % 2 == 0) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// A problem with zero solutions.
    pub fn unsatisfiable_problem() -> Problem {
        let mut p = Problem::new();
        p.add_variable("x", int_values([1, 2, 3])).unwrap();
        p.add_variable("y", int_values([1, 2, 3])).unwrap();
        p.add_constraint(MinProduct::new(100.0), &["x", "y"])
            .unwrap();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_by_name_resolves() {
        for name in [
            "brute-force",
            "original",
            "optimized",
            "parallel",
            "blocking-clause",
        ] {
            assert!(solver_by_name(name).is_some(), "{name}");
        }
        assert!(solver_by_name("nope").is_none());
    }
}
