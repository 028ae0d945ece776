//! Streaming solution output: push code rows into a sink as they are found.
//!
//! The paper stresses that solver output formats must stay "close to the
//! internal representation" to scale to millions of configurations
//! (Section 4.3.4). A solver already knows each assigned value by its
//! *code* — its index in the variable's declared domain
//! ([`Domain::declared`](crate::Domain::declared)) — so it pushes every
//! solution as one row of codes, the moment it is found, and never clones a
//! [`Value`](crate::Value) for output. For a problem lowered from a search
//! space specification the codes are exactly the parameters' dictionary
//! codes, so `at_searchspace`'s encoding sink appends rows to its arena
//! as they come.
//!
//! [`RowSink`] has one method, [`RowSink::push_codes`]. A sink may abort
//! enumeration by returning an error from it; solvers propagate it
//! immediately. A `Vec<u32>` is a sink that appends every row, which is
//! what the parallel solver's workers fill and what
//! [`Solver::solve`](crate::Solver::solve) decodes into a
//! [`SolutionSet`](crate::SolutionSet).
//!
//! ```
//! use at_csp::prelude::*;
//! use at_csp::sink::CountingSink;
//!
//! let mut problem = Problem::new();
//! problem.add_variable("x", int_values([1, 2, 3, 4])).unwrap();
//! problem.add_variable("y", int_values([1, 2, 3, 4])).unwrap();
//! problem.add_constraint(MaxProduct::new(4.0), &["x", "y"]).unwrap();
//!
//! // Count solutions without materializing any of them.
//! let mut count = CountingSink::default();
//! let stats = OptimizedSolver::new().solve_into(&problem, &mut count).unwrap();
//! assert_eq!(count.rows(), stats.solutions);
//!
//! // Or collect the code rows: (1,1) (1,2) (1,3) (1,4) (2,1) (2,2) …
//! let mut codes: Vec<u32> = Vec::new();
//! OriginalBacktrackingSolver::new().solve_into(&problem, &mut codes).unwrap();
//! assert_eq!(&codes[..4], &[0, 0, 0, 1]);
//! ```

use crate::error::CspResult;

/// The streaming receiver of solver output.
///
/// `codes` holds one valid configuration as the codes of its values, in
/// **variable declaration order**; the code of a value is its index in the
/// variable's declared domain. The slice is only valid for the duration of
/// the call — implementations copy what they keep.
pub trait RowSink: Send {
    /// Receive one solution row. Returning an error aborts the enumeration;
    /// the solver propagates it unchanged.
    fn push_codes(&mut self, codes: &[u32]) -> CspResult<()>;
}

/// Appends every row: the flat row-major arena of all pushed code rows.
impl RowSink for Vec<u32> {
    fn push_codes(&mut self, codes: &[u32]) -> CspResult<()> {
        self.extend_from_slice(codes);
        Ok(())
    }
}

/// A sink that counts rows and stores nothing — useful for cardinality
/// queries and for tests that only care about solution counts.
#[derive(Debug, Default)]
pub struct CountingSink {
    rows: u64,
}

impl CountingSink {
    /// Number of rows pushed so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }
}

impl RowSink for CountingSink {
    fn push_codes(&mut self, _codes: &[u32]) -> CspResult<()> {
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CspError;
    use crate::problem::Problem;
    use crate::solvers::{
        BlockingClauseSolver, BruteForceSolver, OptimizedSolver, OriginalBacktrackingSolver,
        ParallelSolver, Solver,
    };
    use crate::value::int_values;

    /// Accepts `after` rows, then fails every push.
    struct FailingSink {
        after: u64,
        seen: u64,
    }

    impl RowSink for FailingSink {
        fn push_codes(&mut self, _codes: &[u32]) -> CspResult<()> {
            self.seen += 1;
            if self.seen > self.after {
                return Err(CspError::Solver("sink full".into()));
            }
            Ok(())
        }
    }

    /// A 4 × 4 × 4 problem whose every row is a solution: 64 rows, enough
    /// for the parallel solver to split into several subproblems.
    fn open_problem() -> Problem {
        let mut p = Problem::new();
        for name in ["a", "b", "c"] {
            p.add_variable(name, int_values([1, 2, 3, 4])).unwrap();
        }
        p.add_function_constraint(&["a", "b"], |_| true).unwrap();
        p
    }

    #[test]
    fn vec_sink_appends_rows_and_counting_sink_counts() {
        let mut codes: Vec<u32> = Vec::new();
        codes.push_codes(&[1, 2]).unwrap();
        codes.push_codes(&[3, 0]).unwrap();
        assert_eq!(codes, vec![1, 2, 3, 0]);
        let mut count = CountingSink::default();
        count.push_codes(&[1, 2]).unwrap();
        assert_eq!(count.rows(), 1);
    }

    #[test]
    fn sink_errors_propagate_from_solvers() {
        let p = open_problem();
        let solvers: [Box<dyn Solver>; 5] = [
            Box::new(BruteForceSolver::new()),
            Box::new(OriginalBacktrackingSolver::new()),
            Box::new(OptimizedSolver::new()),
            Box::new(ParallelSolver::new()),
            Box::new(BlockingClauseSolver::new()),
        ];
        for solver in &solvers {
            let mut sink = FailingSink { after: 2, seen: 0 };
            let err = solver.solve_into(&p, &mut sink);
            assert!(
                err.is_err(),
                "{}: push_codes errors must abort enumeration",
                solver.name()
            );
            // The parallel solver has found every row by then; the error
            // comes out of its in-order replay, which stops just the same.
            assert_eq!(
                sink.seen,
                3,
                "{}: enumeration stops at the failing row",
                solver.name()
            );
        }
    }
}
