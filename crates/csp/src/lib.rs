//! # at-csp — all-solutions constraint satisfaction for auto-tuning
//!
//! This crate is the constraint-solving substrate of the ICPP'25 paper
//! *Efficient Construction of Large Search Spaces for Auto-Tuning*: a finite
//! domain CSP library in the spirit of `python-constraint`, extended with the
//! paper's optimizations — specific constraints with domain preprocessing,
//! an iterative all-solutions backtracking solver with constraint-degree
//! variable ordering and forward checking, a data-parallel solver, and
//! baseline solvers (brute force, unoptimized backtracking, blocking-clause
//! enumeration) used in the paper's evaluation.
//!
//! Solvers produce output two ways: [`Solver::solve_into`] *streams* each
//! solution into a [`sink::RowSink`] the moment it is found, as a row of
//! value codes — each value's index in its variable's declared domain
//! (Section 4.3.4: output close to the internal representation) — and
//! [`Solver::solve`] collects those rows and decodes them once into an
//! owned [`SolutionSet`]. The streaming path is the one `at_searchspace`
//! uses: its encoding sink appends code rows to its columnar arena, and
//! no solver clones a value for output.
//!
//! ## Quick example
//!
//! ```
//! use at_csp::prelude::*;
//!
//! let mut problem = Problem::new();
//! problem.add_variable("block_size_x", int_values([1, 2, 4, 8, 16, 32, 64])).unwrap();
//! problem.add_variable("block_size_y", int_values([1, 2, 4, 8, 16, 32, 64])).unwrap();
//! problem
//!     .add_constraint(MinProduct::new(32.0), &["block_size_x", "block_size_y"])
//!     .unwrap();
//! problem
//!     .add_constraint(MaxProduct::new(1024.0), &["block_size_x", "block_size_y"])
//!     .unwrap();
//!
//! let result = OptimizedSolver::new().solve(&problem).unwrap();
//! assert!(result.solutions.len() > 0);
//! for row in result.solutions.iter() {
//!     assert!(problem.is_valid_configuration(row));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod consistency;
pub mod constraints;
pub mod domain;
pub mod error;
pub mod problem;
pub mod sink;
pub mod solution;
pub mod solvers;
pub mod stats;
pub mod value;

pub use assignment::Assignment;
pub use consistency::{arc_consistency, node_consistency, preprune_domains, ConsistencyReport};
pub use constraints::{
    AllDifferent, AllEqual, AllowedTuples, CmpOp, Constraint, ConstraintRef, Divides, ExactProduct,
    ExactSum, FixedValue, ForbiddenTuples, FunctionConstraint, InSet, MaxProduct, MaxSum,
    MinProduct, MinSum, ModuloEquals, NotInSet, PairCompare, VarCompare,
};
pub use domain::{Domain, DomainStore};
pub use error::{CspError, CspResult};
pub use problem::{ConstraintEntry, Problem, VarId};
pub use sink::{CountingSink, RowSink};
pub use solution::SolutionSet;
pub use solvers::{
    solver_by_name, BlockingClauseSolver, BruteForceSolver, OptimizedSolver, OptimizedSolverConfig,
    OriginalBacktrackingSolver, ParallelSolver, SolveResult, Solver,
};
pub use stats::{expected_brute_force_evaluations, SolveStats};
pub use value::Value;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::constraints::{
        AllDifferent, AllEqual, AllowedTuples, CmpOp, Constraint, Divides, ExactProduct, ExactSum,
        FixedValue, ForbiddenTuples, FunctionConstraint, InSet, MaxProduct, MaxSum, MinProduct,
        MinSum, ModuloEquals, NotInSet, PairCompare, VarCompare,
    };
    pub use crate::problem::Problem;
    pub use crate::solution::SolutionSet;
    pub use crate::solvers::{
        BlockingClauseSolver, BruteForceSolver, OptimizedSolver, OptimizedSolverConfig,
        OriginalBacktrackingSolver, ParallelSolver, SolveResult, Solver,
    };
    pub use crate::value::{int_values, pow2_values, Value};
}
