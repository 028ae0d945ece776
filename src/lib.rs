//! # autotuning-searchspaces
//!
//! A from-scratch Rust reproduction of *Efficient Construction of Large
//! Search Spaces for Auto-Tuning* (ICPP 2025): constraint-based auto-tuning
//! search spaces constructed through an optimized all-solutions CSP solver,
//! together with every substrate the paper relies on — the constraint
//! expression pipeline, the chain-of-trees baseline, the resolved
//! `SearchSpace` abstraction, a minimal auto-tuner with simulated kernels,
//! and the evaluation workloads.
//!
//! This umbrella crate re-exports the workspace members; see the individual
//! crates for the full APIs:
//!
//! * [`csp`] — finite-domain CSP model and the all-solutions solvers,
//! * [`expr`] — the Python-style constraint expression parser/compiler,
//! * [`cot`] — the chain-of-trees construction baseline,
//! * [`searchspace`] — specifications, construction methods and the resolved
//!   search space representation,
//! * [`obs`] — the observability layer: span/event tracing across the
//!   construct → store → tune pipeline, Chrome trace export, and the
//!   counting-allocator peak-memory probe,
//! * [`store`] — `ATSS` binary persistence and the content-addressed
//!   construction cache (solve once, serve forever),
//! * [`daemon`] — the resident space-server (`atssd`): one daemon owns
//!   the store, dedupes concurrent builds (single-flight), and hands
//!   clients validated paths to mmap in O(header),
//! * [`tuner`] — budgeted tuning strategies over simulated kernels,
//! * [`workloads`] — the paper's synthetic and real-world evaluation spaces.
//!
//! ```
//! use autotuning_searchspaces::prelude::*;
//!
//! let spec = SearchSpaceSpec::new("hotspot-mini")
//!     .with_param(TunableParameter::pow2("block_size_x", 8))
//!     .with_param(TunableParameter::pow2("block_size_y", 6))
//!     .with_expr("32 <= block_size_x*block_size_y <= 1024");
//! let (space, report) = build_search_space(&spec, Method::Optimized).unwrap();
//! println!("{} valid configurations in {:?}", space.len(), report.duration);
//! ```
//!
//! ## Construction methods are interchangeable
//!
//! Every [`searchspace::Method`] resolves a [`searchspace::SearchSpaceSpec`]
//! to the same set of valid configurations — only construction time differs
//! (the paper's central comparison):
//!
//! ```
//! use autotuning_searchspaces::prelude::*;
//!
//! let spec = SearchSpaceSpec::new("methods-agree")
//!     .with_param(TunableParameter::ints("x", 1..=8))
//!     .with_param(TunableParameter::ints("y", 1..=8))
//!     .with_expr("x * y <= 16")
//!     .with_expr("x + y >= 4");
//!
//! let (optimized, _) = build_search_space(&spec, Method::Optimized).unwrap();
//! let (brute, _) = build_search_space(&spec, Method::BruteForce).unwrap();
//! let (chain, _) = build_search_space(&spec, Method::ChainOfTrees).unwrap();
//! assert_eq!(optimized.len(), brute.len());
//! assert_eq!(optimized.len(), chain.len());
//! assert!(optimized.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use at_check as check;
pub use at_cot as cot;
pub use at_csp as csp;
pub use at_daemon as daemon;
pub use at_expr as expr;
pub use at_obs as obs;
pub use at_searchspace as searchspace;
pub use at_store as store;
pub use at_tuner as tuner;
pub use at_workloads as workloads;

/// The most commonly used items across the workspace.
///
/// Besides the search-space layer shown in the crate example, the prelude
/// exposes the underlying CSP machinery, so the all-solutions solvers can be
/// driven directly (Section 4.3 of the paper):
///
/// ```
/// use autotuning_searchspaces::prelude::*;
///
/// let mut problem = Problem::new();
/// problem.add_variable("x", int_values([1, 2, 3, 4, 5, 6])).unwrap();
/// problem.add_variable("y", int_values([1, 2, 3, 4, 5, 6])).unwrap();
/// problem.add_constraint(MaxProduct::new(12.0), &["x", "y"]).unwrap();
///
/// let optimized = OptimizedSolver::new().solve(&problem).unwrap();
/// let brute = BruteForceSolver::new().solve(&problem).unwrap();
/// assert!(optimized.solutions.same_solutions(&brute.solutions));
/// for row in optimized.solutions.iter() {
///     assert!(row[0].as_i64().unwrap() * row[1].as_i64().unwrap() <= 12);
/// }
/// ```
pub mod prelude {
    pub use at_csp::prelude::*;
    pub use at_searchspace::prelude::*;
    pub use at_store::{LoadOptions, SpaceStore, SpecFingerprint};
    pub use at_tuner::{
        tune, tune_with_backend, tune_with_options, EvalBackend, EvalOptions, Measurement,
        PerformanceModel, RandomSampling, Strategy, SyntheticKernel,
    };
}
