//! # at-searchspace — constrained auto-tuning search spaces
//!
//! The core crate of this reproduction: it ties the constraint expression
//! pipeline (`at-expr`), the CSP solvers (`at-csp`) and the chain-of-trees
//! baseline (`at-cot`) together behind the `SearchSpace` abstraction the
//! paper contributes to Kernel Tuner (Section 4.4).
//!
//! * [`SearchSpaceSpec`] — tunable parameters + restrictions, as the user
//!   writes them (expression strings, closures, or specific constraints).
//! * [`Method`] / [`build_search_space`] — construct the space with any of
//!   the paper's construction methods and obtain a [`BuildReport`] with
//!   timing and solver statistics.
//! * [`SearchSpace`] — the resolved space: one strictly ascending `u64`
//!   rank per configuration (its mixed-radix index in the Cartesian
//!   product), with [`ConfigId`] handles, lazily decoding [`ConfigView`]s,
//!   binary-search lookups, true parameter bounds, neighbor queries and
//!   sampling. Hamming neighbor queries are rank arithmetic plus one
//!   lookup per candidate (`Σ(|D_p| − 1)` lookups per query), so no
//!   neighbor index is ever built.
//!
//! ```
//! use at_searchspace::prelude::*;
//!
//! let spec = SearchSpaceSpec::new("quickstart")
//!     .with_param(TunableParameter::pow2("block_size_x", 8))
//!     .with_param(TunableParameter::pow2("block_size_y", 6))
//!     .with_expr("32 <= block_size_x*block_size_y <= 1024");
//!
//! let (space, report) = build_search_space(&spec, Method::Optimized).unwrap();
//! assert!(space.len() > 0);
//! assert_eq!(report.num_valid, space.len());
//!
//! // Configurations are addressed by id and decoded lazily.
//! let id = space.ids().next().unwrap();
//! let view = space.view(id).unwrap();
//! assert_eq!(space.index_of(&view.to_vec()), Some(id));
//! ```
//!
//! # The code contract
//!
//! A *code* is the index of a value in its parameter's value list — the
//! parameter's dictionary. A rank numbers a row of codes, and construction
//! produces the codes directly:
//!
//! * [`SearchSpaceSpec::to_problem`] declares variable `i` with parameter
//!   `i`'s value list, in order, so a value's declared-domain index in the
//!   problem is its dictionary code. Pre-pruning
//!   ([`SearchSpaceSpec::to_problem_with`]) removes values from the live
//!   domains but not from the declared ones, so codes do not change.
//! * Every solver, and the chain-of-trees walk, pushes each solution into an
//!   [`at_csp::sink::RowSink`] as those codes, in declaration order; an
//!   [`EncodingSink`] checks each code against its dictionary (a bad one
//!   is [`SpaceError::CodeOutOfRange`]) and appends the row's rank, and
//!   [`EncodingSink::finish`] sorts the ranks only when a method did not
//!   emit them in canonical order. So all six construction methods yield
//!   the same ranks, and a [`ConfigId`] does not depend on the method.
//! * Values appear only at the edges: [`SearchSpace::from_configs`] and
//!   [`SearchSpace::from_solutions`] encode decoded rows through the
//!   reverse dictionaries, as `index_of` does, and [`ConfigView`] and the
//!   exports decode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod format;
pub mod neighbors;
pub mod output;
pub mod param;
pub mod restriction;
pub mod sampling;
pub mod sink;
pub mod space;
pub mod spec;
pub mod stats;
pub mod storage;

pub use builder::{build_search_space, build_search_space_with, BuildOptions, BuildReport, Method};
pub use format::{spec_from_json, spec_to_json, FormatError, SpecFile};
pub use neighbors::{neighbors, random_neighbor, NeighborIndex, NeighborMethod};
pub use output::{to_csv, to_json_cache, write_csv, write_json_cache};
pub use param::TunableParameter;
pub use restriction::Restriction;
pub use sampling::{coverage_per_parameter, latin_hypercube_sample, sample_indices};
pub use sink::EncodingSink;
pub use space::{ConfigId, ConfigView, RankCheck, SearchSpace, SpaceError};
pub use spec::{RestrictionLowering, SearchSpaceSpec};
pub use stats::SpaceCharacteristics;
pub use storage::{RankBacking, RankStorage};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::builder::{
        build_search_space, build_search_space_with, BuildOptions, BuildReport, Method,
    };
    pub use crate::neighbors::{neighbors, random_neighbor, NeighborMethod};
    pub use crate::param::TunableParameter;
    pub use crate::restriction::Restriction;
    pub use crate::sampling::{latin_hypercube_sample, sample_indices};
    pub use crate::sink::EncodingSink;
    pub use crate::space::{ConfigId, ConfigView, SearchSpace, SpaceError};
    pub use crate::spec::{RestrictionLowering, SearchSpaceSpec};
    pub use crate::stats::SpaceCharacteristics;
    pub use crate::storage::RankStorage;
    pub use at_csp::Value;
}
