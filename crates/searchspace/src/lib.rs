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
//! * [`SearchSpace`] — the resolved space: a compact columnar,
//!   index-encoded configuration arena with [`ConfigId`] handles,
//!   borrowing [`ConfigView`] decoding, hash lookups, true parameter
//!   bounds, neighbor queries and sampling. Hamming neighbor queries probe
//!   the same membership table as `index_of` (`Σ(|D_p| − 1)` lookups per
//!   query), so no neighbor index is ever built.
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
//! # Removed APIs
//!
//! The decoded-row shims that bridged the pre-columnar representation
//! (`configs()`, `get(i)`, `named(i)`, `value_indices(i)`) were deprecated
//! for two releases and are now **removed** — every consumer works in code
//! space. Their replacements: `space.iter()` / `iter_decoded()` for
//! `configs()`, `space.view(ConfigId::from_index(i))` for `get`/`named`
//! (decode lazily, borrowing), and `space.codes_of(id)` for
//! `value_indices` (`&[u32]`, zero-copy). `index_of` returns a
//! [`ConfigId`]; callers already in code space use `index_of_codes`.
//! Neighbor queries ([`neighbors()`]) and sampling ([`sample_indices`],
//! [`latin_hypercube_sample`]) consume and produce [`ConfigId`]s and
//! operate on encoded rows internally. `neighbors` no longer takes a
//! prebuilt index: Hamming queries probe the membership table, and
//! [`NeighborIndex`] is an empty stand-in whose `build` does nothing.
//!
//! # MIGRATION: collected construction → streaming construction
//!
//! Construction used to materialize the solver output twice: every solver
//! collected a decoded `SolutionSet` (`Vec<Vec<Value>>`) which
//! `from_solutions` then re-encoded into the arena and dropped. The
//! construction path now streams — solvers push rows into a
//! `SolutionSink` (`at_csp::sink`) and [`EncodingSink`] encodes each row
//! straight into the arena; parallel solvers encode per-thread chunks that
//! merge by `Vec<u32>` append, without re-encoding or re-hashing:
//!
//! | old (collected)                                   | new (streaming)                                  |
//! |---------------------------------------------------|--------------------------------------------------|
//! | `solver.solve(&p)?` then `from_solutions(..)`     | `solver.solve_into(&p, &mut EncodingSink)` + `finish()` |
//! | `enumerate_chain(&chain)` then `from_solutions`   | `enumerate_chain_into(&chain, &mut sink)`        |
//! | adopt decoded rows: `from_configs(.., rows)`      | adopt encoded rows: [`SearchSpace::from_code_rows`] |
//!
//! `Solver::solve`, `from_solutions` and `from_configs` all keep working
//! (and `build_search_space` is unchanged for callers — it just streams
//! internally); migrate when construction memory or time matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
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

pub use arena::{ArenaStorage, CodeBacking};
pub use builder::{build_search_space, build_search_space_with, BuildOptions, BuildReport, Method};
pub use format::{spec_from_json, spec_to_json, FormatError, SpecFile};
pub use neighbors::{neighbors, random_neighbor, NeighborIndex, NeighborMethod};
pub use output::{to_columnar, to_csv, to_json_cache, to_named_maps, write_csv, write_json_cache};
pub use param::TunableParameter;
pub use restriction::Restriction;
pub use sampling::{coverage_per_parameter, latin_hypercube_sample, sample_indices};
pub use sink::EncodingSink;
pub use space::{Adoption, ConfigId, ConfigView, SearchSpace, SpaceError, INDEX_HASH_VERSION};
pub use spec::{RestrictionLowering, SearchSpaceSpec};
pub use stats::SpaceCharacteristics;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::arena::ArenaStorage;
    pub use crate::builder::{
        build_search_space, build_search_space_with, BuildOptions, BuildReport, Method,
    };
    pub use crate::neighbors::{neighbors, random_neighbor, NeighborMethod};
    pub use crate::param::TunableParameter;
    pub use crate::restriction::Restriction;
    pub use crate::sampling::{latin_hypercube_sample, sample_indices};
    pub use crate::sink::EncodingSink;
    pub use crate::space::{Adoption, ConfigId, ConfigView, SearchSpace, SpaceError};
    pub use crate::spec::{RestrictionLowering, SearchSpaceSpec};
    pub use crate::stats::SpaceCharacteristics;
    pub use at_csp::Value;
}
