//! # at-cot — chain-of-trees search space construction
//!
//! An independent Rust implementation of the *chain-of-trees* method of
//! Rasch et al. (ATF), the state-of-the-art baseline the paper compares
//! against. Parameters are grouped by constraint interdependence; each group
//! is represented by a tree whose root-to-leaf paths are the valid value
//! combinations of that group; the trees are linked into a chain whose
//! cross product is the constrained search space.
//!
//! The implementation supports counting, full enumeration, O(depth) indexed
//! access, unbiased index-based sampling and the naive (biased) per-level
//! path sampling discussed in Section 4.4 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod chain;
pub mod grouping;
pub mod tree;

pub use builder::{build_chain_from_problem, enumerate_chain, enumerate_chain_into};
pub use chain::ChainOfTrees;
pub use grouping::{group_parameters, UnionFind};
pub use tree::{GroupConstraint, GroupTree, TreeNode};
