//! Streaming construction: append solver code rows straight to the arena.
//!
//! [`EncodingSink`] is the bridge between the CSP solvers' streaming output
//! ([`at_csp::sink::RowSink`]) and the columnar [`SearchSpace`]
//! representation. A solver pushes each solution as the codes of its
//! values — their indices in the variables' declared domains — and for a
//! problem lowered from a [`SearchSpaceSpec`](crate::SearchSpaceSpec) those
//! are exactly the parameters' dictionary codes, because
//! [`SearchSpaceSpec::to_problem`](crate::SearchSpaceSpec::to_problem)
//! declares each variable with its parameter's value list, in order. So the
//! sink appends every row to the arena as it comes: construction decodes
//! and re-encodes nothing, and never materializes a `Vec<Vec<Value>>` of
//! the space. Every space built from a spec passes through one sink inside
//! [`build_search_space_with`](crate::build_search_space_with); `at_store`
//! persists the finished space afterwards.
//!
//! [`EncodingSink::finish`] adopts the arena through
//! [`SearchSpace::from_code_rows`], whose one bounds-checking pass turns a
//! code outside its parameter's dictionary into
//! [`SpaceError::CodeOutOfRange`], and builds the membership hash table
//! exactly once.
//!
//! ```
//! use at_csp::prelude::*;
//! use at_searchspace::{EncodingSink, TunableParameter};
//!
//! let mut problem = Problem::new();
//! problem.add_variable("x", int_values([1, 2, 4])).unwrap();
//! problem.add_variable("y", int_values([1, 2, 4])).unwrap();
//! problem.add_constraint(MaxProduct::new(4.0), &["x", "y"]).unwrap();
//!
//! let params = vec![
//!     TunableParameter::ints("x", [1, 2, 4]),
//!     TunableParameter::ints("y", [1, 2, 4]),
//! ];
//! let mut sink = EncodingSink::new("demo", params).unwrap();
//! let stats = OptimizedSolver::new().solve_into(&problem, &mut sink).unwrap();
//! let space = sink.finish().unwrap();
//! assert_eq!(space.len() as u64, stats.solutions);
//! ```

use at_csp::sink::RowSink;
use at_csp::{CspError, CspResult};

use crate::param::TunableParameter;
use crate::space::{SearchSpace, SpaceError};

/// A [`RowSink`] that appends solver code rows to a [`SearchSpace`] arena.
/// See the [module docs](self).
#[derive(Debug)]
pub struct EncodingSink {
    name: String,
    params: Vec<TunableParameter>,
    codes: Vec<u32>,
    rows: usize,
}

impl EncodingSink {
    /// Create a sink over the given parameters (their value lists are the
    /// per-parameter dictionaries the pushed codes index). Rows pushed later
    /// must be in parameter declaration order. Codes are checked against the
    /// dictionaries in [`EncodingSink::finish`], so creation does not fail.
    pub fn new(name: impl Into<String>, params: Vec<TunableParameter>) -> Result<Self, SpaceError> {
        Ok(EncodingSink {
            name: name.into(),
            params,
            codes: Vec::new(),
            rows: 0,
        })
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Build the [`SearchSpace`] from the accumulated arena: one
    /// bounds-checking pass over the codes, then the membership hash table,
    /// built here exactly once.
    pub fn finish(self) -> Result<SearchSpace, SpaceError> {
        let EncodingSink {
            name,
            params,
            codes,
            rows,
        } = self;
        let _span = at_obs::span("encode-finish", "construct")
            .arg("rows", rows as u64)
            .arg(
                "arena_bytes",
                (codes.len() * std::mem::size_of::<u32>()) as u64,
            );
        SearchSpace::from_code_rows(name, params, rows, codes)
    }
}

impl RowSink for EncodingSink {
    fn push_codes(&mut self, codes: &[u32]) -> CspResult<()> {
        if codes.len() != self.params.len() {
            let error = SpaceError::RowLength {
                row: self.rows,
                expected: self.params.len(),
                found: codes.len(),
            };
            return Err(CspError::Solver(format!("encoding sink: {error}")));
        }
        self.codes.extend_from_slice(codes);
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::value::int_values;

    fn params() -> Vec<TunableParameter> {
        vec![
            TunableParameter::ints("x", [1, 2, 4]),
            TunableParameter::ints("y", [1, 2]),
        ]
    }

    #[test]
    fn pushed_codes_equal_from_configs_of_the_decoded_rows() {
        let rows: [[u32; 2]; 3] = [[0, 0], [1, 1], [2, 0]];
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        for row in &rows {
            sink.push_codes(row).unwrap();
        }
        assert_eq!(sink.rows(), 3);
        let streamed = sink.finish().unwrap();
        let decoded = vec![int_values([1, 1]), int_values([2, 2]), int_values([4, 1])];
        let reference = SearchSpace::from_configs("demo", params(), decoded).unwrap();
        assert_eq!(streamed.arena(), reference.arena());
        assert_eq!(streamed.arena(), rows.concat());
    }

    #[test]
    fn rows_of_the_wrong_length_are_rejected() {
        for row in [&[0u32][..], &[0, 0, 0][..]] {
            let mut sink = EncodingSink::new("demo", params()).unwrap();
            let err = sink.push_codes(row).unwrap_err().to_string();
            let expected = format!("expected 2 values, found {}", row.len());
            assert!(err.contains(&expected), "{err}");
            assert_eq!(sink.rows(), 0);
        }
    }

    #[test]
    fn out_of_range_codes_fail_at_finish() {
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        sink.push_codes(&[0, 0]).unwrap();
        sink.push_codes(&[3, 1]).unwrap();
        match sink.finish() {
            Err(SpaceError::CodeOutOfRange { param, code, row }) => {
                assert_eq!((param.as_str(), code, row), ("x", 3, 1));
            }
            other => panic!("expected CodeOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn empty_sink_finishes_to_an_empty_space() {
        let sink = EncodingSink::new("empty", params()).unwrap();
        let space = sink.finish().unwrap();
        assert!(space.is_empty());
        assert_eq!(space.num_params(), 2);
    }
}
