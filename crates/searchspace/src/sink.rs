//! Streaming construction: rank each solver row as it is pushed.
//!
//! [`EncodingSink`] is the bridge between the CSP solvers' streaming output
//! ([`at_csp::sink::RowSink`]) and the [`SearchSpace`] representation. A
//! solver pushes each solution as the codes of its values — their indices
//! in the variables' declared domains — and for a problem lowered from a
//! [`SearchSpaceSpec`](crate::SearchSpaceSpec) those are exactly the
//! parameters' dictionary codes, because
//! [`SearchSpaceSpec::to_problem`](crate::SearchSpaceSpec::to_problem)
//! declares each variable with its parameter's value list, in order. So the
//! sink checks each code against its dictionary (a bad one is
//! [`SpaceError::CodeOutOfRange`]) and appends the row's `u64` rank:
//! construction decodes nothing, holds 8 bytes per row, and never
//! materializes a `Vec<Vec<Value>>` of the space. Every space built from a
//! spec passes through one sink inside
//! [`build_search_space_with`](crate::build_search_space_with); `at_store`
//! persists the finished space afterwards.
//!
//! [`EncodingSink::new`] computes the rank strides, so a Cartesian product
//! above `u64::MAX` is [`SpaceError::TooLarge`] before any solve.
//! [`EncodingSink::finish`] checks whether the ranks ascend, as they do for
//! a method that emits the canonical row order, and sorts them only when
//! they do not; a row pushed twice is [`SpaceError::DuplicateRow`]. So
//! every method yields the same space, byte for byte.
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
use crate::space::{canonicalize, rank_strides, SearchSpace, SpaceError};

/// A [`RowSink`] that ranks solver code rows into a [`SearchSpace`].
/// See the [module docs](self).
#[derive(Debug)]
pub struct EncodingSink {
    name: String,
    params: Vec<TunableParameter>,
    strides: Vec<u64>,
    ranks: Vec<u64>,
    /// Whether every pushed rank was above its predecessor.
    ascending: bool,
}

impl EncodingSink {
    /// Create a sink over the given parameters (their value lists are the
    /// per-parameter dictionaries the pushed codes index). Rows pushed later
    /// must be in parameter declaration order. Fails with
    /// [`SpaceError::TooLarge`] when the parameters' Cartesian product
    /// does not fit a `u64` rank.
    pub fn new(name: impl Into<String>, params: Vec<TunableParameter>) -> Result<Self, SpaceError> {
        let (strides, _) = rank_strides(&params)?;
        Ok(EncodingSink {
            name: name.into(),
            params,
            strides,
            ranks: Vec::new(),
            ascending: true,
        })
    }

    /// Number of rows pushed so far.
    pub fn rows(&self) -> usize {
        self.ranks.len()
    }

    /// Build the [`SearchSpace`] from the pushed ranks: sorted only when a
    /// method did not emit them in canonical order, and rejected as
    /// [`SpaceError::DuplicateRow`] when a row was pushed twice.
    pub fn finish(self) -> Result<SearchSpace, SpaceError> {
        let EncodingSink {
            name,
            params,
            strides,
            mut ranks,
            ascending,
        } = self;
        let span = at_obs::span("encode-finish", "construct")
            .arg("rows", ranks.len() as u64)
            .arg(
                "arena_bytes",
                (ranks.len() * std::mem::size_of::<u64>()) as u64,
            );
        let sorted = canonicalize(&mut ranks, ascending, &strides, &params)?;
        drop(span.arg("sorted", u64::from(sorted)));
        SearchSpace::from_canonical_ranks(name, params, ranks, strides)
    }
}

impl RowSink for EncodingSink {
    fn push_codes(&mut self, codes: &[u32]) -> CspResult<()> {
        let row = self.ranks.len();
        if codes.len() != self.params.len() {
            let error = SpaceError::RowLength {
                row,
                expected: self.params.len(),
                found: codes.len(),
            };
            return Err(CspError::Solver(format!("encoding sink: {error}")));
        }
        let mut rank = 0u64;
        for ((&code, &stride), param) in codes.iter().zip(&self.strides).zip(&self.params) {
            if code as usize >= param.len() {
                let error = SpaceError::CodeOutOfRange {
                    param: param.name().to_string(),
                    code,
                    row,
                };
                return Err(CspError::Solver(format!("encoding sink: {error}")));
            }
            rank += u64::from(code) * stride;
        }
        if let Some(&last) = self.ranks.last() {
            self.ascending &= rank > last;
        }
        self.ranks.push(rank);
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
        assert_eq!(streamed.arena(), [0, 3, 4]);
    }

    #[test]
    fn rows_out_of_canonical_order_are_sorted_at_finish() {
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        for row in [[2, 0], [0, 0], [1, 1]] {
            sink.push_codes(&row).unwrap();
        }
        assert_eq!(sink.finish().unwrap().arena(), [0, 3, 4]);
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
    fn out_of_range_codes_are_rejected_when_pushed() {
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        sink.push_codes(&[0, 0]).unwrap();
        let err = sink.push_codes(&[3, 1]).unwrap_err().to_string();
        let expected = SpaceError::CodeOutOfRange {
            param: "x".to_string(),
            code: 3,
            row: 1,
        };
        assert!(err.contains(&expected.to_string()), "{err}");
        assert_eq!(sink.rows(), 1);
    }

    #[test]
    fn a_row_pushed_twice_fails_at_finish() {
        for rows in [[[0, 1], [0, 1], [2, 0]], [[2, 0], [0, 1], [2, 0]]] {
            let mut sink = EncodingSink::new("demo", params()).unwrap();
            for row in &rows {
                sink.push_codes(row).unwrap();
            }
            let err = sink.finish().unwrap_err();
            assert!(matches!(err, SpaceError::DuplicateRow { .. }), "{err}");
        }
    }

    #[test]
    fn a_cartesian_product_beyond_u64_fails_before_any_row() {
        let params: Vec<TunableParameter> = (0..17)
            .map(|i| TunableParameter::ints(format!("p{i}"), 0..16))
            .collect();
        let err = EncodingSink::new("huge", params).unwrap_err();
        assert!(matches!(err, SpaceError::TooLarge { .. }), "{err}");
    }

    #[test]
    fn empty_sink_finishes_to_an_empty_space() {
        let sink = EncodingSink::new("empty", params()).unwrap();
        let space = sink.finish().unwrap();
        assert!(space.is_empty());
        assert_eq!(space.num_params(), 2);
    }
}
