//! Streaming construction: encode solver rows straight into the code arena.
//!
//! [`EncodingSink`] is the bridge between the CSP solvers' streaming output
//! ([`at_csp::sink::SolutionSink`]) and the columnar [`SearchSpace`]
//! representation: every row a solver pushes is immediately encoded to
//! per-parameter `u32` value codes and appended to the arena, so
//! construction never materializes a decoded `Vec<Vec<Value>>` of the space
//! — the peak decoded footprint is one row (plus one chunk per worker
//! thread for the parallel solvers). Every space built from a spec passes
//! through one sink inside
//! [`build_search_space_with`](crate::build_search_space_with); `at_store`
//! persists the finished space afterwards.
//!
//! Parallel solvers request per-thread chunks ([`at_csp::sink::SolutionSink::new_chunk`]);
//! each chunk encodes on its own worker using the shared reverse
//! dictionaries, and merging a finished chunk back is a plain `Vec<u32>`
//! append — no row is ever re-encoded or re-hashed. The membership hash
//! table is built exactly once, over the final arena, in
//! [`EncodingSink::finish`].
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

use std::any::Any;
use std::sync::Arc;

use at_csp::sink::{RowSink, SolutionSink};
use at_csp::{CspError, CspResult, Value};

use crate::param::TunableParameter;
use crate::space::{reverse_dictionaries, CodeLookup, SearchSpace, SpaceError};

/// The one Value → code row encoder: the parameters and their reverse
/// dictionaries. Shared between the sink and its worker chunks, and used
/// by [`SearchSpace::from_configs`] and [`SearchSpace::from_solutions`].
#[derive(Debug)]
pub(crate) struct Encoder {
    pub(crate) params: Vec<TunableParameter>,
    pub(crate) lookups: Vec<CodeLookup>,
}

impl Encoder {
    pub(crate) fn new(params: Vec<TunableParameter>) -> Result<Encoder, SpaceError> {
        let lookups = reverse_dictionaries(&params)?;
        Ok(Encoder { params, lookups })
    }

    /// Encode one decoded row onto the end of `codes`. `row_index` is only
    /// used for error reporting (chunk-local on worker threads).
    pub(crate) fn encode_row(
        &self,
        row: &[Value],
        row_index: usize,
        codes: &mut Vec<u32>,
    ) -> Result<(), SpaceError> {
        if row.len() != self.lookups.len() {
            return Err(SpaceError::RowLength {
                row: row_index,
                expected: self.lookups.len(),
                found: row.len(),
            });
        }
        for (value, (param, lookup)) in row.iter().zip(self.params.iter().zip(self.lookups.iter()))
        {
            match lookup.code_of(value) {
                Some(code) => codes.push(code),
                None => {
                    return Err(SpaceError::UnknownValue {
                        param: param.name().to_string(),
                        value: value.clone(),
                        row: row_index,
                    })
                }
            }
        }
        Ok(())
    }
}

/// Carry a [`SpaceError`] across the solver boundary (solvers speak
/// [`CspError`]).
fn space_err(e: SpaceError) -> CspError {
    CspError::Solver(format!("encoding sink: {e}"))
}

/// A [`SolutionSink`] that maps decoded solver rows straight to `u32` code
/// rows in a [`SearchSpace`] arena. See the [module docs](self).
#[derive(Debug)]
pub struct EncodingSink {
    name: String,
    encoder: Arc<Encoder>,
    codes: Vec<u32>,
    rows: usize,
}

impl EncodingSink {
    /// Create a sink over the given parameters (their value lists become
    /// the per-parameter dictionaries). Rows pushed later must be in
    /// parameter declaration order.
    pub fn new(name: impl Into<String>, params: Vec<TunableParameter>) -> Result<Self, SpaceError> {
        Ok(EncodingSink {
            name: name.into(),
            encoder: Arc::new(Encoder::new(params)?),
            codes: Vec::new(),
            rows: 0,
        })
    }

    /// Number of rows encoded so far (across all merged chunks).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Build the [`SearchSpace`] from the accumulated arena. The membership
    /// hash table is built here, exactly once.
    pub fn finish(self) -> Result<SearchSpace, SpaceError> {
        let EncodingSink {
            name,
            encoder,
            codes,
            rows,
        } = self;
        let _span = at_obs::span("encode-finish", "construct")
            .arg("rows", rows as u64)
            .arg(
                "arena_bytes",
                (codes.len() * std::mem::size_of::<u32>()) as u64,
            );
        // All chunks are merged (and dropped) by now, so this is a move,
        // not a copy, on every normal path.
        let Encoder { params, lookups } =
            Arc::try_unwrap(encoder).unwrap_or_else(|shared| Encoder {
                params: shared.params.clone(),
                lookups: shared.lookups.clone(),
            });
        SearchSpace::from_encoded_parts(name, params, rows, codes.into(), lookups)
    }
}

impl RowSink for EncodingSink {
    fn push_row(&mut self, row: &[Value]) -> CspResult<()> {
        self.encoder
            .encode_row(row, self.rows, &mut self.codes)
            .map_err(space_err)?;
        self.rows += 1;
        Ok(())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl SolutionSink for EncodingSink {
    fn new_chunk(&self) -> Box<dyn RowSink> {
        Box::new(EncodedChunk {
            encoder: Arc::clone(&self.encoder),
            codes: Vec::new(),
            rows: 0,
        })
    }

    fn merge_chunk(&mut self, chunk: Box<dyn RowSink>) -> CspResult<()> {
        let mut chunk = chunk
            .into_any()
            .downcast::<EncodedChunk>()
            .map_err(|_| CspError::Solver("encoding sink: foreign chunk type".into()))?;
        // The chunk is already encoded: adopt its codes verbatim.
        self.codes.append(&mut chunk.codes);
        self.rows += chunk.rows;
        Ok(())
    }
}

/// A per-thread buffer of already-encoded rows, produced by
/// [`EncodingSink::new_chunk`] on worker threads and merged back without
/// re-encoding.
#[derive(Debug)]
struct EncodedChunk {
    encoder: Arc<Encoder>,
    codes: Vec<u32>,
    rows: usize,
}

impl RowSink for EncodedChunk {
    fn push_row(&mut self, row: &[Value]) -> CspResult<()> {
        self.encoder
            .encode_row(row, self.rows, &mut self.codes)
            .map_err(space_err)?;
        self.rows += 1;
        Ok(())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
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
    fn rows_encode_to_the_same_space_as_from_configs() {
        let rows = vec![int_values([1, 1]), int_values([2, 2]), int_values([4, 1])];
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        for row in &rows {
            sink.push_row(row).unwrap();
        }
        assert_eq!(sink.rows(), 3);
        let streamed = sink.finish().unwrap();
        let reference = SearchSpace::from_configs("demo", params(), rows).unwrap();
        assert_eq!(streamed.len(), reference.len());
        for (a, b) in streamed.iter().zip(reference.iter()) {
            assert_eq!(a.codes(), b.codes());
        }
    }

    #[test]
    fn chunks_merge_in_order_without_reencoding() {
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        sink.push_row(&int_values([1, 1])).unwrap();
        let mut chunk_a = sink.new_chunk();
        chunk_a.push_row(&int_values([2, 1])).unwrap();
        chunk_a.push_row(&int_values([2, 2])).unwrap();
        let mut chunk_b = sink.new_chunk();
        chunk_b.push_row(&int_values([4, 1])).unwrap();
        sink.merge_chunk(chunk_a).unwrap();
        sink.merge_chunk(chunk_b).unwrap();
        assert_eq!(sink.rows(), 4);
        let space = sink.finish().unwrap();
        assert_eq!(space.len(), 4);
        let decoded: Vec<Vec<Value>> = space.iter_decoded().collect();
        assert_eq!(
            decoded,
            vec![
                int_values([1, 1]),
                int_values([2, 1]),
                int_values([2, 2]),
                int_values([4, 1]),
            ]
        );
    }

    #[test]
    fn out_of_domain_rows_are_rejected() {
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        let err = sink.push_row(&int_values([3, 1])).unwrap_err();
        assert!(err.to_string().contains("x"), "{err}");
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        let err = sink.push_row(&int_values([1])).unwrap_err();
        assert!(err.to_string().contains("expected 2"), "{err}");
    }

    #[test]
    fn foreign_chunks_are_rejected() {
        let mut sink = EncodingSink::new("demo", params()).unwrap();
        let foreign: Box<dyn RowSink> = Box::new(at_csp::RowChunk::default());
        assert!(sink.merge_chunk(foreign).is_err());
    }

    #[test]
    fn empty_sink_finishes_to_an_empty_space() {
        let sink = EncodingSink::new("empty", params()).unwrap();
        let space = sink.finish().unwrap();
        assert!(space.is_empty());
        assert_eq!(space.num_params(), 2);
    }
}
