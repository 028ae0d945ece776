//! The fully resolved search space representation.
//!
//! After construction, optimization algorithms need efficient access to the
//! valid configurations: indexed access for sampling, lookups to test
//! membership and find a configuration's id, the *true* parameter bounds
//! (which constraints may have shrunk relative to the declared domains), and
//! neighbor queries. This mirrors Kernel Tuner's `SearchSpace` class
//! (Section 4.4 of the paper).
//!
//! # Representation: one sorted rank per configuration
//!
//! Each parameter's distinct values live once in its [`TunableParameter`]
//! (the per-parameter dictionary), and a configuration is a row of value
//! *codes*, one per parameter. The space stores each row as its **rank**:
//! its mixed-radix index in the Cartesian product, last parameter fastest.
//! Parameter `p` has stride `stride_p = Π_{q>p} |D_q|`, and a row's rank is
//! `Σ_p code_p · stride_p`.
//!
//! * The ranks are kept **strictly ascending**, which is lexicographic
//!   order over codes in declaration order — the *canonical* row order. A
//!   [`ConfigId`] is a position in that order, so it does not depend on
//!   the construction method that produced the space.
//! * Membership and id lookup compute the rank and binary-search for it.
//! * A code is `(rank / stride_p) % |D_p|`: [`ConfigView`] decodes lazily,
//!   and no decoded code can ever leave its dictionary, whatever the ranks.
//! * A Hamming neighbor that changes parameter `p` from `c` to `c'` is
//!   `rank + (c' − c) · stride_p`, so neighbor probes copy no row.
//!
//! A space costs 8 bytes per configuration plus the dictionaries. A
//! Cartesian product above `u64::MAX` is rejected up front as
//! [`SpaceError::TooLarge`]; a space is a set, so a repeated row is
//! [`SpaceError::DuplicateRow`].

use std::fmt;

use at_csp::{SolutionSet, Value};
use rustc_hash::FxHashMap;

use crate::param::TunableParameter;
use crate::storage::RankStorage;

/// Identifier of a configuration within one [`SearchSpace`].
///
/// A `ConfigId` is a typed index into the space's rank array: ids are dense
/// (`0..space.len()`), follow the canonical row order, and are stable for
/// the lifetime of the space they came from. They are intentionally cheap
/// (`u32`) so optimizers can store populations, neighbor lists and
/// evaluation caches as plain id collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigId(u32);

impl ConfigId {
    /// Create an id from a raw dense index (`0..space.len()`).
    ///
    /// Indices beyond `u32::MAX` saturate to an id that is never valid for
    /// any space (spaces are capped below `u32::MAX` configurations), so an
    /// out-of-range index can only ever produce `None` lookups — never alias
    /// a real configuration.
    pub fn from_index(index: usize) -> ConfigId {
        ConfigId(u32::try_from(index).unwrap_or(u32::MAX))
    }

    /// The raw dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors raised while building a [`SearchSpace`] from raw configurations.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// A configuration row referenced a value that is not part of the
    /// corresponding parameter's declared value list.
    UnknownValue {
        /// The parameter whose domain does not contain the value.
        param: String,
        /// The offending value.
        value: Value,
        /// The index of the offending configuration row.
        row: usize,
    },
    /// A configuration row has the wrong number of values.
    RowLength {
        /// The index of the offending configuration row.
        row: usize,
        /// The expected row length (the number of parameters).
        expected: usize,
        /// The actual row length.
        found: usize,
    },
    /// The space does not fit its encoding: more configurations or values
    /// than `u32` ids and codes address, or a Cartesian product above
    /// `u64::MAX`, which ranks cannot number.
    TooLarge {
        /// What overflowed (configurations, parameter values, or the
        /// Cartesian product).
        what: &'static str,
        /// The overflowing count (saturated at `u128::MAX`).
        count: u128,
        /// The largest count the encoding allows.
        limit: u128,
    },
    /// A pre-encoded configuration row referenced a value code outside the
    /// corresponding parameter's dictionary.
    CodeOutOfRange {
        /// The parameter whose dictionary is too small for the code.
        param: String,
        /// The offending value code.
        code: u32,
        /// The index of the offending configuration row.
        row: usize,
    },
    /// A pre-encoded arena's length is not a whole number of rows.
    RaggedArena {
        /// The arena length handed in.
        len: usize,
        /// The expected length (`rows × params`).
        expected: usize,
    },
    /// A configuration occurs more than once. A space is a set: a solver
    /// that emits a row twice is at fault, and so is a stored rank array
    /// that repeats a rank.
    DuplicateRow {
        /// The codes of the repeated configuration.
        codes: Vec<u32>,
    },
    /// A stored rank array is not in ascending order.
    UnsortedRanks {
        /// The position of the first rank below its predecessor.
        row: usize,
    },
    /// A stored rank is at least the Cartesian size, so it numbers no
    /// configuration.
    RankOutOfRange {
        /// The position of the offending rank.
        row: usize,
        /// The offending rank.
        rank: u64,
        /// The Cartesian size every rank must stay below.
        cartesian: u64,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::UnknownValue { param, value, row } => write!(
                f,
                "configuration {row}: value {value} is not in the domain of parameter `{param}`"
            ),
            SpaceError::RowLength {
                row,
                expected,
                found,
            } => write!(
                f,
                "configuration {row}: expected {expected} values, found {found}"
            ),
            SpaceError::TooLarge { what, count, limit } => {
                write!(f, "{what} ({count}) exceeds the encoding limit of {limit}")
            }
            SpaceError::CodeOutOfRange { param, code, row } => write!(
                f,
                "configuration {row}: code {code} is out of range for parameter `{param}`"
            ),
            SpaceError::RaggedArena { len, expected } => write!(
                f,
                "encoded arena holds {len} codes where {expected} were expected"
            ),
            SpaceError::DuplicateRow { codes } => {
                write!(
                    f,
                    "the configuration with codes {codes:?} occurs more than once"
                )
            }
            SpaceError::UnsortedRanks { row } => {
                write!(f, "rank {row} is below its predecessor")
            }
            SpaceError::RankOutOfRange {
                row,
                rank,
                cartesian,
            } => write!(
                f,
                "rank {row} ({rank}) is not below the Cartesian size {cartesian}"
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

/// Sentinel for an integer with no code in a dense reverse dictionary.
const NO_CODE: u32 = u32::MAX;

/// Per-parameter reverse dictionary: value → code.
///
/// Encoding a value row is the hot prefix of every `contains`/`index_of`
/// call, so integer-like domains (the overwhelming majority in auto-tuning)
/// bypass `Value` hashing entirely: a compact domain uses an O(1) dense
/// table, a wide one (e.g. powers of two) a binary search over sorted keys.
/// Keys are `Value::as_i64` to preserve the dictionary's Python-style
/// cross-type equality (`Int(2) == Float(2.0) == Bool`-as-int), matching
/// `Value`'s own `Eq`/`Hash`.
#[derive(Debug, Clone)]
pub(crate) enum CodeLookup {
    /// All-integer-like dictionary with a compact range: `table[v - min]`
    /// holds the code, or [`NO_CODE`] for integers not in the dictionary.
    IntDense { min: i64, table: Box<[u32]> },
    /// All-integer-like dictionary with a wide range: binary search.
    IntSorted(Box<[(i64, u32)]>),
    /// Mixed, float or string dictionaries: hash map.
    Map(FxHashMap<Value, u32>),
}

impl CodeLookup {
    /// Build the lookup for one parameter's value dictionary.
    fn build(values: &[Value]) -> CodeLookup {
        let ints: Option<Vec<i64>> = values.iter().map(|v| v.as_i64()).collect();
        let ints = match ints {
            // `TunableParameter` deduplicates by `py_eq`, so keys are unique.
            Some(ints) if !ints.is_empty() => ints,
            _ => {
                return CodeLookup::Map(
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v.clone(), i as u32))
                        .collect(),
                )
            }
        };
        let min = *ints.iter().min().expect("non-empty");
        let max = *ints.iter().max().expect("non-empty");
        let range = max.abs_diff(min);
        // A dense table costs 4 bytes per slot in [min, max]; accept it while
        // it stays within a small constant factor of the dictionary itself.
        if range <= (4 * values.len() as u64).max(256) {
            let mut table = vec![NO_CODE; range as usize + 1].into_boxed_slice();
            for (code, &i) in ints.iter().enumerate() {
                table[(i - min) as usize] = code as u32;
            }
            CodeLookup::IntDense { min, table }
        } else {
            let mut entries: Vec<(i64, u32)> = ints
                .into_iter()
                .enumerate()
                .map(|(code, i)| (i, code as u32))
                .collect();
            entries.sort_unstable_by_key(|&(i, _)| i);
            CodeLookup::IntSorted(entries.into_boxed_slice())
        }
    }

    /// The code of a value, if it is in the dictionary.
    #[inline]
    pub(crate) fn code_of(&self, value: &Value) -> Option<u32> {
        match self {
            CodeLookup::IntDense { min, table } => {
                let i = value.as_i64()?;
                let offset = usize::try_from(i.checked_sub(*min)?).ok()?;
                let code = *table.get(offset)?;
                (code != NO_CODE).then_some(code)
            }
            CodeLookup::IntSorted(entries) => {
                let i = value.as_i64()?;
                entries
                    .binary_search_by_key(&i, |&(key, _)| key)
                    .ok()
                    .map(|pos| entries[pos].1)
            }
            CodeLookup::Map(map) => map.get(value).copied(),
        }
    }
}

/// How much of a stored rank array [`SearchSpace::from_rank_storage`]
/// checks before serving it.
///
/// Either way the space is memory-safe: a lookup is a binary search, which
/// is memory-safe over any `u64`s, and decoding takes a modulo, so no
/// decoded code can leave its dictionary. Ranks that are unsorted or out
/// of range can only make lookups answer wrongly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankCheck {
    /// One pass: the ranks must strictly ascend and stay below the
    /// Cartesian size ([`SpaceError::UnsortedRanks`],
    /// [`SpaceError::DuplicateRow`], [`SpaceError::RankOutOfRange`]).
    Verify,
    /// O(1) shape checks only — the trusted zero-copy load, where an O(rows)
    /// walk would defeat the O(header) goal and the file carries a checksum
    /// for explicit verification instead.
    Trust,
}

/// The mixed-radix strides of `params` (`stride_p = Π_{q>p} |D_q|`) and
/// the Cartesian size `Π_p |D_p|`, or [`SpaceError::TooLarge`] when that
/// product does not fit a `u64` rank.
pub(crate) fn rank_strides(params: &[TunableParameter]) -> Result<(Vec<u64>, u64), SpaceError> {
    let mut strides = vec![0u64; params.len()];
    let mut size: u64 = 1;
    for (stride, param) in strides.iter_mut().zip(params).rev() {
        *stride = size;
        size = size
            .checked_mul(param.len() as u64)
            .ok_or_else(|| SpaceError::TooLarge {
                what: "Cartesian product",
                count: params
                    .iter()
                    .fold(1u128, |a, p| a.saturating_mul(p.len() as u128)),
                limit: u64::MAX as u128,
            })?;
    }
    Ok((strides, size))
}

/// Reject a space with `rows` configurations when its ids would not fit.
fn check_row_count(rows: usize) -> Result<(), SpaceError> {
    if rows >= u32::MAX as usize {
        return Err(SpaceError::TooLarge {
            what: "number of configurations",
            count: rows as u128,
            limit: u32::MAX as u128 - 1,
        });
    }
    Ok(())
}

/// Put `ranks` into canonical order: sort them unless `ascending` says they
/// already strictly ascend, then reject a repeated row. Returns whether a
/// sort ran.
pub(crate) fn canonicalize(
    ranks: &mut [u64],
    ascending: bool,
    strides: &[u64],
    params: &[TunableParameter],
) -> Result<bool, SpaceError> {
    if ascending {
        return Ok(false);
    }
    ranks.sort_unstable();
    if let Some(pair) = ranks.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(SpaceError::DuplicateRow {
            codes: decode_rank(pair[0], strides, params),
        });
    }
    Ok(true)
}

/// Whether `ranks` strictly ascend.
pub(crate) fn strictly_ascending(ranks: &[u64]) -> bool {
    ranks.windows(2).all(|pair| pair[0] < pair[1])
}

/// The codes of the row with rank `rank`.
fn decode_rank(rank: u64, strides: &[u64], params: &[TunableParameter]) -> Vec<u32> {
    strides
        .iter()
        .zip(params)
        .map(|(&stride, p)| ((rank / stride) % p.len() as u64) as u32)
        .collect()
}

/// A fully resolved, indexed search space.
///
/// See the [module documentation](self) for the representation. The memory
/// footprint is 8 bytes per configuration (its rank) plus the
/// per-parameter value dictionaries — independent of how many parameters a
/// configuration has and how many times each value occurs.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    name: String,
    params: Vec<TunableParameter>,
    /// One strictly ascending rank per configuration. Owned for in-process
    /// construction, or a borrowed view into a shared backing (a
    /// memory-mapped store file) for zero-copy loads.
    ranks: RankStorage,
    /// `strides[p] = Π_{q>p} |D_q|`.
    strides: Vec<u64>,
    /// Per-parameter reverse dictionaries: value → code.
    value_codes: Vec<CodeLookup>,
}

impl SearchSpace {
    /// Build the representation from the solver output.
    ///
    /// The solution columns must be in parameter declaration order (which is
    /// how [`crate::build_search_space`] lowers specifications). Rows may
    /// come in any order; the space holds them in canonical order.
    pub fn from_solutions(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        solutions: &SolutionSet,
    ) -> Result<Self, SpaceError> {
        Self::from_value_rows(name, params, solutions.len(), solutions.iter())
    }

    /// Build the representation from raw configuration rows (declaration
    /// order, rows in any order). Returns [`SpaceError::UnknownValue`] when
    /// a row contains a value outside its parameter's declared value list —
    /// silently encoding such a row would corrupt every code-based
    /// operation downstream — and [`SpaceError::DuplicateRow`] when a row
    /// occurs twice.
    pub fn from_configs(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        configs: Vec<Vec<Value>>,
    ) -> Result<Self, SpaceError> {
        let len = configs.len();
        Self::from_value_rows(name, params, len, configs.iter().map(|r| r.as_slice()))
    }

    fn from_value_rows<'v>(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        num_configs: usize,
        rows: impl Iterator<Item = &'v [Value]>,
    ) -> Result<Self, SpaceError> {
        check_row_count(num_configs)?;
        let lookups = reverse_dictionaries(&params)?;
        let (strides, _) = rank_strides(&params)?;
        let mut ranks: Vec<u64> = Vec::with_capacity(num_configs);
        for (row_index, row) in rows.enumerate() {
            if row.len() != params.len() {
                return Err(SpaceError::RowLength {
                    row: row_index,
                    expected: params.len(),
                    found: row.len(),
                });
            }
            let mut rank = 0u64;
            for ((value, stride), (param, lookup)) in
                row.iter().zip(&strides).zip(params.iter().zip(&lookups))
            {
                let code = lookup
                    .code_of(value)
                    .ok_or_else(|| SpaceError::UnknownValue {
                        param: param.name().to_string(),
                        value: value.clone(),
                        row: row_index,
                    })?;
                rank += u64::from(code) * stride;
            }
            ranks.push(rank);
        }
        let ascending = strictly_ascending(&ranks);
        canonicalize(&mut ranks, ascending, &strides, &params)?;
        Ok(Self::from_parts(
            name.into(),
            params,
            ranks.into(),
            strides,
            lookups,
        ))
    }

    /// Adopt pre-encoded configuration rows: `codes` is a flat arena of
    /// `num_rows × params.len()` per-parameter value codes in row-major,
    /// declaration order, rows in any order.
    ///
    /// Each code is bounds-checked against its dictionary
    /// ([`SpaceError::CodeOutOfRange`] otherwise) and the row ranked; a
    /// ragged arena (`codes.len() != num_rows × params.len()`) is
    /// [`SpaceError::RaggedArena`], and a repeated row
    /// [`SpaceError::DuplicateRow`]. Streaming construction goes through
    /// [`crate::EncodingSink`] instead, which ranks each row as it is
    /// pushed.
    pub fn from_code_rows(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        num_rows: usize,
        codes: Vec<u32>,
    ) -> Result<Self, SpaceError> {
        let stride = params.len();
        num_rows
            .checked_mul(stride)
            .filter(|&len| len == codes.len())
            .ok_or(SpaceError::RaggedArena {
                len: codes.len(),
                expected: num_rows.saturating_mul(stride),
            })?;
        check_row_count(num_rows)?;
        let (strides, _) = rank_strides(&params)?;
        let mut ranks = Vec::with_capacity(num_rows);
        for row_index in 0..num_rows {
            let row = &codes[row_index * stride..(row_index + 1) * stride];
            let mut rank = 0u64;
            for ((&code, &s), param) in row.iter().zip(&strides).zip(&params) {
                if code as usize >= param.len() {
                    return Err(SpaceError::CodeOutOfRange {
                        param: param.name().to_string(),
                        code,
                        row: row_index,
                    });
                }
                rank += u64::from(code) * s;
            }
            ranks.push(rank);
        }
        let ascending = strictly_ascending(&ranks);
        canonicalize(&mut ranks, ascending, &strides, &params)?;
        Self::from_canonical_ranks(name.into(), params, ranks, strides)
    }

    /// Serve a stored rank array — the adoption point of the persistence
    /// layer. A `Shared` storage is served in place (nothing is copied), an
    /// `Owned` one is adopted. `check` decides how much of the array is
    /// checked first (see [`RankCheck`]); the row count must fit a
    /// [`ConfigId`] and a non-empty array needs a non-empty Cartesian
    /// product either way.
    pub fn from_rank_storage(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        ranks: RankStorage,
        check: RankCheck,
    ) -> Result<Self, SpaceError> {
        check_row_count(ranks.len())?;
        let value_codes = reverse_dictionaries(&params)?;
        let (strides, cartesian) = rank_strides(&params)?;
        let slice = ranks.as_slice();
        match check {
            RankCheck::Verify => {
                if let Some(row) = (1..slice.len()).find(|&i| slice[i] <= slice[i - 1]) {
                    return Err(if slice[row] == slice[row - 1] {
                        SpaceError::DuplicateRow {
                            codes: decode_rank(slice[row], &strides, &params),
                        }
                    } else {
                        SpaceError::UnsortedRanks { row }
                    });
                }
                if let Some(&last) = slice.last().filter(|&&last| last >= cartesian) {
                    return Err(SpaceError::RankOutOfRange {
                        row: slice.len() - 1,
                        rank: last,
                        cartesian,
                    });
                }
            }
            RankCheck::Trust => {
                // Decoding divides by the dictionary sizes: rows over an
                // empty product cannot exist, and would not decode.
                if cartesian == 0 && !slice.is_empty() {
                    return Err(SpaceError::RankOutOfRange {
                        row: 0,
                        rank: slice[0],
                        cartesian,
                    });
                }
            }
        }
        Ok(Self::from_parts(
            name.into(),
            params,
            ranks,
            strides,
            value_codes,
        ))
    }

    /// A space over ranks that [`canonicalize`] put in canonical order.
    pub(crate) fn from_canonical_ranks(
        name: String,
        params: Vec<TunableParameter>,
        ranks: Vec<u64>,
        strides: Vec<u64>,
    ) -> Result<Self, SpaceError> {
        check_row_count(ranks.len())?;
        let value_codes = reverse_dictionaries(&params)?;
        Ok(Self::from_parts(
            name,
            params,
            ranks.into(),
            strides,
            value_codes,
        ))
    }

    /// Assemble a space from canonical ranks.
    fn from_parts(
        name: String,
        params: Vec<TunableParameter>,
        ranks: RankStorage,
        strides: Vec<u64>,
        value_codes: Vec<CodeLookup>,
    ) -> Self {
        SearchSpace {
            name,
            params,
            ranks,
            strides,
            value_codes,
        }
    }

    /// The space's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tunable parameters (each one owns its value dictionary).
    pub fn params(&self) -> &[TunableParameter] {
        &self.params
    }

    /// Parameter names in declaration order.
    pub fn param_names(&self) -> Vec<&str> {
        self.params.iter().map(|p| p.name()).collect()
    }

    /// Number of tunable parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of valid configurations.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when the space has no valid configuration.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The Cartesian size of the unconstrained space.
    pub fn cartesian_size(&self) -> u128 {
        self.params
            .iter()
            .map(|p| p.len() as u128)
            .fold(1, |a, b| a.saturating_mul(b))
    }

    /// Fraction of the Cartesian space that is *invalid* (the paper's
    /// "fraction of sparsity").
    pub fn sparsity(&self) -> f64 {
        let cartesian = self.cartesian_size() as f64;
        if cartesian == 0.0 {
            return 0.0;
        }
        1.0 - self.len() as f64 / cartesian
    }

    /// The id at a raw dense index, if in range.
    pub fn id_at(&self, index: usize) -> Option<ConfigId> {
        (index < self.len()).then(|| ConfigId::from_index(index))
    }

    /// Iterate over all configuration ids (`0..len`), in canonical order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ConfigId> + DoubleEndedIterator {
        (0..self.len() as u32).map(ConfigId)
    }

    /// Iterate over all configurations as borrowing [`ConfigView`]s.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ConfigView<'_>> + DoubleEndedIterator {
        self.ranks
            .as_slice()
            .iter()
            .enumerate()
            .map(move |(i, &rank)| ConfigView {
                space: self,
                id: ConfigId(i as u32),
                rank,
            })
    }

    /// Iterate over all configurations decoded to owned value rows.
    ///
    /// Decoding clones each cell's [`Value`]; prefer [`SearchSpace::iter`]
    /// and per-cell access on hot paths.
    pub fn iter_decoded(&self) -> impl ExactSizeIterator<Item = Vec<Value>> + '_ {
        self.iter().map(|view| view.to_vec())
    }

    /// A borrowing view of the configuration with the given id.
    pub fn view(&self, id: ConfigId) -> Option<ConfigView<'_>> {
        let rank = self.rank_of(id)?;
        Some(ConfigView {
            space: self,
            id,
            rank,
        })
    }

    /// The rank of a configuration: its mixed-radix index in the Cartesian
    /// product (see the [module documentation](self)).
    #[inline]
    pub fn rank_of(&self, id: ConfigId) -> Option<u64> {
        self.ranks.as_slice().get(id.index()).copied()
    }

    /// The id of the configuration with the given rank, if it is valid.
    #[inline]
    pub fn index_of_rank(&self, rank: u64) -> Option<ConfigId> {
        self.ranks
            .as_slice()
            .binary_search(&rank)
            .ok()
            .map(|i| ConfigId(i as u32))
    }

    /// The mixed-radix strides: `strides()[p] = Π_{q>p} |D_q|`, so a row's
    /// rank is `Σ_p code_p · strides()[p]`.
    pub fn strides(&self) -> &[u64] {
        &self.strides
    }

    /// The code of parameter `param` in the row with rank `rank`:
    /// `(rank / stride) % |D_param|`, always inside the dictionary.
    ///
    /// # Panics
    ///
    /// When `param` is not a parameter index, or its dictionary is empty
    /// (then no row exists to decode).
    #[inline]
    pub fn code_at(&self, rank: u64, param: usize) -> u32 {
        ((rank / self.strides[param]) % self.params[param].len() as u64) as u32
    }

    /// Decode the codes of a configuration into `out` (cleared first), the
    /// allocation-free way to read a row in code space. Returns `false`,
    /// leaving `out` empty, for an id outside the space.
    pub fn codes_into(&self, id: ConfigId, out: &mut Vec<u32>) -> bool {
        out.clear();
        let Some(rank) = self.rank_of(id) else {
            return false;
        };
        out.extend((0..self.params.len()).map(|p| self.code_at(rank, p)));
        true
    }

    /// The rank array: one strictly ascending `u64` per configuration, in
    /// id order.
    ///
    /// This is the space's internal representation, exposed verbatim so
    /// persistence layers (`at_store`) can write it without decoding a
    /// single configuration; [`SearchSpace::from_rank_storage`] is the
    /// inverse adoption point. Two spaces over the same parameters hold the
    /// same configurations exactly when their arenas are equal.
    pub fn arena(&self) -> &[u64] {
        self.ranks.as_slice()
    }

    /// The rank array's storage (owned, or a shared zero-copy view into
    /// e.g. a memory-mapped store file).
    pub fn arena_storage(&self) -> &RankStorage {
        &self.ranks
    }

    /// True when the ranks are served zero-copy from a shared backing (a
    /// memory-mapped store file) instead of owned memory.
    pub fn is_zero_copy(&self) -> bool {
        self.ranks.is_shared()
    }

    /// Encode a value row into per-parameter codes. Returns `false` (leaving
    /// `out` in an unspecified state) when the row has the wrong length or
    /// contains a value outside the declared domains — such a row cannot be
    /// part of any space over these parameters.
    pub fn encode_into(&self, config: &[Value], out: &mut Vec<u32>) -> bool {
        out.clear();
        if config.len() != self.num_params() {
            return false;
        }
        for (value, lookup) in config.iter().zip(self.value_codes.iter()) {
            match lookup.code_of(value) {
                Some(code) => out.push(code),
                None => return false,
            }
        }
        true
    }

    /// Encode a value row into a fresh code vector, if every value is in its
    /// parameter's declared value list.
    pub fn encode(&self, config: &[Value]) -> Option<Vec<u32>> {
        let mut out = Vec::with_capacity(config.len());
        self.encode_into(config, &mut out).then_some(out)
    }

    /// Whether a configuration is part of the (valid) search space.
    pub fn contains(&self, config: &[Value]) -> bool {
        self.index_of(config).is_some()
    }

    /// The id of a configuration given as a value row, if valid.
    ///
    /// The row is ranked on the fly, value by value (no allocation), and
    /// the rank binary-searched.
    pub fn index_of(&self, config: &[Value]) -> Option<ConfigId> {
        if config.len() != self.num_params() {
            return None;
        }
        let mut rank = 0u64;
        for ((value, lookup), &stride) in config
            .iter()
            .zip(self.value_codes.iter())
            .zip(&self.strides)
        {
            rank += u64::from(lookup.code_of(value)?) * stride;
        }
        self.index_of_rank(rank)
    }

    /// The rank of an encoded row, if it has one code per parameter and
    /// every code is inside its dictionary (whether or not the row is
    /// valid).
    fn rank_of_codes(&self, codes: &[u32]) -> Option<u64> {
        if codes.len() != self.num_params() {
            return None;
        }
        let mut rank = 0u64;
        for ((&code, param), &stride) in codes.iter().zip(&self.params).zip(&self.strides) {
            if code as usize >= param.len() {
                return None;
            }
            rank += u64::from(code) * stride;
        }
        Some(rank)
    }

    /// The id of a configuration given as an already-encoded row, if valid.
    /// This is the allocation-free fast path for callers that work in code
    /// space (crossover, snapping).
    pub fn index_of_codes(&self, codes: &[u32]) -> Option<ConfigId> {
        self.index_of_rank(self.rank_of_codes(codes)?)
    }

    /// For each parameter, a `values()`-aligned occurrence mask: `true` when
    /// the value occurs in at least one valid configuration. Computed in a
    /// single pass over the ranks.
    fn occurrence_masks(&self) -> Vec<Vec<bool>> {
        let mut masks: Vec<Vec<bool>> = self.params.iter().map(|p| vec![false; p.len()]).collect();
        for &rank in self.ranks.as_slice() {
            for (p, mask) in masks.iter_mut().enumerate() {
                mask[self.code_at(rank, p) as usize] = true;
            }
        }
        masks
    }

    /// The *true* bounds of each numeric parameter over the valid
    /// configurations: `(min, max)` of the values that actually occur.
    /// Parameters with non-numeric values yield `None`.
    pub fn true_bounds(&self) -> Vec<Option<(f64, f64)>> {
        self.occurrence_masks()
            .iter()
            .zip(self.params.iter())
            .map(|(mask, param)| {
                let mut bounds: Option<(f64, f64)> = None;
                for (value, _) in param.values().iter().zip(mask.iter()).filter(|(_, &m)| m) {
                    if let Some(f) = value.as_f64() {
                        bounds = Some(match bounds {
                            Some((lo, hi)) => (lo.min(f), hi.max(f)),
                            None => (f, f),
                        });
                    }
                }
                bounds
            })
            .collect()
    }

    /// For each parameter, the values that actually occur in at least one
    /// valid configuration (in declared order). Constraints often make some
    /// declared values unreachable; optimizers should not waste samples
    /// there. Computed in one pass over the ranks.
    pub fn occurring_values(&self) -> Vec<Vec<Value>> {
        self.occurrence_masks()
            .iter()
            .zip(self.params.iter())
            .map(|(mask, param)| {
                param
                    .values()
                    .iter()
                    .zip(mask.iter())
                    .filter(|(_, &m)| m)
                    .map(|(v, _)| v.clone())
                    .collect()
            })
            .collect()
    }

    /// A new search space containing only the configurations for which the
    /// predicate holds (e.g. restricting to a promising region before a
    /// second tuning pass). The surviving ranks are copied in order — no
    /// configuration is decoded unless the predicate reads it.
    pub fn filter<F: Fn(ConfigView<'_>) -> bool>(&self, predicate: F) -> SearchSpace {
        let ranks: Vec<u64> = self
            .iter()
            .filter(|&view| predicate(view))
            .map(|view| view.rank)
            .collect();
        SearchSpace::from_parts(
            self.name.clone(),
            self.params.clone(),
            ranks.into(),
            self.strides.clone(),
            self.value_codes.clone(),
        )
    }

    /// Split the configuration indices into `parts` contiguous, near-equal
    /// blocks — the simplest way to distribute a tuning run over multiple
    /// workers, each exploring a disjoint part of the space. Convert a range
    /// position back to an id with [`ConfigId::from_index`].
    pub fn partition(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let parts = parts.max(1);
        let n = self.len();
        let base = n / parts;
        let remainder = n % parts;
        let mut ranges = Vec::with_capacity(parts);
        let mut start = 0usize;
        for i in 0..parts {
            let len = base + usize::from(i < remainder);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }
}

/// Build the per-parameter value → code reverse dictionaries.
pub(crate) fn reverse_dictionaries(
    params: &[TunableParameter],
) -> Result<Vec<CodeLookup>, SpaceError> {
    params
        .iter()
        .map(|p| {
            if p.len() >= NO_CODE as usize {
                return Err(SpaceError::TooLarge {
                    what: "parameter values",
                    count: p.len() as u128,
                    limit: NO_CODE as u128 - 1,
                });
            }
            Ok(CodeLookup::build(p.values()))
        })
        .collect()
}

/// A borrowing, lazily decoding view of one configuration.
///
/// A view is a `(space, id, rank)` triple: nothing is decoded until a cell
/// is accessed, and decoding a cell is one division, one modulo and a
/// dictionary lookup (`params[d].values()[code]`) that borrows from the
/// space.
#[derive(Clone, Copy)]
pub struct ConfigView<'a> {
    space: &'a SearchSpace,
    id: ConfigId,
    rank: u64,
}

impl<'a> ConfigView<'a> {
    /// The id of the viewed configuration.
    pub fn id(&self) -> ConfigId {
        self.id
    }

    /// The rank of the viewed configuration.
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// The code of parameter `d`, if in range.
    pub fn code(&self, d: usize) -> Option<u32> {
        (d < self.len()).then(|| self.space.code_at(self.rank, d))
    }

    /// Decode the codes into a caller-provided buffer (cleared first).
    pub fn codes_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.len()).map(|d| self.space.code_at(self.rank, d)));
    }

    /// Number of parameters (cells) in the configuration.
    pub fn len(&self) -> usize {
        self.space.num_params()
    }

    /// True when the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.space.num_params() == 0
    }

    /// The decoded value of parameter `d`, if in range.
    pub fn value(&self, d: usize) -> Option<&'a Value> {
        let code = self.code(d)? as usize;
        Some(&self.space.params[d].values()[code])
    }

    /// The decoded value of parameter `d` as an `f64`, if numeric.
    pub fn as_f64(&self, d: usize) -> Option<f64> {
        self.value(d)?.as_f64()
    }

    /// Iterate over the decoded values in declaration order (borrowing).
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'a Value> + '_ {
        let space = self.space;
        let rank = self.rank;
        space
            .params
            .iter()
            .enumerate()
            .map(move |(d, p)| &p.values()[space.code_at(rank, d) as usize])
    }

    /// Decode into an owned value row.
    pub fn to_vec(&self) -> Vec<Value> {
        self.values().cloned().collect()
    }

    /// Decode into a caller-provided buffer (cleared first), avoiding an
    /// allocation per decode on hot paths.
    pub fn decode_into(&self, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.values().cloned());
    }

    /// The configuration as `(name, value)` pairs.
    pub fn named(&self) -> Vec<(&'a str, &'a Value)> {
        let space = self.space;
        let rank = self.rank;
        space
            .params
            .iter()
            .enumerate()
            .map(|(d, p)| (p.name(), &p.values()[space.code_at(rank, d) as usize]))
            .collect()
    }
}

impl std::ops::Index<usize> for ConfigView<'_> {
    type Output = Value;

    fn index(&self, d: usize) -> &Value {
        self.value(d).expect("parameter index in range")
    }
}

impl PartialEq for ConfigView<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.space, other.space) && self.id == other.id
    }
}

impl fmt::Debug for ConfigView<'_> {
    /// Renders the named pairs, e.g. `{x: 4, y: 1}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (name, value) in self.named() {
            map.entry(&format_args!("{name}"), &format_args!("{value}"));
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::value::int_values;

    fn space() -> SearchSpace {
        // x in {1,2,4}, y in {1,2}; valid: x*y <= 4
        let params = vec![
            TunableParameter::ints("x", [1, 2, 4]),
            TunableParameter::ints("y", [1, 2]),
        ];
        let configs = vec![
            int_values([1, 1]),
            int_values([1, 2]),
            int_values([2, 1]),
            int_values([2, 2]),
            int_values([4, 1]),
        ];
        SearchSpace::from_configs("demo", params, configs).unwrap()
    }

    fn codes(s: &SearchSpace, id: usize) -> Vec<u32> {
        let mut out = Vec::new();
        assert!(s.codes_into(ConfigId::from_index(id), &mut out));
        out
    }

    #[test]
    fn basic_accessors() {
        let s = space();
        assert_eq!(s.name(), "demo");
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.cartesian_size(), 6);
        assert!((s.sparsity() - (1.0 - 5.0 / 6.0)).abs() < 1e-12);
        assert_eq!(s.param_names(), vec!["x", "y"]);
        assert_eq!(s.num_params(), 2);
        let view = s.view(ConfigId::from_index(2)).unwrap();
        assert_eq!(view.to_vec(), int_values([2, 1]));
        assert!(s.view(ConfigId::from_index(99)).is_none());
        assert_eq!(s.id_at(4), Some(ConfigId::from_index(4)));
        assert_eq!(s.id_at(5), None);
    }

    #[test]
    fn ranks_are_mixed_radix_indices_last_parameter_fastest() {
        let s = space();
        assert_eq!(s.strides(), &[2, 1]);
        // (x, y) codes (0,0) (0,1) (1,0) (1,1) (2,0)
        assert_eq!(s.arena(), &[0, 1, 2, 3, 4]);
        assert_eq!(s.rank_of(ConfigId::from_index(4)), Some(4));
        assert_eq!(s.rank_of(ConfigId::from_index(5)), None);
        assert_eq!(s.index_of_rank(3), Some(ConfigId::from_index(3)));
        assert_eq!(s.index_of_rank(5), None); // (4, 2) is invalid
        assert_eq!((s.code_at(5, 0), s.code_at(5, 1)), (2, 1));
    }

    #[test]
    fn membership_lookups() {
        let s = space();
        assert!(s.contains(&int_values([2, 2])));
        assert!(!s.contains(&int_values([4, 2])));
        assert_eq!(
            s.index_of(&int_values([4, 1])),
            Some(ConfigId::from_index(4))
        );
        assert_eq!(s.index_of(&int_values([9, 9])), None);
        assert_eq!(s.index_of(&int_values([1])), None); // wrong arity
    }

    #[test]
    fn code_rows_match_parameter_positions() {
        let s = space();
        assert_eq!(codes(&s, 4), [2, 0]);
        assert_eq!(codes(&s, 1), [0, 1]);
        let mut out = vec![7];
        assert!(!s.codes_into(ConfigId::from_index(5), &mut out));
        assert!(out.is_empty());
        assert_eq!(
            s.index_of_codes(&[2, 0]),
            Some(ConfigId::from_index(4)),
            "encoded fast path agrees"
        );
        assert_eq!(s.index_of_codes(&[2, 1]), None); // (4, 2) is invalid
        assert_eq!(s.index_of_codes(&[0]), None); // wrong arity
        assert_eq!(s.index_of_codes(&[3, 0]), None); // outside x's dictionary
        assert_eq!(s.rank_of_codes(&[2, 1]), Some(5));
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = space();
        let mut row = Vec::new();
        for view in s.iter() {
            let decoded = view.to_vec();
            let codes = s.encode(&decoded).unwrap();
            view.codes_into(&mut row);
            assert_eq!(codes, row);
            assert_eq!(s.index_of_codes(&codes), Some(view.id()));
            assert_eq!(s.index_of(&decoded), Some(view.id()));
            assert_eq!(s.rank_of_codes(&codes), Some(view.rank()));
        }
        assert_eq!(s.encode(&int_values([3, 1])), None); // 3 not in x's domain
    }

    #[test]
    fn iterators_agree() {
        let s = space();
        assert_eq!(s.ids().count(), s.len());
        assert_eq!(s.iter().count(), s.len());
        let decoded: Vec<Vec<Value>> = s.iter_decoded().collect();
        assert_eq!(decoded.len(), s.len());
        for (id, row) in s.ids().zip(decoded.iter()) {
            assert_eq!(&s.view(id).unwrap().to_vec(), row);
        }
    }

    #[test]
    fn from_configs_rejects_values_outside_the_domain() {
        let params = vec![TunableParameter::ints("x", [1, 2])];
        let err = SearchSpace::from_configs("bad", params.clone(), vec![int_values([3])])
            .expect_err("3 is not in x's domain");
        assert_eq!(
            err,
            SpaceError::UnknownValue {
                param: "x".to_string(),
                value: Value::Int(3),
                row: 0,
            }
        );
        assert!(err.to_string().contains("x"));
        let err = SearchSpace::from_configs("bad", params, vec![int_values([1, 2])])
            .expect_err("wrong arity");
        assert!(matches!(err, SpaceError::RowLength { row: 0, .. }));
    }

    #[test]
    fn view_cell_access() {
        let s = space();
        let view = s.view(ConfigId::from_index(4)).unwrap();
        assert_eq!(view.value(0), Some(&Value::Int(4)));
        assert_eq!(view.as_f64(1), Some(1.0));
        assert_eq!(view.value(2), None);
        assert_eq!(view.code(1), Some(0));
        assert_eq!(view.code(2), None);
        assert_eq!(view[1], Value::Int(1));
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(format!("{view:?}"), "{x: 4, y: 1}");
    }

    #[test]
    fn true_bounds_and_occurring_values() {
        let s = space();
        let bounds = s.true_bounds();
        assert_eq!(bounds[0], Some((1.0, 4.0)));
        assert_eq!(bounds[1], Some((1.0, 2.0)));
        let occurring = s.occurring_values();
        assert_eq!(occurring[0], int_values([1, 2, 4]));
        assert_eq!(occurring[1], int_values([1, 2]));
    }

    #[test]
    fn true_bounds_shrink_when_values_unreachable() {
        let params = vec![TunableParameter::ints("x", [1, 2, 64])];
        let configs = vec![int_values([1]), int_values([2])];
        let s = SearchSpace::from_configs("shrunk", params, configs).unwrap();
        assert_eq!(s.true_bounds()[0], Some((1.0, 2.0)));
        assert_eq!(s.occurring_values()[0], int_values([1, 2]));
    }

    #[test]
    fn named_view() {
        let s = space();
        let named = s.view(ConfigId::from_index(0)).unwrap().named();
        assert_eq!(named[0].0, "x");
        assert_eq!(named[0].1, &Value::Int(1));
    }

    #[test]
    fn filter_produces_a_consistent_subspace() {
        let s = space();
        let filtered = s.filter(|view| view[1] == Value::Int(1));
        assert_eq!(filtered.len(), 3);
        assert!(filtered.contains(&int_values([4, 1])));
        assert!(!filtered.contains(&int_values([1, 2])));
        // ids are dense in the subspace
        assert_eq!(
            filtered.index_of(&int_values([1, 1])),
            Some(ConfigId::from_index(0))
        );
    }

    #[test]
    fn partition_covers_everything_without_overlap() {
        let s = space();
        for parts in [1usize, 2, 3, 5, 7] {
            let ranges = s.partition(parts);
            assert_eq!(ranges.len(), parts.max(1));
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, s.len());
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, s.len());
        }
    }

    #[test]
    fn from_solutions_roundtrip() {
        let sols = SolutionSet::from_rows(
            vec!["x".to_string(), "y".to_string()],
            vec![int_values([2, 1]), int_values([1, 1])],
        );
        let s = SearchSpace::from_solutions(
            "rt",
            vec![
                TunableParameter::ints("x", [1, 2]),
                TunableParameter::ints("y", [1]),
            ],
            &sols,
        )
        .unwrap();
        assert_eq!(s.len(), 2);
        // Rows come out in canonical order, whatever order they went in.
        assert_eq!(
            s.view(ConfigId::from_index(0)).unwrap().to_vec(),
            int_values([1, 1])
        );
    }

    #[test]
    fn rows_in_any_order_give_the_canonical_space() {
        let s = space();
        let params = s.params().to_vec();
        let mut rows: Vec<Vec<Value>> = s.iter_decoded().collect();
        rows.reverse();
        rows.swap(1, 3);
        let shuffled = SearchSpace::from_configs("demo", params.clone(), rows).unwrap();
        assert_eq!(shuffled.arena(), s.arena());
        let codes = vec![2, 0, 0, 0, 1, 1, 0, 1, 1, 0];
        let adopted = SearchSpace::from_code_rows("demo", params, 5, codes).unwrap();
        assert_eq!(adopted.arena(), s.arena());
    }

    #[test]
    fn shared_storage_space_is_identical_to_owned() {
        let owned = space();
        let backing = std::sync::Arc::new(owned.arena().to_vec());
        let shared = SearchSpace::from_rank_storage(
            "demo",
            owned.params().to_vec(),
            RankStorage::Shared(backing),
            RankCheck::Verify,
        )
        .unwrap();
        assert!(shared.is_zero_copy());
        assert!(!owned.is_zero_copy());
        assert_eq!(owned.arena(), shared.arena());
        for view in owned.iter() {
            assert_eq!(shared.index_of(&view.to_vec()), Some(view.id()));
        }
        // Cloning a shared-storage space stays shared (an Arc bump).
        assert!(shared.clone().is_zero_copy());
    }

    #[test]
    fn verified_rank_arrays_must_ascend_within_the_cartesian_size() {
        let s = space();
        let adopt = |ranks: Vec<u64>, check| {
            SearchSpace::from_rank_storage("demo", s.params().to_vec(), ranks.into(), check)
        };
        assert_eq!(
            adopt(vec![0, 2, 1], RankCheck::Verify).unwrap_err(),
            SpaceError::UnsortedRanks { row: 2 }
        );
        assert_eq!(
            adopt(vec![0, 3, 3], RankCheck::Verify).unwrap_err(),
            SpaceError::DuplicateRow { codes: vec![1, 1] }
        );
        assert_eq!(
            adopt(vec![0, 6], RankCheck::Verify).unwrap_err(),
            SpaceError::RankOutOfRange {
                row: 1,
                rank: 6,
                cartesian: 6
            }
        );
        assert!(adopt(vec![0, 5], RankCheck::Verify).is_ok());
        assert!(adopt(Vec::new(), RankCheck::Verify).unwrap().is_empty());
    }

    #[test]
    fn trusted_forged_ranks_answer_wrongly_but_decode_in_range() {
        let s = space();
        let forged = vec![u64::MAX, 7, 7, 0, 12_345];
        let t = SearchSpace::from_rank_storage(
            "forged",
            s.params().to_vec(),
            forged.into(),
            RankCheck::Trust,
        )
        .unwrap();
        for view in t.iter() {
            for (d, p) in t.params().iter().enumerate() {
                assert!((view.code(d).unwrap() as usize) < p.len());
            }
            let _ = t.index_of(&view.to_vec());
        }
        // Over an empty product no row can decode: rejected even trusted.
        let empty = vec![
            TunableParameter::ints("x", [1, 2]),
            TunableParameter::new("none", Vec::new()),
        ];
        let err = SearchSpace::from_rank_storage("e", empty, vec![0].into(), RankCheck::Trust)
            .unwrap_err();
        assert!(matches!(
            err,
            SpaceError::RankOutOfRange { cartesian: 0, .. }
        ));
    }

    #[test]
    fn duplicate_rows_are_rejected() {
        let params = vec![TunableParameter::ints("x", [1, 2])];
        let configs = vec![int_values([1]), int_values([2]), int_values([1])];
        let err = SearchSpace::from_configs("dup", params.clone(), configs).unwrap_err();
        assert_eq!(err, SpaceError::DuplicateRow { codes: vec![0] });
        assert!(err.to_string().contains("more than once"), "{err}");
        let err = SearchSpace::from_code_rows("dup", params, 2, vec![1, 1]).unwrap_err();
        assert_eq!(err, SpaceError::DuplicateRow { codes: vec![1] });
    }

    #[test]
    fn cartesian_products_beyond_u64_are_too_large() {
        // 17 parameters of 16 values: 2^68 configurations.
        let params: Vec<TunableParameter> = (0..17)
            .map(|i| TunableParameter::ints(format!("p{i}"), 0..16))
            .collect();
        let err = SearchSpace::from_configs("huge", params, Vec::new()).unwrap_err();
        match err {
            SpaceError::TooLarge { what, count, limit } => {
                assert_eq!(what, "Cartesian product");
                assert_eq!(count, 1u128 << 68);
                assert_eq!(limit, u64::MAX as u128);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // 16 parameters of 15 values fit: 15^16 < 2^64.
        let params: Vec<TunableParameter> = (0..16)
            .map(|i| TunableParameter::ints(format!("p{i}"), 0..15))
            .collect();
        assert!(rank_strides(&params).is_ok());
    }
}
