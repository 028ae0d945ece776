//! The fully resolved search space representation.
//!
//! After construction, optimization algorithms need efficient access to the
//! valid configurations: indexed access for sampling, hash lookups to test
//! membership and find a configuration's id, the *true* parameter bounds
//! (which constraints may have shrunk relative to the declared domains), and
//! neighbor queries. This mirrors Kernel Tuner's `SearchSpace` class
//! (Section 4.4 of the paper).
//!
//! # Representation
//!
//! At millions of configurations the representation — not just the
//! construction — dominates memory and lookup cost, so the space is stored
//! *columnar and index-encoded*: each parameter's distinct values live once
//! in its [`TunableParameter`] (the per-parameter dictionary), and a
//! configuration is a row of `u32` *value codes* in a single flat arena
//! (`len × num_params` entries, stride = `num_params`). Membership tests and
//! id lookups go through an open-addressing hash table over the encoded rows,
//! so no `Vec<Value>` keys are ever cloned. Configurations are addressed by
//! [`ConfigId`] and decoded lazily through a borrowing [`ConfigView`].

use std::fmt;

use at_csp::{SolutionSet, Value};
use rustc_hash::FxHashMap;

use crate::arena::ArenaStorage;
use crate::param::TunableParameter;

/// Identifier of a configuration within one [`SearchSpace`].
///
/// A `ConfigId` is a typed index into the space's configuration arena: ids
/// are dense (`0..space.len()`) and stable for the lifetime of the space they
/// came from. They are intentionally cheap (`u32`) so optimizers can store
/// populations, neighbor lists and evaluation caches as plain id collections.
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
    /// The space does not fit the `u32` code/id encoding.
    TooLarge {
        /// What overflowed (number of configurations or parameter values).
        what: &'static str,
        /// The overflowing count.
        count: usize,
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
    /// A persisted membership index was structurally or semantically
    /// unusable for the arena it was loaded with (wrong slot count, an
    /// out-of-range occupant, a full table, or a sampled row the index
    /// cannot find). Loaders treat this as "rebuild the index", never as
    /// "serve wrong lookups".
    IndexInvalid {
        /// What exactly was wrong.
        detail: String,
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
            SpaceError::TooLarge { what, count } => {
                write!(f, "{what} ({count}) exceeds the u32 encoding limit")
            }
            SpaceError::CodeOutOfRange { param, code, row } => write!(
                f,
                "configuration {row}: code {code} is out of range for parameter `{param}`"
            ),
            SpaceError::RaggedArena { len, expected } => write!(
                f,
                "encoded arena holds {len} codes where {expected} were expected"
            ),
            SpaceError::IndexInvalid { detail } => {
                write!(f, "persisted membership index is unusable: {detail}")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// Sentinel for an empty hash-table slot (no configuration id).
const EMPTY_SLOT: u32 = u32::MAX;

/// Version of the row-hash function the membership table is built over.
///
/// The table's slot positions are a function of the internal `hash_codes`
/// row hash, and since
/// persisted store files (`at_store`'s `IDX` section) carry the table
/// verbatim, the hash is part of the on-disk contract: **changing
/// `hash_codes` in any observable way requires bumping this constant**, so
/// loaders detect a table built by a different hash and fall back to a
/// rebuild instead of missing rows. The function itself must also stay
/// platform-independent (it is: pure `u64` arithmetic on little-endian
/// decoded codes).
pub const INDEX_HASH_VERSION: u32 = 1;

/// Hash a row of value codes: the slot function of the membership table,
/// which every lookup (`index_of`, `index_of_codes`, Hamming neighbor
/// probes) goes through. Persisted membership tables depend on it
/// byte-for-byte (see [`INDEX_HASH_VERSION`]).
///
/// Rows are hashed two codes per step with a rotate-multiply mix (in the
/// style of `FxHasher`): half the multiply chain of a per-code FNV walk,
/// which is what bounds membership-table builds over hundreds of thousands
/// of rows — including every warm `at_store` load. The final fold spreads
/// the well-mixed high bits into the low bits the table masks on.
pub(crate) fn hash_codes(codes: &[u32]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = codes.chunks_exact(2);
    for pair in &mut chunks {
        let v = (pair[0] as u64) | ((pair[1] as u64) << 32);
        h = (h.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
    if let Some(&last) = chunks.remainder().first() {
        h = (h.rotate_left(5) ^ last as u64).wrapping_mul(SEED);
    }
    h ^ (h >> 32)
}

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
    /// holds the code, or [`EMPTY_SLOT`] for integers not in the dictionary.
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
            let mut table = vec![EMPTY_SLOT; range as usize + 1].into_boxed_slice();
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
                (code != EMPTY_SLOT).then_some(code)
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

/// How much of a persisted membership table, and of the arena it indexes,
/// is checked before the table is adopted.
///
/// Adoption is *structurally* safe either way: the lookup algorithm
/// compares the candidate arena row against the queried codes before
/// returning an id, so a wrong table can only ever produce a **missed** row
/// (a false `None`), never a misattributed one — and the structural checks
/// run unconditionally (the arena holds exactly `num_rows` whole rows, the
/// slot count is a power of two, every occupant is in range, and at least
/// one slot is empty so probing terminates). Code checking is about
/// *eagerness of error reporting*, not memory safety: every later decode
/// indexes its dictionary through a bounds-checked slice access, so an
/// out-of-dictionary code can only ever panic cleanly — never decode to a
/// wrong value and never touch invalid memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adoption {
    /// Bounds-check every code in one branch-free per-column maxima pass
    /// (O(arena); an out-of-dictionary code is reported up front as
    /// [`SpaceError::CodeOutOfRange`]), and look up evenly spaced arena
    /// rows, requiring each to be found — a cheap screen against a table
    /// that was persisted for a different arena.
    Verified,
    /// The structural checks alone (O(header + index)) — the trusted
    /// zero-copy load path, where an O(arena) walk would defeat the
    /// O(header) goal and the file carries checksums for explicit
    /// verification instead.
    Trusted,
}

/// Open-addressing (linear probing) hash table mapping encoded rows to
/// configuration ids. Stores only `u32` ids — the keys are the arena rows
/// themselves, so the whole membership index costs ~4–8 bytes per
/// configuration instead of a cloned `Vec<Value>` key per configuration.
///
/// The slots live in an [`ArenaStorage`] so a table persisted in an `ATSS`
/// `IDX` section can be adopted zero-copy from a memory-mapped file
/// ([`RowTable::adopt`]) instead of rebuilt.
#[derive(Debug, Clone)]
struct RowTable {
    slots: ArenaStorage,
    mask: usize,
}

impl RowTable {
    /// Build the table over the `num_configs` rows of `arena` (row `i` is
    /// `arena[i * stride..(i + 1) * stride]`).
    fn build(num_configs: usize, stride: usize, arena: &[u32]) -> RowTable {
        // Keep the load factor under ~7/8.
        let capacity = (num_configs * 8 / 7 + 1).next_power_of_two().max(8);
        let mask = capacity - 1;
        let mut slots = vec![EMPTY_SLOT; capacity];
        for id in 0..num_configs {
            let codes = &arena[id * stride..(id + 1) * stride];
            let mut slot = (hash_codes(codes) as usize) & mask;
            loop {
                let occupant = slots[slot];
                if occupant == EMPTY_SLOT {
                    slots[slot] = id as u32;
                    break;
                }
                let other = &arena[occupant as usize * stride..(occupant as usize + 1) * stride];
                if other == codes {
                    // Duplicate row: the first occurrence keeps the slot.
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        RowTable {
            slots: ArenaStorage::from(slots),
            mask,
        }
    }

    /// How many evenly spaced rows [`Adoption::Verified`] looks up.
    const VERIFY_SAMPLES: usize = 64;

    /// Adopt persisted slots instead of rebuilding. The structural checks
    /// (slot count, occupant range, a free slot for probe termination) are
    /// unconditional; [`Adoption::Verified`] also looks up sampled rows.
    fn adopt(
        slots: ArenaStorage,
        num_configs: usize,
        stride: usize,
        arena: &[u32],
        adoption: Adoption,
    ) -> Result<RowTable, SpaceError> {
        let invalid = |detail: String| SpaceError::IndexInvalid { detail };
        let n = slots.len();
        if !n.is_power_of_two() || n < 8 {
            return Err(invalid(format!(
                "slot count {n} is not a power of two >= 8"
            )));
        }
        // One branch-free pass, like `validate_code_arena`: count the free
        // slots and take the largest occupant + 1 (the wrapping add maps
        // `EMPTY_SLOT` to 0). Counting in `u32` per 2^16-slot block keeps
        // every lane 32 bits wide, so the loop vectorizes. Only an
        // out-of-range maximum pays for a second pass, which names the first
        // offender in slot order.
        let (mut free, mut max_plus_one) = (0usize, 0u32);
        for block in slots.as_slice().chunks(1 << 16) {
            let (block_free, block_max) = block.iter().fold((0u32, 0u32), |(f, m), &occupant| {
                let shifted = occupant.wrapping_add(1);
                (f + u32::from(shifted == 0), m.max(shifted))
            });
            free += block_free as usize;
            max_plus_one = max_plus_one.max(block_max);
        }
        if max_plus_one as usize > num_configs {
            let occupant = slots
                .as_slice()
                .iter()
                .copied()
                .find(|&o| o != EMPTY_SLOT && o as usize >= num_configs)
                .expect("the maximum is out of range");
            return Err(invalid(format!(
                "occupant {occupant} out of range for {num_configs} rows"
            )));
        }
        if free == 0 {
            return Err(invalid("no empty slot; probing would not terminate".into()));
        }
        let table = RowTable { slots, mask: n - 1 };
        if adoption == Adoption::Verified {
            let step = (num_configs / Self::VERIFY_SAMPLES).max(1);
            for id in (0..num_configs).step_by(step) {
                let codes = &arena[id * stride..(id + 1) * stride];
                if table.lookup(codes, stride, arena).is_none() {
                    return Err(invalid(format!(
                        "sampled row {id} is missing from the table"
                    )));
                }
            }
        }
        Ok(table)
    }

    /// Look up the id of an encoded row.
    fn lookup(&self, codes: &[u32], stride: usize, arena: &[u32]) -> Option<u32> {
        let slots = self.slots.as_slice();
        let mut slot = (hash_codes(codes) as usize) & self.mask;
        loop {
            let occupant = slots[slot];
            if occupant == EMPTY_SLOT {
                return None;
            }
            let i = occupant as usize;
            if &arena[i * stride..(i + 1) * stride] == codes {
                return Some(occupant);
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// A fully resolved, indexed search space.
///
/// See the [module documentation](self) for the storage layout. The memory
/// footprint is `4 × num_params` bytes per configuration (the code arena)
/// plus ~5 bytes per configuration of hash-table slots, plus the
/// per-parameter value dictionaries — independent of how many times each
/// value occurs.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    name: String,
    params: Vec<TunableParameter>,
    /// Number of valid configurations.
    num_configs: usize,
    /// Flat arena of per-parameter value codes; row `i` occupies
    /// `codes[i * stride .. (i + 1) * stride]` with `stride = params.len()`.
    /// Owned for in-process construction, or a borrowed view into a shared
    /// backing (a memory-mapped store file) for zero-copy loads.
    codes: ArenaStorage,
    /// Per-parameter reverse dictionaries: value → code.
    value_codes: Vec<CodeLookup>,
    /// Hash index from encoded row to configuration id.
    table: RowTable,
}

impl SearchSpace {
    /// Build the representation from the solver output.
    ///
    /// The solution columns must be in parameter declaration order (which is
    /// how [`crate::build_search_space`] lowers specifications).
    pub fn from_solutions(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        solutions: &SolutionSet,
    ) -> Result<Self, SpaceError> {
        Self::from_value_rows(name, params, solutions.len(), solutions.iter())
    }

    /// Build the representation from raw configuration rows (declaration
    /// order). Returns [`SpaceError::UnknownValue`] when a row contains a
    /// value outside its parameter's declared value list — silently encoding
    /// such a row would corrupt every code-based operation downstream.
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
        if num_configs > EMPTY_SLOT as usize {
            return Err(SpaceError::TooLarge {
                what: "number of configurations",
                count: num_configs,
            });
        }
        let lookups = reverse_dictionaries(&params)?;
        let mut codes: Vec<u32> = Vec::with_capacity(num_configs * params.len());
        for (row_index, row) in rows.enumerate() {
            if row.len() != params.len() {
                return Err(SpaceError::RowLength {
                    row: row_index,
                    expected: params.len(),
                    found: row.len(),
                });
            }
            for (value, (param, lookup)) in row.iter().zip(params.iter().zip(&lookups)) {
                let code = lookup
                    .code_of(value)
                    .ok_or_else(|| SpaceError::UnknownValue {
                        param: param.name().to_string(),
                        value: value.clone(),
                        row: row_index,
                    })?;
                codes.push(code);
            }
        }
        Ok(Self::from_parts(
            name.into(),
            params,
            num_configs,
            codes.into(),
            lookups,
        ))
    }

    /// Adopt pre-encoded configuration rows: `codes` is a flat arena of
    /// `num_rows × params.len()` per-parameter value codes in row-major,
    /// declaration order — exactly the layout the space stores internally,
    /// so construction performs no decoding and no per-row hashing beyond
    /// the one membership-table build every constructor needs.
    ///
    /// This is the adoption point for streaming construction: an encoding
    /// sink (see [`crate::EncodingSink`]) appends the solver's code rows in
    /// this layout and hands the arena over here. The codes are
    /// bounds-checked against the parameter dictionaries in one cheap pass
    /// ([`SpaceError::CodeOutOfRange`] otherwise); a ragged arena
    /// (`codes.len() != num_rows × params.len()`) is rejected as
    /// [`SpaceError::RaggedArena`].
    ///
    /// For an arena borrowed from a shared backing (a memory-mapped store
    /// file), use [`SearchSpace::from_code_storage`]; to also adopt a
    /// persisted membership table, [`SearchSpace::from_code_storage_with_index`].
    pub fn from_code_rows(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        num_rows: usize,
        codes: Vec<u32>,
    ) -> Result<Self, SpaceError> {
        Self::from_code_storage(name, params, num_rows, codes.into())
    }

    /// [`SearchSpace::from_code_rows`] over any [`ArenaStorage`] backing —
    /// the zero-copy adoption point: a `Shared` storage is served in place
    /// (nothing is copied), an `Owned` one is adopted as before. Validation
    /// is identical either way.
    pub fn from_code_storage(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        num_rows: usize,
        codes: ArenaStorage,
    ) -> Result<Self, SpaceError> {
        let value_codes = reverse_dictionaries(&params)?;
        validate_code_arena(&params, num_rows, codes.as_slice())?;
        if num_rows > EMPTY_SLOT as usize {
            return Err(SpaceError::TooLarge {
                what: "number of configurations",
                count: num_rows,
            });
        }
        Ok(Self::from_parts(
            name.into(),
            params,
            num_rows,
            codes,
            value_codes,
        ))
    }

    /// [`SearchSpace::from_code_storage`], additionally adopting a
    /// persisted membership table instead of rebuilding it — the warm-load
    /// fast path. `slots` is the open-addressing slot array exactly as a
    /// previous build exposed it via [`SearchSpace::index_slots`] (and as
    /// `at_store` persists it in the `IDX` section); `adoption` decides how
    /// much of the table and the arena is checked first (see [`Adoption`]
    /// — structural safety checks always run). An unusable table is
    /// [`SpaceError::IndexInvalid`]; callers are expected to fall back to
    /// the rebuilding path *and report it*.
    pub fn from_code_storage_with_index(
        name: impl Into<String>,
        params: Vec<TunableParameter>,
        num_rows: usize,
        codes: ArenaStorage,
        slots: ArenaStorage,
        adoption: Adoption,
    ) -> Result<Self, SpaceError> {
        let value_codes = reverse_dictionaries(&params)?;
        match adoption {
            Adoption::Verified => validate_code_arena(&params, num_rows, codes.as_slice())?,
            Adoption::Trusted => {
                // Only the O(1) shape check: the arena must still hold
                // exactly `num_rows` whole rows.
                let expected = num_rows.checked_mul(params.len());
                if expected != Some(codes.len()) {
                    return Err(SpaceError::RaggedArena {
                        len: codes.len(),
                        expected: expected.unwrap_or(usize::MAX),
                    });
                }
            }
        }
        if num_rows > EMPTY_SLOT as usize {
            return Err(SpaceError::TooLarge {
                what: "number of configurations",
                count: num_rows,
            });
        }
        let table = RowTable::adopt(slots, num_rows, params.len(), codes.as_slice(), adoption)?;
        Ok(SearchSpace {
            name: name.into(),
            params,
            num_configs: num_rows,
            codes,
            value_codes,
            table,
        })
    }

    /// Build directly from encoded rows (used by [`SearchSpace::filter`]).
    fn from_parts(
        name: String,
        params: Vec<TunableParameter>,
        num_configs: usize,
        codes: ArenaStorage,
        value_codes: Vec<CodeLookup>,
    ) -> Self {
        let table = RowTable::build(num_configs, params.len(), codes.as_slice());
        SearchSpace {
            name,
            params,
            num_configs,
            codes,
            value_codes,
            table,
        }
    }

    #[inline]
    fn stride(&self) -> usize {
        self.params.len()
    }

    #[inline]
    fn row(&self, index: usize) -> &[u32] {
        let stride = self.stride();
        &self.codes.as_slice()[index * stride..(index + 1) * stride]
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

    /// Number of tunable parameters (the arena stride).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of valid configurations.
    pub fn len(&self) -> usize {
        self.num_configs
    }

    /// True when the space has no valid configuration.
    pub fn is_empty(&self) -> bool {
        self.num_configs == 0
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
        (index < self.num_configs).then(|| ConfigId::from_index(index))
    }

    /// Iterate over all configuration ids (`0..len`).
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ConfigId> + DoubleEndedIterator {
        (0..self.num_configs as u32).map(ConfigId)
    }

    /// Iterate over all configurations as borrowing [`ConfigView`]s.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ConfigView<'_>> + DoubleEndedIterator {
        (0..self.num_configs as u32).map(move |i| ConfigView {
            space: self,
            id: ConfigId(i),
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
        (id.index() < self.num_configs).then_some(ConfigView { space: self, id })
    }

    /// The encoded row (per-parameter value codes) of a configuration.
    pub fn codes_of(&self, id: ConfigId) -> Option<&[u32]> {
        (id.index() < self.num_configs).then(|| self.row(id.index()))
    }

    /// The whole code arena: `len × num_params` per-parameter value codes in
    /// row-major declaration order (row `i` occupies
    /// `arena[i * num_params .. (i + 1) * num_params]`).
    ///
    /// This is the space's internal representation, exposed verbatim so
    /// persistence layers (`at_store`) can write it without decoding a
    /// single configuration; [`SearchSpace::from_code_rows`] is the inverse
    /// adoption point.
    pub fn arena(&self) -> &[u32] {
        self.codes.as_slice()
    }

    /// The arena's storage (owned, or a shared zero-copy view into e.g. a
    /// memory-mapped store file).
    pub fn arena_storage(&self) -> &ArenaStorage {
        &self.codes
    }

    /// True when the arena is served zero-copy from a shared backing (a
    /// memory-mapped store file) instead of owned memory.
    pub fn is_zero_copy(&self) -> bool {
        self.codes.is_shared()
    }

    /// The membership table's open-addressing slot array, exposed verbatim
    /// so persistence layers can write it (`at_store`'s `IDX` section);
    /// [`SearchSpace::from_code_storage_with_index`] is the inverse
    /// adoption point. Slot semantics: `slots().len()` is a power of two,
    /// a slot holds a configuration id or `u32::MAX` for empty, and slot
    /// positions are a function of the row hash (see
    /// [`INDEX_HASH_VERSION`]).
    pub fn index_slots(&self) -> &[u32] {
        self.table.slots.as_slice()
    }

    /// Encode a value row into per-parameter codes. Returns `false` (leaving
    /// `out` in an unspecified state) when the row has the wrong length or
    /// contains a value outside the declared domains — such a row cannot be
    /// part of any space over these parameters.
    pub fn encode_into(&self, config: &[Value], out: &mut Vec<u32>) -> bool {
        out.clear();
        if config.len() != self.stride() {
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
    /// The row is encoded on the fly (no allocation beyond a small code
    /// buffer) and looked up by hashing the encoded row.
    pub fn index_of(&self, config: &[Value]) -> Option<ConfigId> {
        let mut buf = [0u32; 16];
        if config.len() <= buf.len() {
            // Fast path: encode into a stack buffer.
            if config.len() != self.stride() {
                return None;
            }
            for (slot, (value, lookup)) in buf
                .iter_mut()
                .zip(config.iter().zip(self.value_codes.iter()))
            {
                *slot = lookup.code_of(value)?;
            }
            self.index_of_codes(&buf[..config.len()])
        } else {
            let codes = self.encode(config)?;
            self.index_of_codes(&codes)
        }
    }

    /// The id of a configuration given as an already-encoded row, if valid.
    /// This is the allocation-free fast path for callers that work in code
    /// space (crossover, mutation, snapping).
    pub fn index_of_codes(&self, codes: &[u32]) -> Option<ConfigId> {
        if codes.len() != self.stride() || self.num_configs == 0 {
            return None;
        }
        self.table
            .lookup(codes, self.stride(), self.codes.as_slice())
            .map(ConfigId)
    }

    /// For each parameter, a `values()`-aligned occurrence mask: `true` when
    /// the value occurs in at least one valid configuration. Computed in a
    /// single pass over the arena.
    fn occurrence_masks(&self) -> Vec<Vec<bool>> {
        let mut masks: Vec<Vec<bool>> = self.params.iter().map(|p| vec![false; p.len()]).collect();
        for row in self.codes.as_slice().chunks_exact(self.stride().max(1)) {
            for (mask, &code) in masks.iter_mut().zip(row.iter()) {
                mask[code as usize] = true;
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
    /// there. Computed in one pass over the arena.
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
    /// second tuning pass). The surviving code rows are copied directly —
    /// no configuration is ever decoded.
    pub fn filter<F: Fn(ConfigView<'_>) -> bool>(&self, predicate: F) -> SearchSpace {
        let mut codes: Vec<u32> = Vec::new();
        // Counted separately from the arena length: with zero parameters the
        // arena stays empty no matter how many rows survive.
        let mut kept = 0usize;
        for view in self.iter() {
            if predicate(view) {
                codes.extend_from_slice(view.codes());
                kept += 1;
            }
        }
        SearchSpace::from_parts(
            self.name.clone(),
            self.params.clone(),
            kept,
            codes.into(),
            self.value_codes.clone(),
        )
    }

    /// Split the configuration indices into `parts` contiguous, near-equal
    /// blocks — the simplest way to distribute a tuning run over multiple
    /// workers, each exploring a disjoint part of the space. Convert a range
    /// position back to an id with [`ConfigId::from_index`].
    pub fn partition(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let parts = parts.max(1);
        let n = self.num_configs;
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

/// Bounds-check a pre-encoded arena against the parameter dictionaries.
///
/// This sits on the warm store-load path, over arenas of millions of codes:
/// validate via one branch-free per-column maxima pass, and only walk cells
/// individually (to name the offending row) when a column's maximum
/// actually exceeds its dictionary. The pass is about *eager, well-typed*
/// error reporting, not memory safety: decoding always goes through
/// bounds-checked slice indexing, so an out-of-dictionary code that skips
/// this pass ([`Adoption::Trusted`]) surfaces as a clean panic at
/// first decode rather than as an eager [`SpaceError::CodeOutOfRange`].
fn validate_code_arena(
    params: &[TunableParameter],
    num_rows: usize,
    codes: &[u32],
) -> Result<(), SpaceError> {
    let stride = params.len();
    num_rows
        .checked_mul(stride)
        .filter(|&len| len == codes.len())
        .ok_or(SpaceError::RaggedArena {
            len: codes.len(),
            expected: num_rows.saturating_mul(stride),
        })?;
    let stride_nz = stride.max(1);
    let mut maxima = vec![0u32; stride];
    for row in codes.chunks_exact(stride_nz) {
        for (m, &code) in maxima.iter_mut().zip(row.iter()) {
            *m = (*m).max(code);
        }
    }
    let out_of_range = maxima
        .iter()
        .zip(params.iter())
        .any(|(&m, p)| m as usize >= p.len());
    if out_of_range {
        for (row_index, row) in codes.chunks_exact(stride_nz).enumerate() {
            for (d, &code) in row.iter().enumerate() {
                if code as usize >= params[d].len() {
                    return Err(SpaceError::CodeOutOfRange {
                        param: params[d].name().to_string(),
                        code,
                        row: row_index,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Build the per-parameter value → code reverse dictionaries.
pub(crate) fn reverse_dictionaries(
    params: &[TunableParameter],
) -> Result<Vec<CodeLookup>, SpaceError> {
    params
        .iter()
        .map(|p| {
            if p.len() >= EMPTY_SLOT as usize {
                return Err(SpaceError::TooLarge {
                    what: "parameter values",
                    count: p.len(),
                });
            }
            Ok(CodeLookup::build(p.values()))
        })
        .collect()
}

/// A borrowing, lazily decoding view of one configuration.
///
/// A view is a `(space, id)` pair: nothing is decoded until a cell is
/// accessed, and decoding a cell is a dictionary lookup
/// (`params[d].values()[code]`) that borrows from the space.
#[derive(Clone, Copy)]
pub struct ConfigView<'a> {
    space: &'a SearchSpace,
    id: ConfigId,
}

impl<'a> ConfigView<'a> {
    /// The id of the viewed configuration.
    pub fn id(&self) -> ConfigId {
        self.id
    }

    /// The encoded row (per-parameter value codes).
    pub fn codes(&self) -> &'a [u32] {
        self.space.row(self.id.index())
    }

    /// Number of parameters (cells) in the configuration.
    pub fn len(&self) -> usize {
        self.space.stride()
    }

    /// True when the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.space.stride() == 0
    }

    /// The decoded value of parameter `d`, if in range.
    pub fn value(&self, d: usize) -> Option<&'a Value> {
        let code = *self.codes().get(d)? as usize;
        self.space.params.get(d).map(|p| &p.values()[code])
    }

    /// The decoded value of parameter `d` as an `f64`, if numeric.
    pub fn as_f64(&self, d: usize) -> Option<f64> {
        self.value(d)?.as_f64()
    }

    /// Iterate over the decoded values in declaration order (borrowing).
    pub fn values(&self) -> impl ExactSizeIterator<Item = &'a Value> + '_ {
        let params = &self.space.params;
        self.codes()
            .iter()
            .zip(params.iter())
            .map(|(&code, p)| &p.values()[code as usize])
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
        self.space
            .params
            .iter()
            .map(|p| p.name())
            .zip(self.values())
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
    fn hash_index_lookups() {
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
        assert_eq!(s.codes_of(ConfigId::from_index(4)).unwrap(), &[2, 0]);
        assert_eq!(s.codes_of(ConfigId::from_index(1)).unwrap(), &[0, 1]);
        assert_eq!(
            s.index_of_codes(&[2, 0]),
            Some(ConfigId::from_index(4)),
            "encoded fast path agrees"
        );
        assert_eq!(s.index_of_codes(&[2, 1]), None); // (4, 2) is invalid
        assert_eq!(s.index_of_codes(&[0]), None); // wrong arity
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = space();
        for view in s.iter() {
            let decoded = view.to_vec();
            let codes = s.encode(&decoded).unwrap();
            assert_eq!(codes, view.codes());
            assert_eq!(s.index_of_codes(&codes), Some(view.id()));
            assert_eq!(s.index_of(&decoded), Some(view.id()));
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
        // indices are rebuilt for the subspace
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
            vec![int_values([1, 1]), int_values([2, 1])],
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
    }

    #[test]
    fn shared_storage_space_is_identical_to_owned() {
        let owned = space();
        let backing = std::sync::Arc::new(owned.arena().to_vec());
        let shared = SearchSpace::from_code_storage(
            "demo",
            owned.params().to_vec(),
            owned.len(),
            ArenaStorage::Shared(backing),
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
    fn adopted_index_answers_like_a_rebuilt_one() {
        let s = space();
        let slots = s.index_slots().to_vec();
        assert!(slots.len().is_power_of_two());
        for adoption in [Adoption::Trusted, Adoption::Verified] {
            let adopted = SearchSpace::from_code_storage_with_index(
                "demo",
                s.params().to_vec(),
                s.len(),
                ArenaStorage::from(s.arena().to_vec()),
                ArenaStorage::from(slots.clone()),
                adoption,
            )
            .unwrap();
            for view in s.iter() {
                assert_eq!(adopted.index_of(&view.to_vec()), Some(view.id()));
            }
            assert_eq!(adopted.index_of(&int_values([4, 2])), None);
            assert_eq!(adopted.index_slots(), s.index_slots());
        }
    }

    #[test]
    fn broken_index_slots_are_rejected_not_adopted() {
        let s = space();
        let arena = ArenaStorage::from(s.arena().to_vec());
        let adopt = |slots: Vec<u32>, adoption| {
            SearchSpace::from_code_storage_with_index(
                "demo",
                s.params().to_vec(),
                s.len(),
                arena.clone(),
                ArenaStorage::from(slots),
                adoption,
            )
        };
        // Not a power of two.
        let err = adopt(vec![EMPTY_SLOT; 9], Adoption::Trusted).unwrap_err();
        assert!(matches!(err, SpaceError::IndexInvalid { .. }), "{err}");
        // Occupant out of range.
        let mut slots = s.index_slots().to_vec();
        let occupied = slots.iter().position(|&o| o != EMPTY_SLOT).unwrap();
        slots[occupied] = 99;
        assert!(adopt(slots, Adoption::Trusted).is_err());
        // A full table would make probing non-terminating.
        assert!(adopt(vec![0u32; 8], Adoption::Trusted).is_err());
        // An empty table passes the structural checks but cannot answer for
        // any row: only the verified adoption's sampled lookups catch it.
        let empty = vec![EMPTY_SLOT; 8];
        assert!(adopt(empty.clone(), Adoption::Trusted).is_ok());
        let err = adopt(empty, Adoption::Verified).unwrap_err();
        assert!(matches!(err, SpaceError::IndexInvalid { .. }), "{err}");
    }

    /// The detail text of an [`SpaceError::IndexInvalid`] adoption error.
    fn invalid_detail(result: Result<SearchSpace, SpaceError>) -> String {
        match result {
            Err(SpaceError::IndexInvalid { detail }) => detail,
            other => panic!("expected IndexInvalid, got {other:?}"),
        }
    }

    #[test]
    fn adoption_errors_name_the_first_offender_in_slot_order() {
        let s = space();
        let adopt = |slots: Vec<u32>| {
            SearchSpace::from_code_storage_with_index(
                "demo",
                s.params().to_vec(),
                s.len(),
                ArenaStorage::from(s.arena().to_vec()),
                ArenaStorage::from(slots),
                Adoption::Trusted,
            )
        };
        // Two out-of-range occupants: the earlier slot is named, not the
        // larger occupant.
        let mut slots = s.index_slots().to_vec();
        let occupied: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i] != EMPTY_SLOT)
            .collect();
        slots[occupied[0]] = 50;
        slots[occupied[1]] = 99;
        assert_eq!(
            invalid_detail(adopt(slots)),
            "occupant 50 out of range for 5 rows"
        );
        // The row count itself is the first id out of range.
        let mut slots = s.index_slots().to_vec();
        slots[occupied[2]] = 5;
        assert_eq!(
            invalid_detail(adopt(slots)),
            "occupant 5 out of range for 5 rows"
        );
        // A full table.
        assert_eq!(
            invalid_detail(adopt(vec![0u32; 8])),
            "no empty slot; probing would not terminate"
        );
        // A full table with an out-of-range occupant reports the occupant.
        let mut full = vec![1u32; 8];
        full[6] = 7;
        assert_eq!(
            invalid_detail(adopt(full)),
            "occupant 7 out of range for 5 rows"
        );
        // The largest in-range occupant is fine.
        let mut slots = vec![EMPTY_SLOT; 8];
        slots[0] = 4;
        assert!(adopt(slots).is_ok());
    }

    #[test]
    fn adoption_checks_zero_row_spaces_and_empty_tables() {
        let params = vec![TunableParameter::ints("x", [1, 2])];
        let adopt = |slots: Vec<u32>, adoption| {
            SearchSpace::from_code_storage_with_index(
                "none",
                params.clone(),
                0,
                ArenaStorage::from(Vec::new()),
                ArenaStorage::from(slots),
                adoption,
            )
        };
        for adoption in [Adoption::Trusted, Adoption::Verified] {
            // A stray occupant 0 names a row a zero-row space lacks.
            let mut stray = vec![EMPTY_SLOT; 8];
            stray[3] = 0;
            assert_eq!(
                invalid_detail(adopt(stray, adoption)),
                "occupant 0 out of range for 0 rows"
            );
            // An all-empty table is the right table for no rows.
            let empty = adopt(vec![EMPTY_SLOT; 16], adoption).unwrap();
            assert!(empty.is_empty());
            assert_eq!(empty.index_of(&int_values([1])), None);
            assert_eq!(empty.index_slots(), &[EMPTY_SLOT; 16][..]);
        }
    }

    #[test]
    fn trusted_validation_defers_code_checks_but_not_shape_checks() {
        let s = space();
        let slots = ArenaStorage::from(s.index_slots().to_vec());
        let mut arena = s.arena().to_vec();
        arena[0] = 99; // out of every dictionary's range
        let build = |arena: Vec<u32>, rows: usize, adoption| {
            SearchSpace::from_code_storage_with_index(
                "demo",
                s.params().to_vec(),
                rows,
                ArenaStorage::from(arena),
                slots.clone(),
                adoption,
            )
        };
        // Verified: the bad code is reported eagerly.
        assert!(matches!(
            build(arena.clone(), s.len(), Adoption::Verified),
            Err(SpaceError::CodeOutOfRange { .. })
        ));
        // Trusted: adoption succeeds (decoding stays bounds-checked and
        // would panic on the bad cell, never decode wrongly)...
        assert!(build(arena.clone(), s.len(), Adoption::Trusted).is_ok());
        // ...but a ragged arena is still rejected even when trusted.
        arena.pop();
        assert!(matches!(
            build(arena, s.len(), Adoption::Trusted),
            Err(SpaceError::RaggedArena { .. })
        ));
    }

    #[test]
    fn duplicate_rows_resolve_to_the_first_occurrence() {
        let params = vec![TunableParameter::ints("x", [1, 2])];
        let configs = vec![int_values([1]), int_values([2]), int_values([1])];
        let s = SearchSpace::from_configs("dup", params, configs).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of(&int_values([1])), Some(ConfigId::from_index(0)));
    }
}
