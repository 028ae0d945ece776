//! # at-store — binary persistence and the content-addressed construction cache
//!
//! The paper's Section 4.3.4 argues that solver output formats must stay
//! close to the internal representation, because rearranging the output can
//! cost as much as construction itself. This crate takes that argument to
//! disk — and then all the way to zero copies: a resolved
//! [`SearchSpace`](at_searchspace::SearchSpace) is persisted as its sorted
//! `u64` rank array **verbatim** (the `ATSS` format, v3), so a space is
//! solved *once* and every later process serves it with no re-solving and
//! no re-encoding. The verified copy rebuilds nothing but the in-memory
//! buffer; the trusted `mmap(2)` load borrows the ranks straight out of the
//! page cache — O(header) work, no rank byte read, one resident copy shared
//! by every process that maps the same entry.
//!
//! Four layers:
//!
//! * [`write_space`] / [`StoreReader`] — the `ATSS` file format.
//!   `write_space` persists a constructed space verbatim, once;
//!   [`StoreReader::load`] takes one of two [`LoadOptions`] policies (the
//!   verified copy or the trusted zero-copy mmap) and returns a
//!   [`LoadReport`] of what actually happened.
//! * [`mmap`] — the hand-rolled `mmap(2)` wrapper behind the zero-copy
//!   path (Linux FFI against the already-linked C library; owned-copy
//!   fallback elsewhere).
//! * [`SpecFingerprint`] — deterministic content-addressing of a
//!   [`SearchSpaceSpec`](at_searchspace::SearchSpaceSpec) +
//!   [`RestrictionLowering`](at_searchspace::RestrictionLowering) pair
//!   (see [`fingerprint`] for the exact coverage and stability guarantees).
//! * [`SpaceStore`] — the cache: [`SpaceStore::entry_for`] names a spec's
//!   entry, and [`SpaceStore::get_or_build_with_options`] builds a miss
//!   with `at_searchspace::build_search_space_with`, then persists it with
//!   atomic temp-file + rename writes, validation with fallback to rebuild
//!   (a corrupt or stale entry is never served by the verified copy),
//!   hit/miss/rebuild/latency [`SpaceStore::metrics`], and LRU
//!   [`SpaceStore::gc_with`] bounded by bytes and entry count.
//!
//! ```
//! use at_searchspace::{Method, SearchSpaceSpec, TunableParameter};
//! use at_store::SpaceStore;
//!
//! let dir = std::env::temp_dir().join("at-store-doctest");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let spec = SearchSpaceSpec::new("doc")
//!     .with_param(TunableParameter::pow2("x", 6))
//!     .with_param(TunableParameter::pow2("y", 5))
//!     .with_expr("x * y <= 64");
//!
//! let store = SpaceStore::new(&dir).unwrap();
//! let (cold, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
//! assert_eq!(out.status.label(), "miss");       // solved and persisted
//! let (warm, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
//! assert!(out.status.is_hit());                 // loaded, zero solving
//! assert_eq!(cold.arena(), warm.arena());       // rank-for-rank identical
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! # The `ATSS` format, byte by byte
//!
//! All integers are little-endian. A *string* is a `u32` byte length
//! followed by that many UTF-8 bytes. A *value* is one tag byte followed by
//! its payload: `0x01` + `i64` (int), `0x02` + IEEE-754 bit pattern as
//! `u64` (float), `0x03` + `0x00`/`0x01` (bool), `0x04` + string (str).
//!
//! This build writes **version 3** and reads only version 3: every reader
//! rejects any other version with [`StoreError::UnsupportedVersion`]. The
//! layout:
//!
//! ```text
//! offset   size  field
//! 0        4     magic, the ASCII bytes "ATSS"
//! 4        4     format version, u32 (3)
//!
//! --- HEADER section -------------------------------------------------------
//! 8        4     section tag "HDR\0"
//! 12       8     payload length H, u64
//! 20       H     payload:  name : string
//!                          num_params : u32
//! 20+H     4     CRC-32 (IEEE) of the H payload bytes
//!
//! --- PARAMS section -------------------------------------------------------
//! .        4     section tag "PAR\0"
//! .        8     payload length P, u64
//! .        P     payload, per parameter in declaration order:
//!                          name : string
//!                          num_values : u32
//!                          num_values x value     (the dictionary, in
//!                                                  code order: code k is
//!                                                  the k-th value)
//! .        4     CRC-32 of the P payload bytes
//!
//! --- RANK section ---------------------------------------------------------
//! .        4     section tag "RNK\0"
//! .        4     pad length p, u32 (0..=7)
//! .        p     p zero bytes, chosen so the next offset is a multiple
//!                of 8 — the *alignment rule* that makes a `&[u64]` view
//!                over the mmapped file valid (mmap memory is
//!                page-aligned, so file-offset alignment is pointer
//!                alignment)
//! .        N*8   the ranks, verbatim: one u64 per configuration, strictly
//!                ascending — exactly `SearchSpace::arena()`. A rank is the
//!                row's mixed-radix index in the Cartesian product, last
//!                parameter fastest: sum over p of code_p * stride_p, with
//!                stride_p the product of the later dictionary sizes
//!
//! --- TRAILER (always the last 16 bytes) -----------------------------------
//! end-16   4     trailer tag "END\0"
//! end-12   8     row count N, u64      (written last, so a half-written
//!                                       file has no trailer)
//! end-4    4     CRC-32 of the N*8 rank bytes
//! ```
//!
//! The rank section's length is not stored explicitly: the ranks fill the
//! file from the padding to the trailer, and that span must be exactly
//! `N x 8` bytes, so truncation, a crashed half-write (no trailer) and
//! trailer/rank disagreement are all detected. Every metadata byte is
//! covered by a section CRC and every rank byte by the trailer CRC.
//!
//! # Trust policy of the zero-copy path
//!
//! [`StoreReader::load`] takes one of two [`LoadOptions`] policies, one
//! per real use. [`LoadOptions::default`] is the verified copy: every
//! checksum, then one pass that the ranks strictly ascend and stay below
//! the Cartesian size, each failure a typed error. [`LoadOptions::mmap_trusted`]
//! is the zero-copy path: O(header), with neither the rank checksum (it
//! would fault in every page) nor the rank pass, and a fallback to the
//! verified copy wherever a mapping cannot be served. It serves both a
//! process that maps a cache entry on its own and a space-server client,
//! whose server verified the whole file before it handed out the path.
//! Forged ranks under the trusted mmap can only give wrong answers, never
//! unsafety: a lookup is a binary search, which is memory-safe over any
//! `u64`s, and decoding takes a modulo, so no code leaves its dictionary.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod cache;
pub mod checksum;
pub mod error;
pub mod fingerprint;
pub mod format;
pub mod mmap;

pub use cache::{
    CacheStatus, EntryKey, GcOptions, GcReport, PinGuard, SpaceStore, StoreEntry, StoreMetrics,
    StoreOutcome,
};
pub use error::StoreError;
pub use fingerprint::SpecFingerprint;
pub use format::{
    load_space_from_path, peek_info, read_space_from_bytes, read_space_from_path, write_space,
    write_space_to_path, ArenaOutcome, LoadOptions, LoadReport, LoadedSpace, StoreInfo,
    StoreReader, StoreSummary, FORMAT_VERSION, MAGIC,
};
pub use mmap::{MapError, MappedFile, MappedRanks};
