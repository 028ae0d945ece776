//! # at-fuzz — in-tree fuzzing and differential oracles for the untrusted-byte parsers
//!
//! The workspace has exactly three surfaces that parse bytes we do not
//! control: the `ATSS` store reader (files arrive from cache
//! directories), the constraint expression pipeline (restriction strings
//! arrive from user specs and foreign spec importers), and the `ATSD`
//! daemon frame decoder (any local process can connect to the space
//! server's socket). This crate fuzzes all of them without any external
//! tooling — the
//! build environment has no registry, so no cargo-fuzz/libFuzzer — using a
//! seeded ChaCha8 mutation engine, format-aware input generators, and
//! *differential* oracles that compare independent implementations of the
//! same contract against each other. A fourth target points the same
//! restriction strings at the `at_check` static analyzer and holds its
//! verdicts to brute-force ground truth.
//!
//! Run it as
//!
//! ```text
//! cargo run --release -p at_fuzz -- <target> --iters N --seed S
//! ```
//!
//! where `<target>` is one of the five below (or `all`). Any failing
//! input is shrunk by greedy chunk removal and written to
//! `tests/fuzz_corpus/<target>/crash-<hash>.bin`; the whole corpus is
//! replayed by `cargo test` (see `tests/fuzz_corpus.rs`), so every crash
//! found once is a regression test forever.
//!
//! ## Target `atss_reader` — arbitrary bytes, strict reader
//!
//! Feeds mutated store files and raw garbage through
//! [`at_store::read_space_from_bytes`] (the strict, everything-checksummed
//! path). Oracle:
//!
//! * **No panic, no hang** — every outcome is a clean `Ok` or a typed
//!   [`at_store::StoreError`]; a slow iteration beyond the harness bound
//!   counts as a failure.
//! * **Peek differential** — [`at_store::peek_info`] (the metadata path
//!   behind `cache ls` and the daemon's warm resolve) runs the strict
//!   reader's parser over the file, read at offsets, where the strict
//!   reader runs it over the bytes in memory. So the differential compares
//!   the file source with the in-memory one: peek must never *reject* a
//!   file the strict reader accepts, and when both accept they must agree
//!   on every metadata field. Peek may accept damage the strict reader
//!   rejects (it skips the arena and index checksums and the code checks),
//!   but the same truncation or framing damage must classify the same
//!   way.
//!
//! ## Target `atss_load_differential` — mutated valid files, both load policies
//!
//! Writes a lightly mutated *valid* file to disk and loads it through
//! [`at_store::StoreReader::load`] under both policies: the verified copy
//! (`LoadOptions::default()`) and the trusted zero-copy mmap
//! (`LoadOptions::mmap_trusted()`). Oracle:
//!
//! * All successful loads are **code-for-code identical** (same name,
//!   params, row count, arena bytes) to each other and — when the strict
//!   reader accepts the file — to the strict read.
//! * Every successful load answers membership queries **consistently**:
//!   any id `index_of_codes` returns points back at exactly the queried
//!   codes, and when the index is known good (the load report says it was
//!   rebuilt from the arena, or the strict reader fully validated the
//!   file) every present row is found. A damaged persisted index may surface as a *reported*
//!   fallback ([`at_store::LoadReport::index_fallback`]), a clean error,
//!   or a miss — never a misattribution.
//!
//! ## Target `expr_pipeline` — restriction strings, fold/compile differential
//!
//! Feeds grammar-generated, grammar-mutated and raw-garbage strings
//! through lexer → parser → fold → compile → VM. Oracle, for every input
//! that parses:
//!
//! * **No panic, no hang** at any stage, for any input.
//! * **Display round-trip** — `parse(expr.to_string())` reproduces the
//!   identical AST.
//! * **Fold differential** — under sampled assignments (including
//!   error-provoking values), the folded AST's `evaluate` agrees with the
//!   unfolded AST's: same truthiness on `Ok`, an error exactly when the
//!   original errors (the restriction convention rejects erroring
//!   configurations, so folding may not erase or invent errors).
//! * **Compile differential** — when the folded AST compiles, the VM's
//!   verdict under the error→reject convention equals the reference
//!   interpreter's; likewise for the full optimizing and generic
//!   restriction lowerings when they succeed.
//!
//! ## Target `check_pipeline` — restriction strings, analyzer vs ground truth
//!
//! Feeds the same grammar-generated/mutated/garbage strings through
//! [`at_check::check_spec`] as the single restriction of a small spec
//! whose domains are derived from the input hash (cartesian product ≤
//! 243, so exhaustive enumeration is cheap). Oracle:
//!
//! * **No panic, no hang** in analysis or rendering; spans stay in
//!   bounds; parse failures surface as `AT0009`.
//! * **Verdict soundness** — a `Contradiction` verdict means brute force
//!   finds zero satisfying assignments; a `Tautology` verdict means every
//!   assignment satisfies, and dropping the restriction leaves the
//!   constructed space byte-identical.
//! * **Prunable soundness** — every reported prunable `(param, value)`
//!   appears in no satisfying assignment.
//! * **Pruned ≡ unpruned** — construction with analyzer-driven domain
//!   pre-pruning yields byte-identical arenas to construction without it.
//! * **Optimized ≡ brute force** — the optimized solver, searching in
//!   declaration order, builds the brute-force arena byte for byte, and in
//!   its default order holds the same rows. The spec is small enough that
//!   every constraint becomes one of the solver's bit tables, so arbitrary
//!   restriction strings (errors, floats, mixed types) reach them.
//!
//! ## Target `daemon_proto` — arbitrary bytes through the `ATSD` frame decoder
//!
//! Feeds mutated valid frames, spliced frame streams and raw garbage
//! through [`at_daemon::proto::Frame::decode`] and the blocking
//! [`at_daemon::proto::read_frame`] the daemon serves with. Oracle:
//!
//! * **No panic, no hang** — every input yields a frame or a typed
//!   [`at_daemon::ProtoError`]; the decoder does bounded work per byte.
//! * **Canonical encoding** — a decoded prefix re-encodes byte-for-byte,
//!   and re-decoding yields the same frame (one wire form per frame).
//! * **Buffer-vs-stream differential** — iterated `Frame::decode` over
//!   the buffer and `read_frame` over the same bytes as a stream agree
//!   frame for frame and error for error, with a clean end-of-stream
//!   exactly at a frame boundary.
//!
//! The corpus policy, smoke-vs-long run targets and reproduction recipes
//! are documented in the README's "Fuzzing & corpus policy" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atss;
pub mod checkgen;
pub mod daemonproto;
pub mod exprgen;
pub mod harness;
pub mod mutate;

pub use harness::{
    fnv1a, fuzz_target, minimize, replay_corpus, run_target, silence_panics, FuzzConfig,
    FuzzReport, Target, TargetFailure,
};
