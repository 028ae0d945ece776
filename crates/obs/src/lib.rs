//! `at_obs` — end-to-end tracing, unified metrics, and profiling hooks
//! for the construct → store → tune pipeline.
//!
//! The paper's core claim is about *where time and memory go* during
//! search-space construction; this crate is the instrumentation layer
//! that lets the repo answer that question on every run instead of ad
//! hoc. It provides:
//!
//! * [`recorder`] — a process-wide span/event recorder. Instrumented
//!   code calls [`span`]/[`event`]; the records land in mutex-striped
//!   per-thread buffers with monotonic [`std::time::Instant`]-based
//!   timestamps. A harness (the CLI, a test, a bench) calls
//!   [`enable`], runs the pipeline, then [`drain`]s the records.
//! * [`trace`] — a Chrome trace-event JSON exporter
//!   ([`trace::chrome_trace`]): the drained spans as an
//!   `about://tracing` / [Perfetto](https://ui.perfetto.dev)-loadable
//!   array of complete (`"ph":"X"`) events, one track per recorded
//!   thread.
//! * [`json`] — the tiny hand-rolled JSON value/writer the exporter is
//!   built on, and with it every machine-readable line the CLI and the
//!   daemon print (the `--json` lines, the `atss.metrics.v1` envelope,
//!   the daemon status).
//! * [`alloc`] — the counting global allocator (promoted from
//!   `benches/construction.rs`) so any binary that installs it can
//!   report peak transient heap bytes alongside the timeline.
//!
//! # The disabled-path cost contract
//!
//! The recorder starts **disabled** and instrumentation must be safe to
//! leave in hot paths permanently:
//!
//! * When disabled, [`span`] performs exactly one relaxed atomic load
//!   and returns a guard whose `Drop` is a no-op (no clock read, no
//!   allocation, no lock, no thread-local access). [`event`] is the
//!   same single load. This is the "compile-to-nothing" path: the
//!   branch is perfectly predicted and the cost is not measurable in
//!   any macro benchmark (`benches/obs.rs` asserts this).
//! * When enabled, a span costs two `Instant::now` reads plus one
//!   short striped-mutex push on drop — bounded, allocation-amortised,
//!   and still well under 5% of construction wall-clock on the paper
//!   workloads (`benches/obs.rs` asserts this too).
//!
//! # The zero-interference invariant
//!
//! Enabling the recorder must not change **any** observable output of
//! the pipeline: constructed spaces are byte-identical and tuning
//! trajectories are bit-identical with the recorder on or off. The
//! recorder only ever *reads* the clock and *writes* its own buffers —
//! it never touches RNG state, iteration order, thread counts, or any
//! data structure of the pipeline. `crates/cli/tests/proptest_obs.rs`
//! proves the invariant end-to-end under proptest.
//!
//! # Example
//!
//! ```
//! // An instrumented phase (library side):
//! fn solve_phase() {
//!     let _span = at_obs::span("solve", "construct").arg("nodes", 42);
//!     // ... work; the span records on drop ...
//! }
//!
//! // A harness (CLI side):
//! at_obs::enable();
//! solve_phase();
//! let spans = at_obs::drain();
//! at_obs::disable();
//! assert_eq!(spans.len(), 1);
//! let json = at_obs::trace::chrome_trace(&spans);
//! assert!(json.starts_with('['));
//! ```
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod json;
pub mod recorder;
pub mod trace;

pub use recorder::{
    disable, drain, enable, enabled, event, phase_totals, span, PhaseTotal, SpanGuard, SpanKind,
    SpanRecord,
};
