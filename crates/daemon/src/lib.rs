//! # at-daemon — the resident space-server (`atssd`)
//!
//! The paper's economics (Section 4.3.4) say a search space should be
//! solved **once** and then served from a representation close to its
//! internal form. The store crate delivers the passive half: any number
//! of processes can `mmap` the same `ATSS` cache entry and share one
//! resident copy of its ranks. This crate is the active half: a
//! long-lived daemon that *owns* a [`SpaceStore`](at_store::SpaceStore),
//! dedupes concurrent builds, and hands clients validated paths to
//! attach to in O(header).
//!
//! ```text
//!   tuner 1 ──┐                          ┌─ mmap ──► one resident
//!   tuner 2 ──┼─ Unix socket ─► atssd ───┤            ranks in the
//!   tuner N ──┘   (ATSD frames)  │       └─ mmap ──►  page cache
//!                                └─ SpaceStore (solve once, validate once)
//! ```
//!
//! ## The protocol
//!
//! [`proto`] defines the hand-rolled `ATSD` wire format: length-prefixed,
//! versioned, canonical frames over a Unix domain socket (no
//! dependencies; `std::os::unix::net`). Clients request a space by
//! [`SpecFingerprint`](at_store::SpecFingerprint) (`Get`) or by inline
//! spec source (`Resolve`); the daemon answers `Ready` with the validated
//! cache path, `NotFound`, or streams `Building` progress frames while a
//! build is in flight. See the [`proto`] module docs for the byte-level
//! frame layout.
//!
//! ## Single-flight builds
//!
//! Concurrent `Resolve`s of the same fingerprint trigger **exactly one**
//! solver run: the first request spawns a build worker, later requests
//! subscribe to the same build slot and stream progress to their clients
//! until the worker publishes the result ([`server`]). A request that
//! waited on a solver run is answered `Coalesced`; one that waited on the
//! first validation of an entry already on disk shares its `Validated`
//! answer. This is what the meta-tuning fleet needs: many tuner processes
//! hammering the same spec cost one construction.
//!
//! ## The trust model
//!
//! A client attaches with `LoadOptions::mmap_trusted()` — zero-copy mmap
//! of the rank section, O(header), **no rank CRC walk and no rank-order
//! pass**. That is sound because the daemon validated the exact file
//! first. On first touch of an existing entry it runs the verified copy:
//! every checksum, and one pass that the ranks strictly ascend below the
//! Cartesian size — the strict read (`read_space_from_path`) when it
//! serves the entry directly, or the cache's verified load in a build
//! worker, which rebuilds a damaged entry before serving it. Entries it
//! built itself were written by its own writer and published by atomic
//! rename. From then on the entry is *validated* and served O(header)
//! (`peek_info` + the path). The entry cannot be deleted out from under a
//! client either: every reply pins the entry ([`at_store::PinGuard`])
//! until the referencing connection closes, and the daemon's own GC
//! sweeps skip pinned entries. What the trust model does **not** cover —
//! by design — is an external writer scribbling on the cache directory;
//! the deployment contract is that the daemon owns its cache directory,
//! exactly like any database owns its data files. Even then a forged rank
//! section can only give wrong answers, never unsafety.
//!
//! ## Lifecycle
//!
//! [`server::Daemon::bind`] claims the socket path (refusing when a live
//! daemon answers on it, taking over a stale socket left by a crash),
//! writes a pidfile, and installs SIGTERM/SIGINT handlers ([`signal`])
//! that flip an atomic flag. [`server::Daemon::run`] accepts connections
//! as they arrive and checks that flag between accepts; its `accept`
//! times out every 150 ms, so an idle daemon notices shutdown within that.
//! On shutdown it stops accepting, **drains** — every connection finishes
//! its request, every in-flight build completes and notifies its waiters
//! — and only then removes the socket and pidfile.
//!
//! ```no_run
//! use at_daemon::{Daemon, DaemonClient, DaemonConfig};
//! use at_searchspace::{Method, SearchSpaceSpec, TunableParameter};
//!
//! // Server process:
//! let daemon = Daemon::bind(DaemonConfig::new("/tmp/atssd.sock", "/tmp/atss-cache"))?;
//! let handle = daemon.handle();
//! std::thread::spawn(move || daemon.run());
//!
//! // Client process:
//! let spec = SearchSpaceSpec::new("demo")
//!     .with_param(TunableParameter::pow2("x", 5))
//!     .with_param(TunableParameter::pow2("y", 4))
//!     .with_expr("x * y <= 64");
//! let mut client = DaemonClient::connect("/tmp/atssd.sock")?;
//! let resolved = client.resolve_spec(&spec, Method::Optimized, false, |_| {})?;
//! let loaded = resolved.attach()?;          // mmap, O(header)
//! assert_eq!(loaded.space.len() as u64, resolved.rows);
//! handle.request_shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod error;
pub mod proto;
pub mod signal;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;

pub use error::DaemonError;
pub use proto::{Frame, ProtoError, ServeKind, WireError, MAX_PAYLOAD, PROTOCOL_VERSION};

#[cfg(unix)]
pub use client::{BuildProgress, DaemonClient, PongInfo, Resolved};
#[cfg(unix)]
pub use server::{Daemon, DaemonConfig, DaemonHandle, DaemonSummary};
