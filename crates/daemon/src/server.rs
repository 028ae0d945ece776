//! The resident space-server: accept loop, single-flight builds, pinning,
//! lifecycle hygiene.
//!
//! One [`Daemon`] owns a [`SpaceStore`] and a Unix listener. Every
//! connection runs on its own thread; every *build* runs on its own
//! worker thread keyed by [`SpecFingerprint`] in a single-flight table,
//! so N concurrent requests for the same cold spec cost exactly one
//! solver run — the first request spawns the worker, the rest subscribe
//! to its build slot and stream [`Frame::Building`] progress to their
//! clients while they wait. Completed entries are remembered in a
//! *validated* set: the daemon fully validates a file once (checksums,
//! index adoption) and afterwards serves it O(header) — a `peek_info`
//! plus the path, which the client mmaps with
//! `LoadOptions::mmap_trusted()`.
//!
//! Entries are pinned ([`SpaceStore::pin`]) from the moment a reply
//! references them until every connection holding that reply closes, so
//! the between-builds GC sweep ([`DaemonConfig::gc`]) can never delete a
//! file a client was just promised.
//!
//! Connections are accepted as they arrive: the listener blocks in
//! `accept`, with a receive timeout of `READ_POLL` so that an idle loop
//! still wakes that often.
//!
//! Shutdown: SIGTERM/SIGINT (via [`crate::signal`]), a `Shutdown` frame,
//! or [`DaemonHandle::request_shutdown`] all flip flags the accept loop
//! checks between accepts, so an idle daemon notices within `READ_POLL`.
//! The loop then stops accepting, joins every connection and build
//! worker — draining in-flight builds — and removes its socket and
//! pidfile.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use at_obs::json::Json;
use at_searchspace::{spec_from_json, BuildOptions, Method};
use at_store::{
    peek_info, read_space_from_path, CacheStatus, GcOptions, PinGuard, SpaceStore, SpecFingerprint,
};

use crate::error::DaemonError;
use crate::proto::{read_frame, write_frame, Frame, ServeKind, WireError, PROTOCOL_VERSION};
use crate::signal;

/// Receive timeout on the listener and on connection streams, so an idle
/// accept loop and idle connections observe shutdown promptly.
const READ_POLL: Duration = Duration::from_millis(150);
/// Cadence of `Building` progress frames streamed to waiting clients.
const PROGRESS_TICK: Duration = Duration::from_millis(100);

/// Everything a [`Daemon`] needs to bind.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The Unix socket path to serve on.
    pub socket: PathBuf,
    /// The cache directory the daemon owns.
    pub cache_dir: PathBuf,
    /// Pidfile path; defaults to `<socket>.pid`.
    pub pidfile: Option<PathBuf>,
    /// GC bounds applied after every build (pinned entries are skipped);
    /// `None` disables daemon-side sweeps.
    pub gc: Option<GcOptions>,
}

impl DaemonConfig {
    /// A config with default pidfile and no GC bounds.
    pub fn new(socket: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            cache_dir: cache_dir.into(),
            pidfile: None,
            gc: None,
        }
    }

    fn pidfile_path(&self) -> PathBuf {
        self.pidfile.clone().unwrap_or_else(|| {
            let mut os = self.socket.as_os_str().to_os_string();
            os.push(".pid");
            PathBuf::from(os)
        })
    }
}

/// What one daemon lifetime did, returned by [`Daemon::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Wall-clock service time.
    pub uptime: Duration,
    /// Connections accepted.
    pub connections: u64,
    /// Frames dispatched.
    pub requests: u64,
    /// Solver runs performed (cache misses).
    pub builds: u64,
    /// Requests served O(header) from the validated set.
    pub served_warm: u64,
    /// Requests that joined another request's in-flight build.
    pub coalesced: u64,
    /// Connections dropped for sending bytes that were not frames.
    pub proto_errors: u64,
}

/// One in-flight build, shared by its worker and every waiting request.
struct BuildSlot {
    fingerprint: SpecFingerprint,
    started: Instant,
    waiters: AtomicU32,
    state: Mutex<SlotState>,
    done: Condvar,
}

enum SlotState {
    Running,
    Done(Result<Served, String>),
}

/// A resolved entry, ready to describe in a `Ready` frame. The pin guard
/// travels with it (shared), so the entry stays gc-safe for as long as
/// any reply or connection still references it.
#[derive(Clone)]
struct Served {
    fingerprint: SpecFingerprint,
    path: PathBuf,
    file_bytes: u64,
    rows: u64,
    kind: ServeKind,
    build_us: u64,
    pin: Arc<PinGuard>,
}

struct ServerState {
    store: SpaceStore,
    socket: PathBuf,
    cache_dir: PathBuf,
    gc: Option<GcOptions>,
    started: Instant,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    builds: AtomicU64,
    served_warm: AtomicU64,
    coalesced: AtomicU64,
    proto_errors: AtomicU64,
    validated: Mutex<HashSet<SpecFingerprint>>,
    inflight: Mutex<HashMap<SpecFingerprint, Arc<BuildSlot>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || signal::shutdown_requested()
    }

    fn is_validated(&self, fp: &SpecFingerprint) -> bool {
        self.validated.lock().expect("validated set").contains(fp)
    }

    fn mark_validated(&self, fp: SpecFingerprint) {
        self.validated.lock().expect("validated set").insert(fp);
    }

    fn unmark_validated(&self, fp: &SpecFingerprint) {
        self.validated.lock().expect("validated set").remove(fp);
    }
}

/// A cloneable remote control for a running daemon (for tests and
/// embedders; external processes use the `Shutdown` frame or SIGTERM).
#[derive(Clone)]
pub struct DaemonHandle {
    state: Arc<ServerState>,
}

impl DaemonHandle {
    /// Ask the daemon to stop accepting, drain, and exit.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }

    /// A clone of the daemon's store (shares metrics and pins), e.g. to
    /// assert single-flight build counts in tests.
    pub fn store(&self) -> SpaceStore {
        self.state.store.clone()
    }

    /// The daemon's one-line `atss.daemon-status.v1` envelope.
    pub fn status_json(&self) -> String {
        status_json(&self.state)
    }
}

/// A bound, not-yet-running space-server. See the [module
/// documentation](self).
pub struct Daemon {
    listener: UnixListener,
    state: Arc<ServerState>,
    pidfile: PathBuf,
}

impl Daemon {
    /// Bind the socket, claim the pidfile, and install signal handlers.
    ///
    /// Socket-path ownership: if the path exists and a daemon answers on
    /// it, this fails with [`DaemonError::AlreadyRunning`]; if nothing
    /// answers (a previous daemon died without cleanup), the stale socket
    /// is taken over.
    pub fn bind(config: DaemonConfig) -> Result<Daemon, DaemonError> {
        if config.socket.exists() {
            match UnixStream::connect(&config.socket) {
                Ok(_) => {
                    return Err(DaemonError::AlreadyRunning {
                        socket: config.socket.clone(),
                    })
                }
                Err(_) => {
                    // Stale socket: no listener behind it. Take it over.
                    std::fs::remove_file(&config.socket)
                        .map_err(|e| DaemonError::io(&config.socket, e))?;
                }
            }
        }
        let store = SpaceStore::new(&config.cache_dir)?;
        let listener = UnixListener::bind(&config.socket)
            .and_then(|l| with_accept_timeout(l, READ_POLL))
            .map_err(|e| DaemonError::io(&config.socket, e))?;
        let pidfile = config.pidfile_path();
        let mut f = std::fs::File::create(&pidfile).map_err(|e| DaemonError::io(&pidfile, e))?;
        writeln!(f, "{}", std::process::id()).map_err(|e| DaemonError::io(&pidfile, e))?;
        signal::install();
        signal::clear();
        Ok(Daemon {
            listener,
            state: Arc::new(ServerState {
                store,
                socket: config.socket,
                cache_dir: config.cache_dir,
                gc: config.gc,
                started: Instant::now(),
                shutdown: AtomicBool::new(false),
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                builds: AtomicU64::new(0),
                served_warm: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                proto_errors: AtomicU64::new(0),
                validated: Mutex::new(HashSet::new()),
                inflight: Mutex::new(HashMap::new()),
                workers: Mutex::new(Vec::new()),
            }),
            pidfile,
        })
    }

    /// The socket this daemon serves on.
    pub fn socket(&self) -> &Path {
        &self.state.socket
    }

    /// A remote control for this daemon (usable from other threads while
    /// [`Daemon::run`] blocks).
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until shutdown is requested, then drain and clean up.
    /// Blocks the calling thread for the daemon's whole life.
    pub fn run(self) -> Result<DaemonSummary, DaemonError> {
        let state = self.state;
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        while !state.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let id = state.connections.fetch_add(1, Ordering::Relaxed);
                    at_obs::event("accept", "daemon", &[("conn", id)]);
                    let state = Arc::clone(&state);
                    conn_threads.push(std::thread::spawn(move || handle_conn(state, stream)));
                }
                // The receive timeout expired with no client waiting.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                // A hard error such as EMFILE: pause so the loop cannot spin.
                Err(_) => std::thread::sleep(READ_POLL),
            }
            conn_threads.retain(|h| !h.is_finished());
        }
        // Drain: stop accepting, finish every connection and in-flight
        // build, only then remove the socket and pidfile.
        drop(self.listener);
        for h in conn_threads {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *state.workers.lock().expect("worker list"));
        for h in workers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&state.socket);
        let _ = std::fs::remove_file(&self.pidfile);
        Ok(DaemonSummary {
            uptime: state.started.elapsed(),
            connections: state.connections.load(Ordering::Relaxed),
            requests: state.requests.load(Ordering::Relaxed),
            builds: state.builds.load(Ordering::Relaxed),
            served_warm: state.served_warm.load(Ordering::Relaxed),
            coalesced: state.coalesced.load(Ordering::Relaxed),
            proto_errors: state.proto_errors.load(Ordering::Relaxed),
        })
    }
}

/// Give `listener` a receive timeout, which Linux `accept(2)` honours
/// (socket(7), `SO_RCVTIMEO`): `accept` then fails with `WouldBlock` once
/// `timeout` passes with no client. A blocking `accept` without one would
/// never return on SIGTERM, since the handler is installed with
/// `SA_RESTART` and std retries `accept` on `EINTR`. std sets the option
/// only on streams, so the fd makes an `OwnedFd` round trip through a
/// `UnixStream` (both are plain socket fds): a raw `setsockopt` would need
/// `unsafe`.
fn with_accept_timeout(listener: UnixListener, timeout: Duration) -> std::io::Result<UnixListener> {
    let stream = UnixStream::from(OwnedFd::from(listener));
    stream.set_read_timeout(Some(timeout))?;
    Ok(UnixListener::from(OwnedFd::from(stream)))
}

/// What a dispatched frame tells the connection loop to do next.
enum Flow {
    Continue,
    Close,
}

fn handle_conn(state: Arc<ServerState>, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Pins held on behalf of this connection: every entry referenced by a
    // reply stays gc-safe until the connection closes.
    let mut pins: Vec<Arc<PinGuard>> = Vec::new();
    loop {
        match read_frame(&mut stream) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                let span = at_obs::span("dispatch", "daemon");
                let flow = dispatch(&state, &mut stream, frame, &mut pins);
                drop(span);
                match flow {
                    Flow::Continue => {}
                    Flow::Close => break,
                }
            }
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutting_down() {
                    break;
                }
            }
            Err(WireError::Io(_)) => break,
            Err(WireError::Proto(e)) => {
                // Bad bytes: framing is lost, so report once and close.
                state.proto_errors.fetch_add(1, Ordering::Relaxed);
                let _ = reply(
                    &mut stream,
                    &Frame::ErrorReply {
                        code: 400,
                        message: e.to_string(),
                    },
                );
                break;
            }
        }
    }
}

/// Write one reply frame inside a `reply` span.
fn reply(stream: &mut UnixStream, frame: &Frame) -> Result<(), WireError> {
    let _span = at_obs::span("reply", "daemon");
    write_frame(stream, frame)
}

fn ready_frame(served: &Served) -> Frame {
    Frame::Ready {
        fingerprint: served.fingerprint,
        path: served.path.display().to_string(),
        file_bytes: served.file_bytes,
        rows: served.rows,
        served: served.kind,
        build_us: served.build_us,
    }
}

fn dispatch(
    state: &Arc<ServerState>,
    stream: &mut UnixStream,
    frame: Frame,
    pins: &mut Vec<Arc<PinGuard>>,
) -> Flow {
    match frame {
        Frame::Ping => {
            let pong = Frame::Pong {
                pid: std::process::id() as u64,
                uptime_ms: state.started.elapsed().as_millis() as u64,
            };
            if reply(stream, &pong).is_err() {
                return Flow::Close;
            }
            Flow::Continue
        }
        Frame::Status => {
            let frame = Frame::StatusReply {
                json: status_json(state),
            };
            if reply(stream, &frame).is_err() {
                return Flow::Close;
            }
            Flow::Continue
        }
        Frame::Shutdown => {
            let _ = reply(stream, &Frame::Bye);
            state.shutdown.store(true, Ordering::Release);
            Flow::Close
        }
        Frame::Get { fingerprint } => {
            match serve_existing(state, &fingerprint) {
                Some(served) => {
                    pins.push(Arc::clone(&served.pin));
                    if served.kind == ServeKind::Warm {
                        state.served_warm.fetch_add(1, Ordering::Relaxed);
                    }
                    if reply(stream, &ready_frame(&served)).is_err() {
                        return Flow::Close;
                    }
                }
                None => {
                    if reply(stream, &Frame::NotFound { fingerprint }).is_err() {
                        return Flow::Close;
                    }
                }
            }
            Flow::Continue
        }
        Frame::Resolve {
            spec_json,
            method,
            prune,
        } => match resolve(state, stream, &spec_json, &method, prune) {
            Ok(served) => {
                pins.push(Arc::clone(&served.pin));
                if served.kind == ServeKind::Warm {
                    state.served_warm.fetch_add(1, Ordering::Relaxed);
                }
                if served.kind == ServeKind::Coalesced {
                    state.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                if reply(stream, &ready_frame(&served)).is_err() {
                    return Flow::Close;
                }
                Flow::Continue
            }
            Err(ResolveError::ClientGone) => Flow::Close,
            Err(ResolveError::Reply { code, message }) => {
                if reply(stream, &Frame::ErrorReply { code, message }).is_err() {
                    return Flow::Close;
                }
                Flow::Continue
            }
        },
        // Response-only frames arriving as requests: a confused peer.
        Frame::Ready { .. }
        | Frame::Building { .. }
        | Frame::NotFound { .. }
        | Frame::ErrorReply { .. }
        | Frame::StatusReply { .. }
        | Frame::Bye
        | Frame::Pong { .. } => {
            let _ = reply(
                stream,
                &Frame::ErrorReply {
                    code: 400,
                    message: "response frame sent as a request".to_string(),
                },
            );
            Flow::Close
        }
    }
}

/// Serve an entry that already exists on disk, without ever building.
/// Validated entries are O(header): `peek_info` + the path. First touch
/// of an existing entry pays one full validation; a file that fails it is
/// treated as absent (the `Resolve` path repairs it by rebuild).
fn serve_existing(state: &Arc<ServerState>, fp: &SpecFingerprint) -> Option<Served> {
    let path = state.store.path_for(fp);
    if !path.exists() {
        state.unmark_validated(fp);
        return None;
    }
    if state.is_validated(fp) {
        match peek_info(&path) {
            Ok(info) => {
                return Some(Served {
                    fingerprint: *fp,
                    path,
                    file_bytes: info.file_bytes,
                    rows: info.num_rows as u64,
                    kind: ServeKind::Warm,
                    build_us: 0,
                    pin: Arc::new(state.store.pin(fp)),
                })
            }
            Err(_) => state.unmark_validated(fp),
        }
    }
    // Full validation: every checksum, index adoption with sampled
    // verification. This is the moment the daemon takes responsibility
    // for the bytes its clients will mmap without re-checking.
    match read_space_from_path(&path) {
        Ok((space, info)) => {
            state.mark_validated(*fp);
            Some(Served {
                fingerprint: *fp,
                path,
                file_bytes: info.file_bytes,
                rows: space.len() as u64,
                kind: ServeKind::Validated,
                build_us: 0,
                pin: Arc::new(state.store.pin(fp)),
            })
        }
        Err(_) => None,
    }
}

enum ResolveError {
    /// The waiting client's socket died; close the connection.
    ClientGone,
    /// Send this error frame.
    Reply { code: u16, message: String },
}

/// Get-or-build by inline spec: the single-flight path.
fn resolve(
    state: &Arc<ServerState>,
    stream: &mut UnixStream,
    spec_json: &str,
    method_label: &str,
    prune: bool,
) -> Result<Served, ResolveError> {
    let spec = spec_from_json(spec_json).map_err(|e| ResolveError::Reply {
        code: 400,
        message: format!("bad spec: {e}"),
    })?;
    let method = Method::from_label(method_label).ok_or_else(|| ResolveError::Reply {
        code: 400,
        message: format!("unknown method `{method_label}`"),
    })?;
    let fp = SpecFingerprint::compute(&spec, method.default_lowering()).map_err(|e| {
        ResolveError::Reply {
            code: 422,
            message: e.to_string(),
        }
    })?;

    // Fast path: validated entry on disk.
    if state.is_validated(&fp) {
        if let Some(served) = serve_existing(state, &fp) {
            return Ok(served);
        }
    }
    // Single-flight: first request for a fingerprint spawns the worker,
    // the rest subscribe to its slot. A worker marks its entry validated
    // before it retires its slot, so finding neither under the lock means
    // no build of this entry is running or has finished.
    let (slot, creator) = loop {
        let mut inflight = state.inflight.lock().expect("inflight table");
        if let Some(slot) = inflight.get(&fp) {
            break (Arc::clone(slot), false);
        }
        if !state.is_validated(&fp) {
            let slot = Arc::new(BuildSlot {
                fingerprint: fp,
                started: Instant::now(),
                waiters: AtomicU32::new(0),
                state: Mutex::new(SlotState::Running),
                done: Condvar::new(),
            });
            inflight.insert(fp, Arc::clone(&slot));
            spawn_build_worker(state, Arc::clone(&slot), spec.clone(), method, prune);
            break (slot, true);
        }
        // A build finished after the fast path looked: serve its entry.
        drop(inflight);
        if let Some(served) = serve_existing(state, &fp) {
            return Ok(served);
        }
    };
    match wait_streaming(stream, &slot)? {
        Ok(mut served) => {
            if !creator {
                served.kind = ServeKind::Coalesced;
            }
            Ok(served)
        }
        Err(message) => Err(ResolveError::Reply { code: 500, message }),
    }
}

/// Block on a build slot, streaming `Building` frames to the client every
/// [`PROGRESS_TICK`] until the worker publishes a result.
fn wait_streaming(
    stream: &mut UnixStream,
    slot: &BuildSlot,
) -> Result<Result<Served, String>, ResolveError> {
    slot.waiters.fetch_add(1, Ordering::Relaxed);
    let result = loop {
        let guard = slot.state.lock().expect("slot state");
        if let SlotState::Done(result) = &*guard {
            break result.clone();
        }
        let (guard, _timeout) = slot
            .done
            .wait_timeout(guard, PROGRESS_TICK)
            .expect("slot state");
        if let SlotState::Done(result) = &*guard {
            break result.clone();
        }
        drop(guard);
        let progress = Frame::Building {
            fingerprint: slot.fingerprint,
            elapsed_ms: slot.started.elapsed().as_millis() as u64,
            waiters: slot.waiters.load(Ordering::Relaxed),
        };
        if write_frame(stream, &progress).is_err() {
            slot.waiters.fetch_sub(1, Ordering::Relaxed);
            return Err(ResolveError::ClientGone);
        }
    };
    slot.waiters.fetch_sub(1, Ordering::Relaxed);
    Ok(result)
}

/// Run one build on a dedicated worker thread: solve (or validate the
/// existing file), publish the result to the slot, retire the slot, then
/// apply the daemon's GC bounds (pinned entries skipped).
fn spawn_build_worker(
    state: &Arc<ServerState>,
    slot: Arc<BuildSlot>,
    spec: at_searchspace::SearchSpaceSpec,
    method: Method,
    prune: bool,
) {
    let state_for_worker = Arc::clone(state);
    let handle = std::thread::spawn(move || {
        let state = state_for_worker;
        let span = at_obs::span("build", "daemon");
        let options = BuildOptions {
            prune,
            ..BuildOptions::default()
        };
        let built = catch_unwind(AssertUnwindSafe(|| {
            state.store.get_or_build_with(&spec, method, options)
        }));
        let result = match built {
            Ok(Ok((space, out))) => {
                let fp = slot.fingerprint;
                state.mark_validated(fp);
                let kind = match out.status {
                    CacheStatus::Hit => ServeKind::Validated,
                    _ => {
                        state.builds.fetch_add(1, Ordering::Relaxed);
                        ServeKind::Built
                    }
                };
                Ok(Served {
                    fingerprint: fp,
                    path: out.path.unwrap_or_else(|| state.store.path_for(&fp)),
                    file_bytes: out.file_bytes,
                    rows: space.len() as u64,
                    kind,
                    build_us: out.duration.as_micros() as u64,
                    pin: Arc::new(state.store.pin(&fp)),
                })
            }
            Ok(Err(e)) => Err(format!("build failed: {e}")),
            Err(_) => Err("build panicked".to_string()),
        };
        drop(span.arg("rows", result.as_ref().map(|s| s.rows).unwrap_or(0)));
        {
            let mut guard = slot.state.lock().expect("slot state");
            *guard = SlotState::Done(result);
        }
        slot.done.notify_all();
        state
            .inflight
            .lock()
            .expect("inflight table")
            .remove(&slot.fingerprint);
        // Between-builds GC: bound the cache now that it just grew.
        // Pinned entries (anything a live reply references, including the
        // one just published) are reported and skipped.
        if let Some(gc) = state.gc {
            let _ = state.store.gc_with(gc);
        }
    });
    state.workers.lock().expect("worker list").push(handle);
}

/// Assemble the one-line `atss.daemon-status.v1` envelope.
fn status_json(state: &ServerState) -> String {
    let mut doc = Json::obj();
    doc.push("schema", Json::Str("atss.daemon-status.v1".to_string()));
    doc.push("protocol_version", Json::U64(PROTOCOL_VERSION as u64));
    doc.push("pid", Json::U64(std::process::id() as u64));
    doc.push("socket", Json::Str(state.socket.display().to_string()));
    doc.push(
        "cache_dir",
        Json::Str(state.cache_dir.display().to_string()),
    );
    doc.push(
        "uptime_ms",
        Json::U64(state.started.elapsed().as_millis() as u64),
    );
    doc.push(
        "connections",
        Json::U64(state.connections.load(Ordering::Relaxed)),
    );
    doc.push(
        "requests",
        Json::U64(state.requests.load(Ordering::Relaxed)),
    );
    doc.push("builds", Json::U64(state.builds.load(Ordering::Relaxed)));
    doc.push(
        "served_warm",
        Json::U64(state.served_warm.load(Ordering::Relaxed)),
    );
    doc.push(
        "coalesced",
        Json::U64(state.coalesced.load(Ordering::Relaxed)),
    );
    doc.push(
        "proto_errors",
        Json::U64(state.proto_errors.load(Ordering::Relaxed)),
    );
    doc.push(
        "validated",
        Json::U64(state.validated.lock().expect("validated set").len() as u64),
    );
    doc.push("pinned", Json::U64(state.store.pinned_count() as u64));

    let mut inflight = Vec::new();
    for slot in state.inflight.lock().expect("inflight table").values() {
        let mut entry = Json::obj();
        entry.push("fingerprint", Json::Str(slot.fingerprint.to_hex()));
        entry.push(
            "elapsed_ms",
            Json::U64(slot.started.elapsed().as_millis() as u64),
        );
        entry.push(
            "waiters",
            Json::U64(slot.waiters.load(Ordering::Relaxed) as u64),
        );
        inflight.push(entry);
    }
    doc.push("inflight", Json::Arr(inflight));

    doc.push("store", state.store.metrics().to_json());

    let (entries, entry_bytes) = match state.store.entries() {
        Ok(list) => (list.len() as u64, list.iter().map(|e| e.bytes).sum()),
        Err(_) => (0, 0),
    };
    doc.push("entries", Json::U64(entries));
    doc.push("entry_bytes", Json::U64(entry_bytes));
    doc.to_string()
}
