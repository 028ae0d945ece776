//! Client side of the `ATSD` protocol: connect, resolve, attach.
//!
//! The client never checksums the file itself: it asks the daemon for a
//! validated path and mmaps it with `LoadOptions::mmap_trusted()` —
//! O(header), no solve, no rank copy, no CRC walk. See the
//! [crate documentation](crate) for why that trust is sound.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use at_searchspace::{spec_to_json, Method, SearchSpaceSpec};
use at_store::{load_space_from_path, LoadOptions, LoadedSpace, SpecFingerprint, StoreError};

use crate::error::DaemonError;
use crate::proto::{read_frame, write_frame, Frame, ServeKind};

/// Progress of an in-flight build, as reported by `Building` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildProgress {
    /// The spec being built.
    pub fingerprint: SpecFingerprint,
    /// Milliseconds since the daemon started the build.
    pub elapsed_ms: u64,
    /// Requests currently waiting on the same build.
    pub waiters: u32,
}

/// A daemon's answer to a get/resolve request: where the validated entry
/// lives and how the request was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// The entry's cache key.
    pub fingerprint: SpecFingerprint,
    /// Absolute path of the validated `ATSS` file (same filesystem as
    /// the daemon).
    pub path: PathBuf,
    /// Size of that file in bytes.
    pub file_bytes: u64,
    /// Configuration rows in the space.
    pub rows: u64,
    /// How the daemon satisfied the request.
    pub served: ServeKind,
    /// Build wall-clock microseconds (0 for warm/validated serves).
    pub build_us: u64,
}

impl Resolved {
    /// Attach to the resolved space: the trusted zero-copy mmap of the
    /// daemon's validated path, which reads no rank byte (the daemon
    /// verified every checksum of this file, and its rank order, before
    /// its first serve). This is the O(header) step the whole protocol
    /// exists for.
    pub fn attach(&self) -> Result<LoadedSpace, StoreError> {
        load_space_from_path(&self.path, LoadOptions::mmap_trusted())
    }
}

/// Reply to a [`DaemonClient::ping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PongInfo {
    /// The daemon's process id.
    pub pid: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
}

/// One connection to a running daemon.
pub struct DaemonClient {
    stream: UnixStream,
    socket: PathBuf,
}

impl DaemonClient {
    /// Connect to the daemon serving `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> Result<DaemonClient, DaemonError> {
        let socket = socket.as_ref().to_path_buf();
        let stream = UnixStream::connect(&socket).map_err(|e| DaemonError::io(&socket, e))?;
        Ok(DaemonClient { stream, socket })
    }

    /// Like [`DaemonClient::connect`], but retry for up to `timeout`
    /// while the daemon is still coming up (its socket not bound yet).
    pub fn connect_with_retry(
        socket: impl AsRef<Path>,
        timeout: Duration,
    ) -> Result<DaemonClient, DaemonError> {
        let socket = socket.as_ref();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match DaemonClient::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), DaemonError> {
        write_frame(&mut self.stream, frame).map_err(DaemonError::from)
    }

    fn recv(&mut self) -> Result<Frame, DaemonError> {
        match read_frame(&mut self.stream) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(DaemonError::io(
                &self.socket,
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ),
            )),
            Err(e) => Err(DaemonError::from(e)),
        }
    }

    fn unexpected(expected: &'static str, frame: Frame) -> DaemonError {
        match frame {
            Frame::ErrorReply { code, message } => DaemonError::Server { code, message },
            other => DaemonError::UnexpectedFrame {
                expected,
                got: format!("{other:?}"),
            },
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<PongInfo, DaemonError> {
        self.send(&Frame::Ping)?;
        match self.recv()? {
            Frame::Pong { pid, uptime_ms } => Ok(PongInfo { pid, uptime_ms }),
            other => Err(Self::unexpected("Pong", other)),
        }
    }

    /// Fetch the daemon's one-line `atss.daemon-status.v1` envelope.
    pub fn status_json(&mut self) -> Result<String, DaemonError> {
        self.send(&Frame::Status)?;
        match self.recv()? {
            Frame::StatusReply { json } => Ok(json),
            other => Err(Self::unexpected("StatusReply", other)),
        }
    }

    /// Ask the daemon to drain in-flight builds and exit; returns once
    /// the daemon acknowledged with `Bye`.
    pub fn shutdown(&mut self) -> Result<(), DaemonError> {
        self.send(&Frame::Shutdown)?;
        match self.recv()? {
            Frame::Bye => Ok(()),
            other => Err(Self::unexpected("Bye", other)),
        }
    }

    /// Look up an entry by fingerprint; `Ok(None)` when the daemon has no
    /// usable entry (this call never builds — use
    /// [`DaemonClient::resolve_spec`] for get-or-build).
    pub fn get(&mut self, fingerprint: &SpecFingerprint) -> Result<Option<Resolved>, DaemonError> {
        self.send(&Frame::Get {
            fingerprint: *fingerprint,
        })?;
        match self.recv()? {
            Frame::Ready {
                fingerprint,
                path,
                file_bytes,
                rows,
                served,
                build_us,
            } => Ok(Some(Resolved {
                fingerprint,
                path: PathBuf::from(path),
                file_bytes,
                rows,
                served,
                build_us,
            })),
            Frame::NotFound { .. } => Ok(None),
            other => Err(Self::unexpected("Ready or NotFound", other)),
        }
    }

    /// Get-or-build: ship the spec to the daemon, wait through any build
    /// (calling `progress` on every `Building` frame), and return the
    /// validated entry. Fails with [`DaemonError::Unshippable`] when the
    /// spec has no JSON form (closure restrictions) — the caller should
    /// build locally in that case.
    pub fn resolve_spec(
        &mut self,
        spec: &SearchSpaceSpec,
        method: Method,
        prune: bool,
        mut progress: impl FnMut(BuildProgress),
    ) -> Result<Resolved, DaemonError> {
        let spec_json = spec_to_json(spec).map_err(|e| DaemonError::Unshippable(e.to_string()))?;
        self.send(&Frame::Resolve {
            spec_json,
            method: method.label().to_string(),
            prune,
        })?;
        loop {
            match self.recv()? {
                Frame::Building {
                    fingerprint,
                    elapsed_ms,
                    waiters,
                } => progress(BuildProgress {
                    fingerprint,
                    elapsed_ms,
                    waiters,
                }),
                Frame::Ready {
                    fingerprint,
                    path,
                    file_bytes,
                    rows,
                    served,
                    build_us,
                } => {
                    return Ok(Resolved {
                        fingerprint,
                        path: PathBuf::from(path),
                        file_bytes,
                        rows,
                        served,
                        build_us,
                    })
                }
                other => return Err(Self::unexpected("Ready or Building", other)),
            }
        }
    }
}
