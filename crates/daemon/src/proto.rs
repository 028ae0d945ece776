//! The `ATSD` wire protocol: length-prefixed, versioned, canonical frames.
//!
//! Everything the daemon and its clients exchange is a *frame*: a fixed
//! 12-byte header followed by a bounded payload. All integers are
//! little-endian; a *string* is a `u32` byte length followed by that many
//! UTF-8 bytes (the same convention as the `ATSS` file format).
//!
//! ```text
//! offset  size  field
//! 0       4     magic, the ASCII bytes "ATSD"
//! 4       2     protocol version, u16 (this build speaks exactly 1)
//! 6       1     frame type, u8 (see the table below)
//! 7       1     reserved, must be 0
//! 8       4     payload length L, u32 (at most 16 MiB)
//! 12      L     payload, per frame type
//! ```
//!
//! | type | frame        | payload |
//! |------|--------------|---------|
//! | 0x01 | `Ping`       | empty |
//! | 0x02 | `Get`        | fingerprint (16 bytes, `u128` LE) |
//! | 0x03 | `Resolve`    | spec JSON : string, method label : string, prune : bool (u8 0/1) |
//! | 0x04 | `Status`     | empty |
//! | 0x05 | `Shutdown`   | empty |
//! | 0x10 | `Ready`      | fingerprint, path : string, file bytes : u64, rows : u64, served : u8 (0 warm / 1 validated / 2 built / 3 coalesced), build µs : u64 |
//! | 0x11 | `Building`   | fingerprint, elapsed ms : u64, waiters : u32 |
//! | 0x12 | `NotFound`   | fingerprint |
//! | 0x13 | `ErrorReply` | code : u16, message : string |
//! | 0x14 | `StatusReply`| status envelope JSON : string |
//! | 0x15 | `Bye`        | empty |
//! | 0x16 | `Pong`       | pid : u64, uptime ms : u64 |
//!
//! The encoding is **canonical**: every frame has exactly one valid byte
//! representation (reserved byte zero, bools strictly 0/1, `served`
//! bounded, no trailing payload bytes), so a successful
//! [`Frame::decode`] re-[`encode`](Frame::encode)s byte-identically —
//! the round-trip oracle the `daemon_proto` fuzz target enforces. The
//! decoder reads untrusted bytes from the socket; it never panics, never
//! allocates more than the declared (bounded) payload length, and maps
//! every malformation to a typed [`ProtoError`].

use std::io::{Read, Write};

use at_store::SpecFingerprint;

/// The four magic bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"ATSD";
/// The protocol version this build speaks (writes and accepts).
pub const PROTOCOL_VERSION: u16 = 1;
/// Upper bound on a frame's payload length. Generous for spec JSON and
/// status envelopes, small enough that a hostile length prefix cannot
/// make the daemon allocate unbounded memory.
pub const MAX_PAYLOAD: u32 = 16 << 20;
/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 12;

/// How the daemon satisfied a request, carried in [`Frame::Ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Entry already validated by this daemon earlier: O(header) serve.
    Warm = 0,
    /// Entry existed on disk and passed full validation just now.
    Validated = 1,
    /// Entry was constructed (solver ran) for this request.
    Built = 2,
    /// Another request was already building this spec; this one waited
    /// for that single flight and shares its result. A request that waits
    /// on the validation of an existing entry is `Validated` instead.
    Coalesced = 3,
}

impl ServeKind {
    /// A short label: `warm`, `validated`, `built` or `coalesced`.
    pub fn label(&self) -> &'static str {
        match self {
            ServeKind::Warm => "warm",
            ServeKind::Validated => "validated",
            ServeKind::Built => "built",
            ServeKind::Coalesced => "coalesced",
        }
    }

    fn from_u8(v: u8) -> Option<ServeKind> {
        match v {
            0 => Some(ServeKind::Warm),
            1 => Some(ServeKind::Validated),
            2 => Some(ServeKind::Built),
            3 => Some(ServeKind::Coalesced),
            _ => None,
        }
    }
}

/// One protocol frame; see the [module documentation](self) for the wire
/// layout of each variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Liveness probe.
    Ping,
    /// Look up an entry by fingerprint; never builds.
    Get {
        /// The cache key to look up.
        fingerprint: SpecFingerprint,
    },
    /// Get-or-build by inline spec source (single-flight on the server).
    Resolve {
        /// The spec, as `at_searchspace::spec_to_json` text.
        spec_json: String,
        /// Construction method label (`Method::from_label`).
        method: String,
        /// Whether to pre-prune domains before solving.
        prune: bool,
    },
    /// Request the `atss.daemon-status.v1` envelope.
    Status,
    /// Ask the daemon to drain in-flight builds and exit.
    Shutdown,
    /// Success reply: the validated cache path to mmap.
    Ready {
        /// The entry's cache key.
        fingerprint: SpecFingerprint,
        /// Absolute path of the validated `ATSS` file.
        path: String,
        /// Size of that file in bytes.
        file_bytes: u64,
        /// Configuration rows in the space.
        rows: u64,
        /// How the request was satisfied.
        served: ServeKind,
        /// Wall-clock microseconds of the build (0 unless `served` is
        /// `Built`/`Coalesced`).
        build_us: u64,
    },
    /// Progress frame streamed while a build is in flight.
    Building {
        /// The spec being built.
        fingerprint: SpecFingerprint,
        /// Milliseconds since the build started.
        elapsed_ms: u64,
        /// Requests currently waiting on this build.
        waiters: u32,
    },
    /// `Get` reply when no (usable) entry exists.
    NotFound {
        /// The fingerprint that was requested.
        fingerprint: SpecFingerprint,
    },
    /// Request-level failure (bad spec, uncacheable, build error, …).
    ErrorReply {
        /// HTTP-flavored status code (400 bad request, 422 uncacheable,
        /// 500 build failure).
        code: u16,
        /// Human-readable explanation.
        message: String,
    },
    /// `Status` reply: the one-line `atss.daemon-status.v1` JSON.
    StatusReply {
        /// The envelope text.
        json: String,
    },
    /// `Shutdown` acknowledgment; the daemon exits after sending it.
    Bye,
    /// `Ping` reply.
    Pong {
        /// The daemon's process id.
        pid: u64,
        /// Milliseconds since the daemon started.
        uptime_ms: u64,
    },
}

/// Every way a byte sequence can fail to be a frame. The decoder maps
/// *all* malformations here — it never panics on socket bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first four bytes are not `ATSD`.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The header declares a protocol version this build does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The header declares a frame type this build does not know.
    UnknownFrameType {
        /// The type byte found.
        found: u8,
    },
    /// The reserved header byte is nonzero.
    NonZeroReserved {
        /// The byte found.
        found: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared length.
        declared: u32,
    },
    /// The buffer or stream ends before the declared frame does.
    Truncated,
    /// The payload is longer than its frame type's fields consume.
    TrailingPayload {
        /// Unconsumed payload bytes.
        extra: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A field holds an out-of-range value (non-0/1 bool, unknown
    /// `served` kind).
    BadValue(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic { found } => write!(f, "bad magic {found:?} (expected \"ATSD\")"),
            ProtoError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "protocol version {found} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            ProtoError::UnknownFrameType { found } => write!(f, "unknown frame type {found:#04x}"),
            ProtoError::NonZeroReserved { found } => {
                write!(f, "reserved header byte is {found:#04x}, must be 0")
            }
            ProtoError::Oversized { declared } => {
                write!(
                    f,
                    "payload length {declared} exceeds the {MAX_PAYLOAD} bound"
                )
            }
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::TrailingPayload { extra } => {
                write!(f, "{extra} trailing payload byte(s) after the last field")
            }
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::BadValue(what) => write!(f, "out-of-range field: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A failure while reading frames from a stream: either the transport
/// failed or the bytes were not a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying read/write failed (includes timeouts).
    Io(std::io::Error),
    /// The bytes read do not form a valid frame.
    Proto(ProtoError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_fp(out: &mut Vec<u8>, fp: &SpecFingerprint) {
    out.extend_from_slice(&fp.as_u128().to_le_bytes());
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Ping => 0x01,
            Frame::Get { .. } => 0x02,
            Frame::Resolve { .. } => 0x03,
            Frame::Status => 0x04,
            Frame::Shutdown => 0x05,
            Frame::Ready { .. } => 0x10,
            Frame::Building { .. } => 0x11,
            Frame::NotFound { .. } => 0x12,
            Frame::ErrorReply { .. } => 0x13,
            Frame::StatusReply { .. } => 0x14,
            Frame::Bye => 0x15,
            Frame::Pong { .. } => 0x16,
        }
    }

    /// Serialize this frame to its canonical byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 32);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.push(self.type_byte());
        out.push(0); // reserved
        out.extend_from_slice(&[0; 4]); // payload length, patched below
        match self {
            Frame::Ping | Frame::Status | Frame::Shutdown | Frame::Bye => {}
            Frame::Get { fingerprint } | Frame::NotFound { fingerprint } => {
                put_fp(&mut out, fingerprint);
            }
            Frame::Resolve {
                spec_json,
                method,
                prune,
            } => {
                put_str(&mut out, spec_json);
                put_str(&mut out, method);
                out.push(u8::from(*prune));
            }
            Frame::Ready {
                fingerprint,
                path,
                file_bytes,
                rows,
                served,
                build_us,
            } => {
                put_fp(&mut out, fingerprint);
                put_str(&mut out, path);
                out.extend_from_slice(&file_bytes.to_le_bytes());
                out.extend_from_slice(&rows.to_le_bytes());
                out.push(*served as u8);
                out.extend_from_slice(&build_us.to_le_bytes());
            }
            Frame::Building {
                fingerprint,
                elapsed_ms,
                waiters,
            } => {
                put_fp(&mut out, fingerprint);
                out.extend_from_slice(&elapsed_ms.to_le_bytes());
                out.extend_from_slice(&waiters.to_le_bytes());
            }
            Frame::ErrorReply { code, message } => {
                out.extend_from_slice(&code.to_le_bytes());
                put_str(&mut out, message);
            }
            Frame::StatusReply { json } => put_str(&mut out, json),
            Frame::Pong { pid, uptime_ms } => {
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&uptime_ms.to_le_bytes());
            }
        }
        let payload_len = (out.len() - HEADER_LEN) as u32;
        out[8..12].copy_from_slice(&payload_len.to_le_bytes());
        out
    }

    /// Decode one frame from the front of `buf`. Returns the frame and
    /// the number of bytes consumed (`HEADER_LEN` + payload length);
    /// bytes past the frame are left for the caller. Never panics.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
        if buf.len() < HEADER_LEN {
            return Err(ProtoError::Truncated);
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buf[0..4]);
        if magic != MAGIC {
            return Err(ProtoError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != PROTOCOL_VERSION {
            return Err(ProtoError::UnsupportedVersion { found: version });
        }
        let frame_type = buf[6];
        if buf[7] != 0 {
            return Err(ProtoError::NonZeroReserved { found: buf[7] });
        }
        let declared = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        if declared > MAX_PAYLOAD {
            return Err(ProtoError::Oversized { declared });
        }
        let payload_len = declared as usize;
        if buf.len() < HEADER_LEN + payload_len {
            return Err(ProtoError::Truncated);
        }
        let payload = &buf[HEADER_LEN..HEADER_LEN + payload_len];
        let mut cur = PayloadCursor { rest: payload };
        let frame = match frame_type {
            0x01 => Frame::Ping,
            0x02 => Frame::Get {
                fingerprint: cur.fingerprint()?,
            },
            0x03 => Frame::Resolve {
                spec_json: cur.string()?,
                method: cur.string()?,
                prune: cur.boolean()?,
            },
            0x04 => Frame::Status,
            0x05 => Frame::Shutdown,
            0x10 => Frame::Ready {
                fingerprint: cur.fingerprint()?,
                path: cur.string()?,
                file_bytes: cur.u64()?,
                rows: cur.u64()?,
                served: ServeKind::from_u8(cur.u8()?).ok_or(ProtoError::BadValue("served kind"))?,
                build_us: cur.u64()?,
            },
            0x11 => Frame::Building {
                fingerprint: cur.fingerprint()?,
                elapsed_ms: cur.u64()?,
                waiters: cur.u32()?,
            },
            0x12 => Frame::NotFound {
                fingerprint: cur.fingerprint()?,
            },
            0x13 => Frame::ErrorReply {
                code: cur.u16()?,
                message: cur.string()?,
            },
            0x14 => Frame::StatusReply {
                json: cur.string()?,
            },
            0x15 => Frame::Bye,
            0x16 => Frame::Pong {
                pid: cur.u64()?,
                uptime_ms: cur.u64()?,
            },
            other => return Err(ProtoError::UnknownFrameType { found: other }),
        };
        if !cur.rest.is_empty() {
            return Err(ProtoError::TrailingPayload {
                extra: cur.rest.len(),
            });
        }
        Ok((frame, HEADER_LEN + payload_len))
    }
}

/// Bounds-checked field reader over one frame's payload.
struct PayloadCursor<'a> {
    rest: &'a [u8],
}

impl PayloadCursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ProtoError> {
        if self.rest.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn boolean(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::BadValue("bool")),
        }
    }

    fn fingerprint(&mut self) -> Result<SpecFingerprint, ProtoError> {
        let b = self.take(16)?;
        Ok(SpecFingerprint::from_u128(u128::from_le_bytes(
            b.try_into().expect("16 bytes"),
        )))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }
}

// ---------------------------------------------------------------------------
// Stream framing

/// Read one frame from a stream. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between frames); EOF *inside* a frame
/// is [`ProtoError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Proto(ProtoError::Truncated)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // Validate the header before trusting the length prefix: decode on the
    // bare header surfaces magic/version/type/reserved/bound errors (it can
    // only say `Truncated` for a frame that actually has a payload).
    let declared = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    match Frame::decode(&header) {
        Ok((frame, HEADER_LEN)) => return Ok(Some(frame)),
        Ok(_) => unreachable!("decode of 12 bytes cannot consume more"),
        Err(ProtoError::Truncated) if declared <= MAX_PAYLOAD => {}
        Err(e) => return Err(WireError::Proto(e)),
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + declared as usize);
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + declared as usize, 0);
    r.read_exact(&mut buf[HEADER_LEN..]).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Proto(ProtoError::Truncated)
        } else {
            WireError::Io(e)
        }
    })?;
    match Frame::decode(&buf) {
        Ok((frame, _)) => Ok(Some(frame)),
        Err(e) => Err(WireError::Proto(e)),
    }
}

/// Write one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&frame.encode()).map_err(WireError::Io)?;
    w.flush().map_err(WireError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> SpecFingerprint {
        SpecFingerprint::from_u128(n)
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Ping,
            Frame::Get {
                fingerprint: fp(0xDEAD_BEEF),
            },
            Frame::Resolve {
                spec_json: "{\"name\":\"x\"}".into(),
                method: "optimized".into(),
                prune: true,
            },
            Frame::Status,
            Frame::Shutdown,
            Frame::Ready {
                fingerprint: fp(u128::MAX),
                path: "/tmp/cache/abc.atss".into(),
                file_bytes: 4096,
                rows: 1234,
                served: ServeKind::Warm,
                build_us: 0,
            },
            Frame::Building {
                fingerprint: fp(7),
                elapsed_ms: 1500,
                waiters: 3,
            },
            Frame::NotFound { fingerprint: fp(0) },
            Frame::ErrorReply {
                code: 422,
                message: "uncacheable: closure restriction".into(),
            },
            Frame::StatusReply {
                json: "{\"schema\":\"atss.daemon-status.v1\"}".into(),
            },
            Frame::Bye,
            Frame::Pong {
                pid: 4242,
                uptime_ms: 60_000,
            },
        ]
    }

    #[test]
    fn every_frame_round_trips_canonically() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let (decoded, consumed) = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded.encode(), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn decode_leaves_following_frames_in_the_buffer() {
        let mut buf = Frame::Ping.encode();
        let second = Frame::Status.encode();
        buf.extend_from_slice(&second);
        let (first, consumed) = Frame::decode(&buf).unwrap();
        assert_eq!(first, Frame::Ping);
        let (next, _) = Frame::decode(&buf[consumed..]).unwrap();
        assert_eq!(next, Frame::Status);
    }

    #[test]
    fn header_malformations_are_typed_errors() {
        let good = Frame::Ping.encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::UnsupportedVersion { found: 9 })
        ));

        let mut bad = good.clone();
        bad[6] = 0x7F;
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::UnknownFrameType { found: 0x7F })
        ));

        let mut bad = good.clone();
        bad[7] = 1;
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::NonZeroReserved { found: 1 })
        ));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::Oversized { .. })
        ));

        assert_eq!(Frame::decode(&good[..5]), Err(ProtoError::Truncated));
        assert_eq!(Frame::decode(b""), Err(ProtoError::Truncated));
    }

    #[test]
    fn payload_malformations_are_typed_errors() {
        // Trailing byte after Ping's (empty) field list.
        let mut bad = Frame::Ping.encode();
        bad.extend_from_slice(&[0]);
        bad[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            Frame::decode(&bad),
            Err(ProtoError::TrailingPayload { extra: 1 })
        );

        // Bool that is neither 0 nor 1.
        let mut bad = Frame::Resolve {
            spec_json: "{}".into(),
            method: "optimized".into(),
            prune: false,
        }
        .encode();
        let last = bad.len() - 1;
        bad[last] = 2;
        assert_eq!(Frame::decode(&bad), Err(ProtoError::BadValue("bool")));

        // Served kind out of range.
        let frame = Frame::Ready {
            fingerprint: fp(1),
            path: "p".into(),
            file_bytes: 0,
            rows: 0,
            served: ServeKind::Built,
            build_us: 0,
        };
        let mut bad = frame.encode();
        // served byte sits 8 bytes before the end (build_us is last).
        let at = bad.len() - 9;
        bad[at] = 9;
        assert_eq!(
            Frame::decode(&bad),
            Err(ProtoError::BadValue("served kind"))
        );

        // String length prefix pointing past the payload.
        let mut bad = Frame::StatusReply { json: "{}".into() }.encode();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bad), Err(ProtoError::Truncated));

        // Invalid UTF-8 in a string field.
        let mut bad = Frame::StatusReply { json: "ab".into() }.encode();
        bad[HEADER_LEN + 4] = 0xFF;
        assert_eq!(Frame::decode(&bad), Err(ProtoError::BadUtf8));
    }

    #[test]
    fn stream_reader_frames_and_reports_clean_eof() {
        let mut bytes = Vec::new();
        for frame in sample_frames() {
            bytes.extend_from_slice(&frame.encode());
        }
        let mut cursor = std::io::Cursor::new(bytes);
        let mut seen = Vec::new();
        while let Some(frame) = read_frame(&mut cursor).unwrap() {
            seen.push(frame);
        }
        assert_eq!(seen, sample_frames());

        // EOF inside a frame is Truncated, not a clean end.
        let partial = &Frame::Status.encode()[..7];
        let mut cursor = std::io::Cursor::new(partial.to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Proto(ProtoError::Truncated))
        ));
    }
}
