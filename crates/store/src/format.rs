//! The `ATSS` binary format: reading and writing resolved search spaces.
//!
//! See the [crate documentation](crate) for the byte-by-byte layout. This
//! build reads exactly the version it writes, [`FORMAT_VERSION`], and one
//! parser walks the framing for every reader: [`peek_info`], every
//! [`LoadOptions`] policy and [`read_space_from_bytes`]. The design
//! constraints, in order:
//!
//! 1. **Close to the internal representation** (paper Section 4.3.4): the
//!    space's sorted rank array is written verbatim as little-endian `u64`s
//!    — loading performs no decoding and no re-encoding. The rank section
//!    starts on an 8-byte file offset, so a trusted warm load can *borrow*
//!    it straight out of a memory-mapped file: no copy, no index, O(header)
//!    work.
//! 2. **Written once, from the finished space**: [`write_space`] persists
//!    a constructed space's ranks verbatim; the row count lives in the
//!    trailer, written last, so a half-written file is never mistaken for
//!    a complete one.
//! 3. **Self-validating**: magic + version up front, a CRC-32 per metadata
//!    section, and a CRC-32 of the ranks in the trailer. The verified copy
//!    detects any flipped byte or truncation before content is adopted,
//!    and checks in one pass that the ranks strictly ascend and stay below
//!    the Cartesian size. The trusted zero-copy mmap checks everything but
//!    the rank checksum and that pass (see [`LoadOptions`]); forged ranks
//!    can then only give wrong answers, never unsafety, because a lookup is
//!    a binary search and decoding takes a modulo.

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use at_csp::Value;
use at_searchspace::{RankCheck, RankStorage, SearchSpace, TunableParameter};

use crate::checksum::{crc32, Crc32};
use crate::error::StoreError;
use crate::mmap::{MappedFile, MappedRanks};

/// The four magic bytes every store file starts with.
pub const MAGIC: [u8; 4] = *b"ATSS";

/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 3;

/// Section tags (4 bytes each).
const TAG_HEADER: [u8; 4] = *b"HDR\0";
const TAG_PARAMS: [u8; 4] = *b"PAR\0";
const TAG_RANKS: [u8; 4] = *b"RNK\0";
const TAG_END: [u8; 4] = *b"END\0";

/// Value-encoding tag bytes.
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_STR: u8 = 4;

/// Size of the fixed trailer: tag (4) + row count (8) + rank CRC-32 (4).
const TRAILER_LEN: usize = 16;

/// Bytes per stored rank.
const RANK_BYTES: usize = 8;

/// Ranks [`write_space`] converts and writes per batch (64 KiB of file
/// bytes).
const FLUSH_RANKS: usize = 8 * 1024;

// ---------------------------------------------------------------------------
// byte-level encoding helpers
// ---------------------------------------------------------------------------

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Canonical byte encoding of one [`Value`]: a tag byte plus a fixed or
/// length-prefixed payload. Shared by the params section and the spec
/// fingerprint, so both agree on what "the same value" means.
pub(crate) fn push_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(VAL_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(VAL_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            buf.push(VAL_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            push_str(buf, s);
        }
    }
}

/// A bounds-checked reading cursor over a byte slice; every overrun becomes
/// a [`StoreError::Corrupt`] for the named section.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(StoreError::corrupt(
                self.section,
                format!(
                    "needed {n} bytes at offset {}, only {} available",
                    self.pos,
                    self.bytes.len() - self.pos
                ),
            )),
        }
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt(self.section, "string is not valid UTF-8"))
    }

    fn value(&mut self) -> Result<Value, StoreError> {
        match self.u8()? {
            VAL_INT => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))),
            VAL_FLOAT => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            )))),
            VAL_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            VAL_STR => Ok(Value::str(self.str()?)),
            tag => Err(StoreError::corrupt(
                self.section,
                format!("unknown value tag {tag}"),
            )),
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// section writing
// ---------------------------------------------------------------------------

/// Write one framed metadata section: tag, payload length, payload, CRC-32.
/// Returns the number of file bytes written.
fn write_section<W: Write>(out: &mut W, tag: [u8; 4], payload: &[u8]) -> io::Result<u64> {
    out.write_all(&tag)?;
    out.write_all(&(payload.len() as u64).to_le_bytes())?;
    out.write_all(payload)?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    Ok(4 + 8 + payload.len() as u64 + 4)
}

fn header_payload(name: &str, num_params: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(name.len() + 8);
    push_str(&mut buf, name);
    push_u32(&mut buf, num_params as u32);
    buf
}

fn params_payload(params: &[TunableParameter]) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in params {
        push_str(&mut buf, p.name());
        push_u32(&mut buf, p.len() as u32);
        for v in p.values() {
            push_value(&mut buf, v);
        }
    }
    buf
}

/// Write the file preamble (magic, version, header section, params section,
/// rank tag + alignment padding). Returns the number of bytes written —
/// which is also the rank section's byte offset, guaranteed `% 8 == 0`.
fn write_preamble<W: Write>(
    out: &mut W,
    name: &str,
    params: &[TunableParameter],
) -> io::Result<u64> {
    out.write_all(&MAGIC)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    let mut bytes = 8u64;
    bytes += write_section(out, TAG_HEADER, &header_payload(name, params.len()))?;
    bytes += write_section(out, TAG_PARAMS, &params_payload(params))?;
    out.write_all(&TAG_RANKS)?;
    bytes += 4;
    // Alignment rule: a u32 pad length followed by that many zero bytes,
    // chosen so the first rank byte lands on an 8-byte file offset (mmap
    // memory is page-aligned, so file-offset alignment is view alignment).
    let pad = ((8 - ((bytes + 4) % 8)) % 8) as u32;
    out.write_all(&pad.to_le_bytes())?;
    out.write_all(&[0u8; 7][..pad as usize])?;
    Ok(bytes + 4 + pad as u64)
}

/// Write the fixed trailer (end tag, row count, rank CRC-32).
fn write_trailer<W: Write>(out: &mut W, rows: u64, ranks_crc: u32) -> io::Result<u64> {
    out.write_all(&TAG_END)?;
    out.write_all(&rows.to_le_bytes())?;
    out.write_all(&ranks_crc.to_le_bytes())?;
    Ok(TRAILER_LEN as u64)
}

/// Summary of one completed store write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Number of configuration rows persisted.
    pub rows: u64,
    /// Total file bytes written (preamble + ranks + trailer).
    pub bytes_written: u64,
}

/// Persist an already-resolved [`SearchSpace`] to a writer.
///
/// The ranks are taken from [`SearchSpace::arena`] verbatim; nothing is
/// decoded.
pub fn write_space<W: Write>(space: &SearchSpace, out: &mut W) -> Result<StoreSummary, StoreError> {
    let io_err = |source| StoreError::Io { path: None, source };
    let mut bytes = write_preamble(out, space.name(), space.params()).map_err(io_err)?;
    let mut crc = Crc32::new();
    let ranks = space.arena();
    let mut buf = Vec::with_capacity(RANK_BYTES * FLUSH_RANKS.min(ranks.len().max(1)));
    for chunk in ranks.chunks(FLUSH_RANKS) {
        buf.clear();
        for &rank in chunk {
            buf.extend_from_slice(&rank.to_le_bytes());
        }
        crc.update(&buf);
        out.write_all(&buf).map_err(io_err)?;
        bytes += buf.len() as u64;
    }
    bytes += write_trailer(out, space.len() as u64, crc.finish()).map_err(io_err)?;
    out.flush().map_err(io_err)?;
    Ok(StoreSummary {
        rows: space.len() as u64,
        bytes_written: bytes,
    })
}

/// Persist a space to a file path (plain create + write; for atomic
/// temp-file + rename semantics, go through `SpaceStore`).
pub fn write_space_to_path(
    space: &SearchSpace,
    path: impl AsRef<Path>,
) -> Result<StoreSummary, StoreError> {
    let path = path.as_ref();
    let file = File::create(path).map_err(|e| StoreError::io(path, e))?;
    let mut out = io::BufWriter::new(file);
    write_space(space, &mut out).map_err(|e| match e {
        StoreError::Io { path: None, source } => StoreError::io(path, source),
        other => other,
    })
}

// ---------------------------------------------------------------------------
// load options and reports
// ---------------------------------------------------------------------------

/// How a store file is loaded — one policy per real use, each with its
/// own constructor.
///
/// * [`LoadOptions::default`] — the **verified copy**: read the whole
///   file, verify every checksum, then check in one pass that the ranks
///   strictly ascend and stay below the Cartesian size. The only path on
///   big-endian targets. Used by cache hits without `--mmap`, by
///   `cache verify`, and by the space-server before an entry's first
///   serve.
/// * [`LoadOptions::mmap_trusted`] — the **trusted zero-copy mmap**: serve
///   the rank section as a borrowed view into the `mmap(2)`ed file, in
///   O(header) work. The rank checksum is **not** verified (it would touch
///   every page and defeat the point) and the rank pass is skipped: forged
///   ranks can give wrong answers, never unsafety. Used by a process that
///   maps a cache entry on its own (`--mmap`) and by a space-server client
///   attaching to a path the server verified (`at_daemon`'s
///   `Resolved::attach`).
///
/// The mmap policy falls back to the verified copy — recorded in the
/// [`LoadReport`] — on non-Linux targets, big-endian targets, or mmap
/// failure. Every policy parses the file with the same parser and rejects
/// every version but [`FORMAT_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadOptions {
    mmap: bool,
}

impl LoadOptions {
    /// The zero-copy fast path: mmap the rank section and trust it.
    pub fn mmap_trusted() -> LoadOptions {
        LoadOptions { mmap: true }
    }
}

/// Where the served ranks actually came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaOutcome {
    /// Copied into owned memory (requested, or the only possibility).
    Copied,
    /// Served zero-copy from the memory-mapped file.
    MmapZeroCopy,
    /// Mmap was requested but unavailable; served by the verified copy
    /// instead.
    MmapFellBack {
        /// Why the mapping could not be served (platform, byte order,
        /// syscall failure).
        reason: String,
    },
}

/// What a load did, for observability: which path served the ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Rank path taken.
    pub arena: ArenaOutcome,
}

impl LoadReport {
    /// True when the ranks are served zero-copy from the mapped file.
    pub fn is_zero_copy(&self) -> bool {
        self.arena == ArenaOutcome::MmapZeroCopy
    }

    /// A one-line human-readable description (used by CLI summaries).
    pub fn describe(&self) -> String {
        match &self.arena {
            ArenaOutcome::Copied => "copied, ranks verified".to_string(),
            ArenaOutcome::MmapZeroCopy => "zero-copy (mmap), ranks trusted".to_string(),
            ArenaOutcome::MmapFellBack { reason } => {
                format!("copied (mmap fell back: {reason}), ranks verified")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// reading
// ---------------------------------------------------------------------------

/// Metadata of one store file, available without reading the ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Format version recorded in the file.
    pub version: u32,
    /// The persisted space's name.
    pub name: String,
    /// Number of tunable parameters.
    pub num_params: usize,
    /// Number of configuration rows.
    pub num_rows: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Where [`parse_structure`] reads a store file from: bytes already in
/// memory (`[u8]`, borrowed, never copied) or an open file read at offsets
/// ([`FileSource`]).
pub(crate) trait Source {
    /// The file's length in bytes.
    fn len(&self) -> usize;

    /// The `n` bytes at offset `at`, or a [`StoreError::Corrupt`] for
    /// `section` when the file ends before them.
    fn read(&self, at: usize, n: usize, section: &'static str)
        -> Result<Cow<'_, [u8]>, StoreError>;
}

/// The range `at..at + n` when it lies within `len` bytes, else a
/// [`StoreError::Corrupt`] for `section`. Every length a store file
/// declares passes through here before anything is read or allocated for
/// it.
fn in_bounds(
    len: usize,
    at: usize,
    n: usize,
    section: &'static str,
) -> Result<Range<usize>, StoreError> {
    match at.checked_add(n) {
        Some(end) if end <= len => Ok(at..end),
        _ => Err(StoreError::corrupt(
            section,
            format!(
                "needed {n} bytes at offset {at}, only {} available",
                len.saturating_sub(at)
            ),
        )),
    }
}

impl Source for [u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn read(
        &self,
        at: usize,
        n: usize,
        section: &'static str,
    ) -> Result<Cow<'_, [u8]>, StoreError> {
        Ok(Cow::Borrowed(&self[in_bounds(self.len(), at, n, section)?]))
    }
}

/// An open store file, read at offsets: only the requested ranges are
/// read, each into a buffer allocated after its range is checked against
/// the file length.
pub(crate) struct FileSource<'f> {
    file: &'f File,
    path: &'f Path,
    len: usize,
}

impl<'f> FileSource<'f> {
    pub(crate) fn new(file: &'f File, path: &'f Path) -> Result<Self, StoreError> {
        let len = file.metadata().map_err(|e| StoreError::io(path, e))?.len();
        let len = usize::try_from(len).map_err(|_| {
            StoreError::io(path, io::Error::other("file larger than the address space"))
        })?;
        Ok(FileSource { file, path, len })
    }
}

impl Source for FileSource<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn read(
        &self,
        at: usize,
        n: usize,
        section: &'static str,
    ) -> Result<Cow<'_, [u8]>, StoreError> {
        in_bounds(self.len, at, n, section)?;
        let mut buf = vec![0u8; n];
        read_exact_at(self.file, &mut buf, at as u64).map_err(|e| match e.kind() {
            // The file shrank since its length was taken.
            io::ErrorKind::UnexpectedEof => StoreError::corrupt(
                section,
                format!("file ends inside the {n} bytes at offset {at}"),
            ),
            _ => StoreError::io(self.path, e),
        })?;
        Ok(Cow::Owned(buf))
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], at: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, at)
}

/// Portable fallback: seeks the shared file cursor, then reads.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], at: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(at))?;
    file.read_exact(buf)
}

/// The structurally validated parts of a store file: both metadata
/// sections CRC-checked and the header parsed, the param dictionaries and
/// the rank section located and length-checked — but the dictionaries not
/// decoded ([`decode_params`]) and the rank CRC not verified (the caller
/// decides per [`LoadOptions`]). Sections are byte ranges of the file, so
/// parsing reads no rank byte.
pub(crate) struct ParsedFile {
    info: StoreInfo,
    /// The params payload (its CRC verified).
    params: Range<usize>,
    /// The rank section's bytes; the range starts on an 8-byte offset.
    pub(crate) ranks: Range<usize>,
    ranks_crc: u32,
}

/// Parse and validate the framing. Reads the magic, the header and params
/// sections, the rank frame and the trailer — no rank byte.
pub(crate) fn parse_structure<S: Source + ?Sized>(src: &S) -> Result<ParsedFile, StoreError> {
    // Magic + version.
    let file_len = src.len();
    if file_len < 8 + TRAILER_LEN {
        return Err(StoreError::corrupt(
            "header",
            format!("file holds {file_len} bytes, too short for any store file"),
        ));
    }
    let head = src.read(0, 8, "header")?;
    let mut cur = Cursor::new(&head, "header");
    let magic = cur.take(4)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic {
            found: magic.try_into().expect("4 bytes"),
        });
    }
    let version = cur.u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    // Framed metadata sections.
    let mut pos = 8usize;
    let header = read_section(src, &mut pos, TAG_HEADER, "header")?;
    let mut cur = Cursor::new(&header, "header");
    let name = cur.str()?;
    let num_params = cur.u32()? as usize;
    if !cur.done() {
        return Err(StoreError::corrupt("header", "trailing bytes after header"));
    }

    let params_at = pos + 12;
    let params = params_at..params_at + read_section(src, &mut pos, TAG_PARAMS, "params")?.len();

    // Rank tag + alignment padding.
    if file_len < pos + 8 + TRAILER_LEN {
        return Err(StoreError::corrupt("ranks", "file ends before the ranks"));
    }
    let frame = src.read(pos, 8, "ranks")?;
    let mut cur = Cursor::new(&frame, "ranks");
    if cur.take(4)? != TAG_RANKS {
        return Err(StoreError::corrupt("ranks", "missing rank tag"));
    }
    let pad = cur.u32()? as usize;
    if pad >= RANK_BYTES {
        return Err(StoreError::corrupt(
            "ranks",
            format!("implausible alignment padding {pad}"),
        ));
    }
    pos += 8;
    if src.read(pos, pad, "ranks")?.iter().any(|&b| b != 0) {
        return Err(StoreError::corrupt("ranks", "nonzero alignment padding"));
    }
    pos += pad;
    if !pos.is_multiple_of(RANK_BYTES) {
        return Err(StoreError::corrupt(
            "ranks",
            "alignment padding does not land the ranks on an 8-byte offset",
        ));
    }

    // Trailer (always the last 16 bytes); the ranks fill everything between
    // the padding and the trailer, one per row the trailer declares.
    let trailer_at = file_len - TRAILER_LEN;
    if trailer_at < pos {
        return Err(StoreError::corrupt("trailer", "overlaps the ranks"));
    }
    let trailer = src.read(trailer_at, TRAILER_LEN, "trailer")?;
    let mut cur = Cursor::new(&trailer, "trailer");
    if cur.take(4)? != TAG_END {
        return Err(StoreError::corrupt(
            "trailer",
            "missing end tag (file truncated or construction crashed mid-write)",
        ));
    }
    let num_rows = cur.u64()? as usize;
    let ranks_crc = cur.u32()?;
    let ranks_len = num_rows
        .checked_mul(RANK_BYTES)
        .filter(|&len| len == trailer_at - pos)
        .ok_or_else(|| {
            StoreError::corrupt(
                "ranks",
                format!(
                    "{} bytes before the trailer do not hold exactly {num_rows} ranks",
                    trailer_at - pos,
                ),
            )
        })?;

    Ok(ParsedFile {
        info: StoreInfo {
            version,
            name,
            num_params,
            num_rows,
            file_bytes: file_len as u64,
        },
        params,
        ranks: pos..pos + ranks_len,
        ranks_crc,
    })
}

/// Read the framed metadata section at `*pos`, verify its tag and CRC, and
/// advance `*pos` past it.
fn read_section<'s, S: Source + ?Sized>(
    src: &'s S,
    pos: &mut usize,
    tag: [u8; 4],
    section: &'static str,
) -> Result<Cow<'s, [u8]>, StoreError> {
    let frame = src.read(*pos, 12, section)?;
    let mut cur = Cursor::new(&frame, section);
    if cur.take(4)? != tag {
        return Err(StoreError::corrupt(section, "unexpected section tag"));
    }
    let len = cur.u64()? as usize;
    // Payload and CRC in one read; a forged length fails the range check.
    let body = src.read(*pos + 12, len.saturating_add(4), section)?;
    let (payload, stored_crc) = body.split_at(len);
    if crc32(payload) != u32::from_le_bytes(stored_crc.try_into().expect("4 bytes")) {
        return Err(StoreError::corrupt(section, "checksum mismatch"));
    }
    *pos += 12 + len + 4;
    Ok(match body {
        Cow::Borrowed(bytes) => Cow::Borrowed(&bytes[..len]),
        Cow::Owned(mut bytes) => {
            bytes.truncate(len);
            Cow::Owned(bytes)
        }
    })
}

/// Decode the param dictionaries from the params payload `bytes`, which
/// [`parse_structure`] located and checksummed.
fn decode_params(bytes: &[u8], num_params: usize) -> Result<Vec<TunableParameter>, StoreError> {
    let mut cur = Cursor::new(bytes, "params");
    // Counts read from the file only size allocations up to the bytes
    // that could back them: a forged count fails below, not in the
    // allocator.
    let mut params = Vec::with_capacity(num_params.min(bytes.len()));
    for _ in 0..num_params {
        let pname = cur.str()?;
        let count = cur.u32()? as usize;
        let mut values = Vec::with_capacity(count.min(bytes.len()));
        for _ in 0..count {
            values.push(cur.value()?);
        }
        let param = TunableParameter::new(pname, values);
        if param.len() != count {
            // `TunableParameter::new` deduplicates; a shrink means the
            // file declared duplicate dictionary values, which our
            // writer never does — codes would silently shift.
            return Err(StoreError::corrupt(
                "params",
                format!("parameter `{}` has duplicate values", param.name()),
            ));
        }
        params.push(param);
    }
    if !cur.done() {
        return Err(StoreError::corrupt(
            "params",
            "trailing bytes after the last parameter",
        ));
    }
    Ok(params)
}

/// Decode raw little-endian `u64` bytes into ranks. On little-endian
/// targets the on-disk bytes *are* the in-memory layout, so this is a
/// single memcpy (without even a zero-fill of the destination); big-endian
/// targets convert per element. The caller guarantees `bytes.len()` is a
/// multiple of 8.
fn decode_ranks(bytes: &[u8]) -> Vec<u64> {
    let num_ranks = bytes.len() / RANK_BYTES;
    if cfg!(target_endian = "little") {
        let mut ranks: Vec<u64> = Vec::with_capacity(num_ranks);
        // SAFETY: the allocation holds at least `bytes.len()` bytes (the
        // length is a validated multiple of 8), the buffers are distinct,
        // every byte pattern is a valid `u64`, and `set_len` only covers
        // the `num_ranks` elements just initialised.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                ranks.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            ranks.set_len(num_ranks);
        }
        ranks
    } else {
        bytes
            .chunks_exact(RANK_BYTES)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    }
}

/// A handle to a store file, ready to be loaded with explicit
/// [`LoadOptions`] (the copying path, or the zero-copy mmap path).
///
/// ```no_run
/// use at_store::{LoadOptions, StoreReader};
///
/// let reader = StoreReader::open("space.atss").unwrap();
/// let loaded = reader.load(LoadOptions::mmap_trusted()).unwrap();
/// assert!(loaded.report.is_zero_copy());
/// ```
#[derive(Debug)]
pub struct StoreReader {
    path: std::path::PathBuf,
    file: File,
    /// Held while the verified copy seeks and reads the handle, which moves
    /// its cursor.
    cursor: Mutex<()>,
}

/// The result of one [`StoreReader::load`]: the space, the file metadata,
/// and a report of which path actually served it.
#[derive(Debug)]
pub struct LoadedSpace {
    /// The resolved space.
    pub space: SearchSpace,
    /// The file's metadata.
    pub info: StoreInfo,
    /// Which path was taken (zero-copy or copied).
    pub report: LoadReport,
}

impl StoreReader {
    /// Open a store file for loading. The file is only read on
    /// [`StoreReader::load`] / [`StoreReader::info`].
    pub fn open(path: impl AsRef<Path>) -> Result<StoreReader, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| StoreError::io(&path, e))?;
        Ok(StoreReader {
            path,
            file,
            cursor: Mutex::new(()),
        })
    }

    /// The file's metadata: the structural parse over the open file, which
    /// reads the metadata sections, the frames and the trailer but no rank
    /// byte, so the rank checksum is not verified.
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        Ok(parse_structure(&FileSource::new(&self.file, &self.path)?)?.info)
    }

    /// Load the space under `options` (see [`LoadOptions`] for the exact
    /// validation each policy performs), and report in [`LoadReport`] what
    /// actually happened: a requested mmap falls back to the verified copy
    /// rather than fails whenever the file itself is sound.
    pub fn load(&self, options: LoadOptions) -> Result<LoadedSpace, StoreError> {
        let span =
            at_obs::span("store-load", "store").arg("mmap_requested", u64::from(options.mmap));
        let fell_back = |reason: String| ArenaOutcome::MmapFellBack { reason };
        let loaded = if !options.mmap {
            self.load_copy(ArenaOutcome::Copied)
        } else if cfg!(target_endian = "big") {
            self.load_copy(fell_back("big-endian target".to_string()))
        } else {
            let mapped = {
                let _span = at_obs::span("store-map", "store");
                MappedFile::map(&self.file)
            };
            match mapped {
                Ok(map) => Self::load_mapped(Arc::new(map)),
                Err(e) => self.load_copy(fell_back(e.to_string())),
            }
        }?;
        drop(
            span.arg("rows", loaded.space.len() as u64)
                .arg("zero_copy", u64::from(loaded.report.is_zero_copy())),
        );
        Ok(loaded)
    }

    /// The verified copy: read the whole file through the open handle,
    /// verify every checksum. `read_to_end` on the handle fills the buffer
    /// without zeroing it first, which a read at an offset cannot.
    fn load_copy(&self, arena_outcome: ArenaOutcome) -> Result<LoadedSpace, StoreError> {
        let mut bytes = Vec::new();
        {
            let _span = at_obs::span("store-read", "store");
            let _cursor = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
            let mut file = &self.file;
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_to_end(&mut bytes))
                .map_err(|e| StoreError::io(&self.path, e))?;
        }
        Self::load_copy_from_bytes(&bytes, arena_outcome)
    }

    /// The verified copy over bytes already in memory: the rank CRC, then
    /// one pass that the ranks strictly ascend below the Cartesian size.
    fn load_copy_from_bytes(
        bytes: &[u8],
        arena_outcome: ArenaOutcome,
    ) -> Result<LoadedSpace, StoreError> {
        let (parsed, params) = parse_file(bytes)?;
        let ranks = &bytes[parsed.ranks.clone()];
        let ranks_crc = {
            let _span = at_obs::span("store-arena-crc", "store");
            crc32(ranks)
        };
        if ranks_crc != parsed.ranks_crc {
            return Err(StoreError::corrupt("ranks", "checksum mismatch"));
        }
        let storage = RankStorage::from(decode_ranks(ranks));
        let space = {
            let _span = at_obs::span("store-rank-check", "store");
            SearchSpace::from_rank_storage(
                parsed.info.name.clone(),
                params,
                storage,
                RankCheck::Verify,
            )?
        };
        Ok(LoadedSpace {
            space,
            info: parsed.info,
            report: LoadReport {
                arena: arena_outcome,
            },
        })
    }

    /// The zero-copy load: parse the mapped bytes and serve the rank
    /// section as a borrowed view. Neither the rank checksum nor the rank
    /// order is checked here (see [`LoadOptions`]).
    fn load_mapped(map: Arc<MappedFile>) -> Result<LoadedSpace, StoreError> {
        let (parsed, params) = parse_file(map.bytes())?;
        let view = MappedRanks::new(map, parsed.ranks.start, parsed.ranks.len())
            .map_err(|e| StoreError::corrupt("ranks", e.to_string()))?;
        let space = SearchSpace::from_rank_storage(
            parsed.info.name.clone(),
            params,
            RankStorage::Shared(Arc::new(view)),
            RankCheck::Trust,
        )?;
        Ok(LoadedSpace {
            space,
            info: parsed.info,
            report: LoadReport {
                arena: ArenaOutcome::MmapZeroCopy,
            },
        })
    }
}

/// The structural parse and the dictionary decode of a whole file in
/// memory, the first step of every load policy.
fn parse_file(bytes: &[u8]) -> Result<(ParsedFile, Vec<TunableParameter>), StoreError> {
    let _span = at_obs::span("store-parse", "store");
    let parsed = parse_structure(bytes)?;
    let params = decode_params(&bytes[parsed.params.clone()], parsed.info.num_params)?;
    Ok((parsed, params))
}

/// Load a store file with explicit [`LoadOptions`] in one call.
pub fn load_space_from_path(
    path: impl AsRef<Path>,
    options: LoadOptions,
) -> Result<LoadedSpace, StoreError> {
    StoreReader::open(path)?.load(options)
}

/// Validate and rebuild a space from an in-memory store file in one call:
/// the verified copy ([`LoadOptions::default`]), so every checksum must
/// verify and the ranks must strictly ascend below the Cartesian size. The
/// cache layer maps its errors to a rebuild. For policy-driven loading
/// (zero-copy, reported fallbacks) use [`StoreReader::load`].
pub fn read_space_from_bytes(bytes: &[u8]) -> Result<(SearchSpace, StoreInfo), StoreError> {
    let loaded = StoreReader::load_copy_from_bytes(bytes, ArenaOutcome::Copied)?;
    Ok((loaded.space, loaded.info))
}

/// Read, validate and rebuild a space from a store file in one call (the
/// verified copy; see [`read_space_from_bytes`]).
pub fn read_space_from_path(
    path: impl AsRef<Path>,
) -> Result<(SearchSpace, StoreInfo), StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    read_space_from_bytes(&bytes)
}

/// Read a store file's metadata without loading or validating the ranks —
/// the cheap path for listing a cache directory ([`StoreReader::info`]).
/// The header and params sections' CRCs *are* verified and every frame is
/// checked; the rank checksum is not (use [`read_space_from_bytes`] for a
/// full verification).
pub fn peek_info(path: impl AsRef<Path>) -> Result<StoreInfo, StoreError> {
    StoreReader::open(path)?.info()
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::value::int_values;
    use at_searchspace::SpaceError;

    fn small_space() -> SearchSpace {
        let params = vec![
            TunableParameter::ints("x", [1, 2, 4]),
            TunableParameter::ints("y", [1, 2]),
        ];
        let configs = vec![
            int_values([1, 1]),
            int_values([1, 2]),
            int_values([2, 1]),
            int_values([4, 2]),
        ];
        SearchSpace::from_configs("small", params, configs).unwrap()
    }

    fn small_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        write_space(&small_space(), &mut bytes).unwrap();
        bytes
    }

    fn spaces_identical(a: &SearchSpace, b: &SearchSpace) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.arena(), b.arena());
        assert_eq!(a.params().len(), b.params().len());
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.name(), pb.name());
            assert_eq!(pa.values(), pb.values());
        }
        for view in a.iter() {
            assert_eq!(b.index_of(&view.to_vec()), Some(view.id()));
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("at-store-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_read_round_trip() {
        let space = small_space();
        let mut bytes = Vec::new();
        let summary = write_space(&space, &mut bytes).unwrap();
        assert_eq!(summary.rows, 4);
        assert_eq!(summary.bytes_written, bytes.len() as u64);
        let (loaded, info) = read_space_from_bytes(&bytes).unwrap();
        assert_eq!(info.name, "small");
        assert_eq!(info.num_rows, 4);
        assert_eq!(info.num_params, 2);
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.file_bytes, bytes.len() as u64);
        spaces_identical(&space, &loaded);
    }

    #[test]
    fn the_rank_section_is_eight_byte_aligned_for_any_name_length() {
        for name in [
            "s", "sp", "spa", "spac", "space", "spaces", "spacess", "spacesss",
        ] {
            let params = vec![TunableParameter::ints("x", [1, 2])];
            let space = SearchSpace::from_configs(name, params, vec![int_values([1])]).unwrap();
            let mut bytes = Vec::new();
            write_space(&space, &mut bytes).unwrap();
            let parsed = parse_structure(bytes.as_slice()).unwrap();
            assert_eq!(parsed.ranks.start % 8, 0, "ranks misaligned for {name:?}");
            assert_eq!(parsed.ranks.end, bytes.len() - TRAILER_LEN);
        }
    }

    #[test]
    fn empty_space_round_trips() {
        let params = vec![TunableParameter::ints("x", [1, 2])];
        let space = SearchSpace::from_configs("empty", params, vec![]).unwrap();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let (loaded, info) = read_space_from_bytes(&bytes).unwrap();
        assert_eq!(info.num_rows, 0);
        assert!(loaded.is_empty());
        assert_eq!(loaded.params().len(), 1);
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let params = vec![TunableParameter::new(
            "mixed",
            vec![
                Value::Int(-7),
                Value::Float(2.5),
                Value::Bool(true),
                Value::str("a,b\nc"),
            ],
        )];
        let configs = vec![
            vec![Value::Int(-7)],
            vec![Value::str("a,b\nc")],
            vec![Value::Float(2.5)],
        ];
        let space = SearchSpace::from_configs("mixed", params, configs).unwrap();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let (loaded, _) = read_space_from_bytes(&bytes).unwrap();
        spaces_identical(&space, &loaded);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let bytes = small_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_space_from_bytes(&bad),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            read_space_from_bytes(&bad),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = small_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            let result = read_space_from_bytes(&flipped);
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = small_bytes();
        for keep in 0..bytes.len() {
            let result = read_space_from_bytes(&bytes[..keep]);
            assert!(
                result.is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    /// Rewrite the rank section of `bytes` and fix the trailer CRC, so only
    /// the ranks themselves are wrong.
    fn forge_ranks(bytes: &[u8], ranks: &[u64]) -> Vec<u8> {
        let parsed = parse_structure(bytes).unwrap();
        let mut forged = bytes[..parsed.ranks.start].to_vec();
        let body: Vec<u8> = ranks.iter().flat_map(|r| r.to_le_bytes()).collect();
        forged.extend_from_slice(&body);
        forged.extend_from_slice(&TAG_END);
        forged.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
        forged.extend_from_slice(&crc32(&body).to_le_bytes());
        forged
    }

    #[test]
    fn the_verified_copy_rejects_unsorted_repeated_and_out_of_range_ranks() {
        // small_space: x in {1,2,4}, y in {1,2}; Cartesian size 6.
        let bytes = small_bytes();
        let space_error = |ranks: &[u64]| match read_space_from_bytes(&forge_ranks(&bytes, ranks)) {
            Err(StoreError::Space(e)) => e,
            other => panic!("{ranks:?}: expected a space error, got {other:?}"),
        };
        assert_eq!(
            space_error(&[0, 3, 1]),
            SpaceError::UnsortedRanks { row: 2 }
        );
        assert_eq!(
            space_error(&[0, 3, 3]),
            SpaceError::DuplicateRow { codes: vec![1, 1] }
        );
        assert_eq!(
            space_error(&[0, 3, 6]),
            SpaceError::RankOutOfRange {
                row: 2,
                rank: 6,
                cartesian: 6
            }
        );
        let err = read_space_from_bytes(&forge_ranks(&bytes, &[0, 3, 1])).unwrap_err();
        assert!(err.is_content_error(), "a cache rebuilds such an entry");
        // A well-formed forgery is a different, valid space.
        let (space, _) = read_space_from_bytes(&forge_ranks(&bytes, &[0, 5])).unwrap();
        assert_eq!(space.arena(), [0, 5]);
    }

    #[test]
    fn the_trusted_mmap_serves_forged_ranks_without_panicking() {
        let path = temp_path("forged-ranks.atss");
        let forged = forge_ranks(&small_bytes(), &[u64::MAX, 9, 9, 2]);
        std::fs::write(&path, &forged).unwrap();
        let loaded = load_space_from_path(&path, LoadOptions::mmap_trusted()).unwrap();
        if cfg!(all(target_os = "linux", target_endian = "little")) {
            assert!(loaded.report.is_zero_copy());
            let space = &loaded.space;
            for view in space.iter() {
                for (d, p) in space.params().iter().enumerate() {
                    assert!((view.code(d).unwrap() as usize) < p.len());
                }
                let _ = space.index_of(&view.to_vec());
            }
        } else {
            assert!(loaded.report.arena != ArenaOutcome::MmapZeroCopy);
        }
        assert!(load_space_from_path(&path, LoadOptions::default()).is_err());
    }

    #[test]
    fn peek_reads_metadata_without_the_ranks() {
        let path = temp_path("peek.atss");
        let space = small_space();
        write_space_to_path(&space, &path).unwrap();
        let info = peek_info(&path).unwrap();
        assert_eq!(info.name, "small");
        assert_eq!(info.num_rows, 4);
        assert_eq!(info.num_params, 2);
        assert_eq!(info.version, FORMAT_VERSION);
        let full = StoreReader::open(&path).unwrap();
        assert_eq!(full.info().unwrap(), info);
        let (_, read_info) = read_space_from_path(&path).unwrap();
        assert_eq!(read_info, info);
    }

    /// The `peek_info`/strict-reader differential (fuzz target 1's
    /// secondary oracle): whenever the cheap peek rejects a file, the
    /// strict reader must reject it too, and when both accept, the
    /// metadata must be identical. Both run the same parser, peek over the
    /// file and the strict reader over the bytes in memory. Peek may
    /// accept files the strict reader rejects (it skips the rank checksum
    /// and the rank pass), but never the other way around.
    fn assert_peek_not_stricter(bytes: &[u8], tag: &str, what: &str) {
        let path = temp_path(&format!("peek-diff-{tag}.atss"));
        std::fs::write(&path, bytes).unwrap();
        let peeked = peek_info(&path);
        let strict = read_space_from_bytes(bytes);
        match (peeked, strict) {
            (Ok(info), Ok((_, strict_info))) => {
                assert_eq!(info, strict_info, "{what}: metadata diverged")
            }
            (Err(e), Ok(_)) => panic!("{what}: peek rejected ({e}) what the strict reader accepts"),
            (Err(e), Err(_)) => assert!(
                e.is_content_error(),
                "{what}: peek turned damage into a non-content error: {e}"
            ),
            (Ok(_), Err(_)) => {} // peek is allowed to be laxer
        }
    }

    #[test]
    fn peek_classifies_every_truncation_as_the_strict_reader_does() {
        let bytes = small_bytes();
        for keep in 0..bytes.len() {
            assert_peek_not_stricter(&bytes[..keep], "trunc", &format!("truncation to {keep}"));
        }
    }

    #[test]
    fn peek_agrees_with_the_strict_reader_on_single_byte_flips() {
        let bytes = small_bytes();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert_peek_not_stricter(&flipped, "flip", &format!("flip at byte {i}"));
        }
    }

    #[test]
    fn peek_survives_overflowing_trailer_row_counts() {
        // A hostile trailer row count must yield a clean corruption error,
        // not an arithmetic overflow in `rows * 8`.
        let bytes = small_bytes();
        let rows_at = bytes.len() - TRAILER_LEN + 4;
        for hostile_rows in [u64::MAX, u64::MAX / 8, u64::MAX / 8 - 1000] {
            let mut bad = bytes.clone();
            bad[rows_at..rows_at + 8].copy_from_slice(&hostile_rows.to_le_bytes());
            assert_peek_not_stricter(
                &bad,
                "rows",
                &format!("trailer claiming {hostile_rows} rows"),
            );
        }
    }

    #[test]
    fn stray_bytes_between_the_ranks_and_the_trailer_are_rejected() {
        let bytes = small_bytes();
        // The ranks must end exactly where the trailer starts, so a stray
        // byte (or eight) in front of the trailer is rejected by both
        // readers.
        for stray in [1usize, 8] {
            let mut padded = bytes.clone();
            let at = bytes.len() - TRAILER_LEN;
            padded.splice(at..at, std::iter::repeat_n(0u8, stray));
            assert_peek_not_stricter(&padded, "stray", "stray pre-trailer bytes");
            let path = temp_path("peek-stray.atss");
            std::fs::write(&path, &padded).unwrap();
            assert!(matches!(
                peek_info(&path),
                Err(StoreError::Corrupt {
                    section: "ranks",
                    ..
                })
            ));
        }
    }

    /// A [`Source`] over bytes in memory that records every range the
    /// parser asks for.
    struct Recording<'a> {
        bytes: &'a [u8],
        requests: std::cell::RefCell<Vec<Range<usize>>>,
    }

    impl Source for Recording<'_> {
        fn len(&self) -> usize {
            self.bytes.len()
        }

        fn read(
            &self,
            at: usize,
            n: usize,
            section: &'static str,
        ) -> Result<Cow<'_, [u8]>, StoreError> {
            self.requests.borrow_mut().push(at..at.saturating_add(n));
            Source::read(self.bytes, at, n, section)
        }
    }

    #[test]
    fn parsing_requests_no_rank_byte() {
        let bytes = small_bytes();
        let src = Recording {
            bytes: &bytes,
            requests: Default::default(),
        };
        let parsed = parse_structure(&src).unwrap();
        assert!(!parsed.ranks.is_empty());
        let requests = src.requests.borrow();
        assert!(!requests.is_empty());
        for request in requests.iter() {
            assert!(
                request.end <= parsed.ranks.start || request.start >= parsed.ranks.end,
                "request {request:?} reads bytes of {:?}",
                parsed.ranks
            );
        }
    }

    #[test]
    fn hostile_section_lengths_are_corrupt_without_allocating() {
        // Each length field claims ~2^60 bytes. Reading through the file
        // source checks the range before allocating, so the result is a
        // clean content error, not an abort in the allocator.
        let bytes = small_bytes();
        let header_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let params_at = 8 + 12 + header_len + 4;
        let hostile = (1u64 << 60).to_le_bytes();
        for (section, at) in [("header", 8), ("params", params_at)] {
            let mut bad = bytes.clone();
            bad[at + 4..at + 12].copy_from_slice(&hostile);
            let path = temp_path(&format!("hostile-{section}.atss"));
            std::fs::write(&path, &bad).unwrap();
            match peek_info(&path) {
                Err(StoreError::Corrupt { section: found, .. }) => assert_eq!(found, section),
                other => panic!("{section}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_peeks_as_corrupt() {
        let bytes = small_bytes();
        let path = temp_path("peek-trunc.atss");
        for keep in 0..bytes.len() {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            let peeked = peek_info(&path);
            assert!(
                matches!(peeked, Err(StoreError::Corrupt { .. })),
                "truncation to {keep}: {peeked:?}"
            );
        }
    }

    #[test]
    fn every_load_policy_serves_the_same_space() {
        let path = temp_path("policies.atss");
        let space = small_space();
        write_space_to_path(&space, &path).unwrap();
        let reader = StoreReader::open(&path).unwrap();

        let copied = reader.load(LoadOptions::default()).unwrap();
        spaces_identical(&space, &copied.space);
        assert_eq!(copied.report.arena, ArenaOutcome::Copied);
        assert!(!copied.space.is_zero_copy());

        let mapped = reader.load(LoadOptions::mmap_trusted()).unwrap();
        spaces_identical(&space, &mapped.space);
        if cfg!(target_os = "linux") {
            assert!(mapped.report.is_zero_copy(), "{:?}", mapped.report);
            assert!(mapped.space.is_zero_copy());
        }
    }

    #[test]
    fn store_load_spans_show_the_parts_of_each_policy() {
        // 29 rows: the row count tells this test's loads apart from those of
        // tests running alongside while the recorder is on.
        let rows = 29;
        let params = vec![TunableParameter::ints("x", 1..=rows)];
        let configs = (1..=rows).map(|x| int_values([x])).collect();
        let space = SearchSpace::from_configs("spans", params, configs).unwrap();
        let path = temp_path("spans.atss");
        write_space_to_path(&space, &path).unwrap();
        let reader = StoreReader::open(&path).unwrap();
        let policies = [LoadOptions::default(), LoadOptions::mmap_trusted()];
        at_obs::enable();
        let loads: Vec<_> = policies.iter().map(|&o| reader.load(o)).collect();
        at_obs::disable();
        let records = at_obs::drain();
        assert!(loads.iter().all(Result::is_ok));
        // This test's `store-load` spans, in the order of `policies`.
        let mut spans: Vec<_> = records
            .iter()
            .filter(|r| r.name == "store-load" && r.arg("rows") == Some(rows as u64))
            .collect();
        spans.sort_by_key(|r| r.start_ns);
        assert_eq!(spans.len(), policies.len());
        let requested: Vec<_> = spans.iter().map(|r| r.arg("mmap_requested")).collect();
        assert_eq!(requested, [Some(0), Some(1)]);
        // The names of the spans inside the `store-load` span of one load.
        let parts = |policy: usize| -> Vec<&str> {
            let load = spans[policy];
            let end = load.start_ns + load.dur_ns;
            records
                .iter()
                .filter(|r| r.thread == load.thread && r.name != "store-load")
                .filter(|r| r.start_ns >= load.start_ns && r.start_ns + r.dur_ns <= end)
                .map(|r| r.name)
                .collect()
        };
        assert_eq!(
            parts(0),
            [
                "store-read",
                "store-parse",
                "store-arena-crc",
                "store-rank-check"
            ]
        );
        if cfg!(all(target_os = "linux", target_endian = "little")) {
            assert_eq!(parts(1), ["store-map", "store-parse"]);
        }
    }

    /// Patch the payload of the framed section starting at byte `at` and
    /// recompute its CRC, so only the patched field is wrong.
    fn patch_section(bytes: &mut [u8], at: usize, patch: impl FnOnce(&mut [u8])) {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + 12..at + 12 + len;
        patch(&mut bytes[payload.clone()]);
        let crc = crc32(&bytes[payload.clone()]);
        bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn forged_counts_are_clean_corruption_not_an_allocation() {
        // A count read from the file must not size an allocation on its
        // own: uncapped, these files ask for ~100 GB and ~200 GB up front,
        // and the allocation failure aborts the process.
        let bytes = small_bytes();
        let header_at = 8;
        let header_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let params_at = header_at + 12 + header_len + 4;

        let mut values = bytes.clone();
        patch_section(&mut values, params_at, |payload| {
            let name_len = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
            let count = 4 + name_len..8 + name_len;
            payload[count].copy_from_slice(&0xFF00_0000u32.to_le_bytes());
        });
        let mut params = bytes;
        patch_section(&mut params, header_at, |payload| {
            let n = payload.len();
            payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        });

        for (tag, forged) in [("values", values), ("params", params)] {
            let strict = read_space_from_bytes(&forged);
            assert!(
                matches!(strict, Err(StoreError::Corrupt { .. })),
                "{tag}: {strict:?}"
            );
            let path = temp_path(&format!("forged-{tag}.atss"));
            std::fs::write(&path, &forged).unwrap();
            for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
                let loaded = load_space_from_path(&path, options);
                assert!(
                    matches!(loaded, Err(StoreError::Corrupt { .. })),
                    "{tag} {options:?}: {:?}",
                    loaded.map(|l| l.report)
                );
            }
        }
    }
}
