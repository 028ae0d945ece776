//! The `ATSS` binary format: reading and writing resolved search spaces.
//!
//! See the [crate documentation](crate) for the byte-by-byte layout. This
//! build reads exactly the version it writes, [`FORMAT_VERSION`], and one
//! parser walks the framing for every reader: [`peek_info`], both
//! [`LoadOptions`] policies and [`read_space_from_bytes`]. The design
//! constraints, in order:
//!
//! 1. **Close to the internal representation** (paper Section 4.3.4): the
//!    configuration arena is written verbatim as little-endian `u32` value
//!    codes — loading performs no decoding and no re-encoding. The arena
//!    section is 4-byte aligned and the membership table is persisted
//!    alongside it (`IDX` section), so a trusted warm load can *borrow*
//!    both straight out of a memory-mapped file: no copy, no table rebuild,
//!    O(header) work.
//! 2. **Written once, from the finished space**: [`write_space`] persists
//!    a constructed space's arena and membership table verbatim; the row
//!    count lives in the trailer, written last, so a half-written file is
//!    never mistaken for a complete one.
//! 3. **Self-validating**: magic + version up front, a CRC-32 per metadata
//!    section (including `IDX`), and a CRC-32 of the arena in the trailer.
//!    On the verified copy any flipped byte or truncation is detected before
//!    content is adopted; the trusted zero-copy mmap checks everything
//!    except the arena checksum and code ranges (see [`LoadOptions`]), and
//!    a damaged `IDX` section always falls back to an index rebuild —
//!    reported in the [`LoadReport`], and never a wrong lookup (the lookup
//!    algorithm re-compares arena rows, so a bad table can only miss, not
//!    misattribute).

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use at_csp::Value;
use at_searchspace::{
    Adoption, ArenaStorage, SearchSpace, SpaceError, TunableParameter, INDEX_HASH_VERSION,
};

use crate::checksum::{crc32, Crc32};
use crate::error::StoreError;
use crate::mmap::{MappedCodes, MappedFile};

/// The four magic bytes every store file starts with.
pub const MAGIC: [u8; 4] = *b"ATSS";

/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// Section tags (4 bytes each).
const TAG_HEADER: [u8; 4] = *b"HDR\0";
const TAG_PARAMS: [u8; 4] = *b"PAR\0";
const TAG_ARENA: [u8; 4] = *b"ARN\0";
const TAG_INDEX: [u8; 4] = *b"IDX\0";
const TAG_END: [u8; 4] = *b"END\0";

/// Value-encoding tag bytes.
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_STR: u8 = 4;

/// Size of the fixed trailer: tag (4) + row count (8) + arena CRC-32 (4).
const TRAILER_LEN: usize = 16;

/// Arena codes [`write_space`] converts and writes per batch (64 KiB of
/// file bytes).
const FLUSH_CODES: usize = 16 * 1024;

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
/// arena tag + alignment padding). Returns the number of bytes written —
/// which is also the arena's byte offset, guaranteed `% 4 == 0`.
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
    out.write_all(&TAG_ARENA)?;
    bytes += 4;
    // Alignment rule: a u32 pad length followed by that many zero bytes,
    // chosen so the first arena byte lands on a 4-byte file offset (mmap
    // memory is page-aligned, so file-offset alignment is view alignment).
    let pad = ((4 - ((bytes + 4) % 4)) % 4) as u32;
    out.write_all(&pad.to_le_bytes())?;
    out.write_all(&[0u8; 3][..pad as usize])?;
    Ok(bytes + 4 + pad as u64)
}

/// Write the `IDX` section for the membership table, returning the bytes
/// written. A table whose slot count does not fit the format's `u32` count
/// field (spaces in the billions of rows) is skipped entirely — the file
/// stays valid and loads rebuild the index — rather than written with a
/// silently truncated count that would corrupt the section.
fn write_index_section<W: Write>(out: &mut W, slots: &[u32]) -> io::Result<u64> {
    let Ok(num_slots) = u32::try_from(slots.len()) else {
        return Ok(0);
    };
    let mut buf = Vec::with_capacity(8 + slots.len() * 4);
    push_u32(&mut buf, INDEX_HASH_VERSION);
    push_u32(&mut buf, num_slots);
    for &slot in slots {
        buf.extend_from_slice(&slot.to_le_bytes());
    }
    write_section(out, TAG_INDEX, &buf)
}

/// Write the fixed trailer (end tag, row count, arena CRC-32).
fn write_trailer<W: Write>(out: &mut W, rows: u64, arena_crc: u32) -> io::Result<u64> {
    out.write_all(&TAG_END)?;
    out.write_all(&rows.to_le_bytes())?;
    out.write_all(&arena_crc.to_le_bytes())?;
    Ok(TRAILER_LEN as u64)
}

/// Summary of one completed store write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Number of configuration rows persisted.
    pub rows: u64,
    /// Total file bytes written (preamble + arena + index + trailer).
    pub bytes_written: u64,
}

/// Persist an already-resolved [`SearchSpace`] to a writer.
///
/// The arena is taken from [`SearchSpace::arena`] verbatim and the
/// membership table from [`SearchSpace::index_slots`]; nothing is decoded.
pub fn write_space<W: Write>(space: &SearchSpace, out: &mut W) -> Result<StoreSummary, StoreError> {
    let io_err = |source| StoreError::Io { path: None, source };
    let mut bytes = write_preamble(out, space.name(), space.params()).map_err(io_err)?;
    let mut crc = Crc32::new();
    let mut buf = Vec::with_capacity(4 * FLUSH_CODES.min(space.arena().len().max(1)));
    for chunk in space.arena().chunks(FLUSH_CODES) {
        buf.clear();
        for &code in chunk {
            buf.extend_from_slice(&code.to_le_bytes());
        }
        crc.update(&buf);
        out.write_all(&buf).map_err(io_err)?;
        bytes += buf.len() as u64;
    }
    bytes += write_index_section(out, space.index_slots()).map_err(io_err)?;
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
///   file, verify every checksum (arena included), bounds-check every code
///   and adopt the persisted index only after sampled row lookups. The only
///   path on big-endian targets.
/// * [`LoadOptions::mmap_trusted`] — the **trusted zero-copy mmap**: serve
///   the arena and the persisted index slots as borrowed views into the
///   `mmap(2)`ed file, O(header + index checksum). The arena checksum is
///   **not** verified (it would touch every page and defeat the point) and
///   the code-range pass is skipped (decoding stays bounds-checked lazily);
///   the `IDX` checksum, hash version and table structure are still
///   checked before the table is adopted, and `cache verify` remains the
///   full-validation tool. Falls back to the verified copy — recorded in
///   the [`LoadReport`] — on non-Linux targets, big-endian targets, or
///   mmap failure.
///
/// Both policies parse the file with the same parser and reject every
/// version but [`FORMAT_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadOptions {
    mmap: bool,
}

impl LoadOptions {
    /// The zero-copy fast path: mmap the arena, trust the persisted index.
    pub fn mmap_trusted() -> LoadOptions {
        LoadOptions { mmap: true }
    }
}

/// Where the served arena actually came from.
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

/// Where the served membership table actually came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexOutcome {
    /// Rebuilt from the arena: the file carries no `IDX` section.
    Rebuilt,
    /// The persisted table was adopted. `verified` is true on the verified
    /// copy.
    Adopted {
        /// Whether sampled row lookups were verified on top of the
        /// structural checks.
        verified: bool,
    },
    /// The persisted table was present but unusable (CRC mismatch, hash
    /// version mismatch, structural or sampled-lookup failure); the index
    /// was rebuilt from the arena instead. **This is a reportable
    /// condition**, not a silent fallback: stale indexes should be
    /// repaired (the cache rewrites the entry) or at least surfaced.
    RebuiltAfterFallback {
        /// Why the persisted table was rejected.
        reason: String,
    },
}

/// Everything a load did, for observability: which path served the arena,
/// and what happened to the persisted index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Arena path taken.
    pub arena: ArenaOutcome,
    /// Index path taken.
    pub index: IndexOutcome,
}

impl LoadReport {
    /// True when the arena is served zero-copy from the mapped file.
    pub fn is_zero_copy(&self) -> bool {
        self.arena == ArenaOutcome::MmapZeroCopy
    }

    /// The reason the persisted index was rejected, if it was.
    pub fn index_fallback(&self) -> Option<&str> {
        match &self.index {
            IndexOutcome::RebuiltAfterFallback { reason } => Some(reason),
            _ => None,
        }
    }

    /// A one-line human-readable description (used by CLI summaries).
    pub fn describe(&self) -> String {
        let arena = match &self.arena {
            ArenaOutcome::Copied => "copied".to_string(),
            ArenaOutcome::MmapZeroCopy => "zero-copy (mmap)".to_string(),
            ArenaOutcome::MmapFellBack { reason } => format!("copied (mmap fell back: {reason})"),
        };
        let index = match &self.index {
            IndexOutcome::Rebuilt => "index rebuilt".to_string(),
            IndexOutcome::Adopted { verified: true } => "persisted index verified".to_string(),
            IndexOutcome::Adopted { verified: false } => "persisted index trusted".to_string(),
            IndexOutcome::RebuiltAfterFallback { reason } => {
                format!("index rebuilt (persisted one rejected: {reason})")
            }
        };
        format!("{arena}, {index}")
    }
}

// ---------------------------------------------------------------------------
// reading
// ---------------------------------------------------------------------------

/// Metadata of a persisted `IDX` (membership table) section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexInfo {
    /// Version of the row-hash function the table was built with.
    pub hash_version: u32,
    /// Number of open-addressing slots.
    pub num_slots: usize,
}

/// Metadata of one store file, available without decoding the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Format version recorded in the file.
    pub version: u32,
    /// The persisted space's name.
    pub name: String,
    /// Number of tunable parameters (the arena stride).
    pub num_params: usize,
    /// Number of configuration rows.
    pub num_rows: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// The persisted membership table, if the file carries one (this build
    /// writes one unless its slot count overflows the `u32` count field).
    pub index: Option<IndexInfo>,
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
/// sections CRC-checked and the header parsed, the param dictionaries, the
/// arena and the optional index located and length-checked — but the
/// dictionaries not decoded ([`decode_params`]) and the arena CRC and the
/// index payload CRC not verified (the caller decides per [`LoadOptions`]).
/// Sections are byte ranges of the file, so parsing reads no arena or slot
/// byte.
pub(crate) struct ParsedFile {
    info: StoreInfo,
    /// The params payload (its CRC verified).
    params: Range<usize>,
    /// The arena's bytes; the range starts on a 4-byte offset.
    pub(crate) arena: Range<usize>,
    arena_crc: u32,
    idx: Option<ParsedIndex>,
}

/// The located (framing-validated) `IDX` section.
struct ParsedIndex {
    hash_version: u32,
    /// The raw little-endian slot bytes. The range starts on a 4-byte
    /// offset: the arena does, its length is a multiple of 4, and 20 frame
    /// bytes precede the slots.
    slots: Range<usize>,
    /// The whole section payload (hash version + slot count + slots),
    /// followed in the file by its CRC.
    payload: Range<usize>,
}

/// Parse and validate the framing. Reads the magic, the header and params
/// sections, the arena frame, the `IDX` frame and the trailer — no arena
/// or slot byte.
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

    // Arena tag + alignment padding.
    if file_len < pos + 4 + TRAILER_LEN {
        return Err(StoreError::corrupt("arena", "file ends before the arena"));
    }
    let frame = src.read(pos, 8, "arena")?;
    let mut cur = Cursor::new(&frame, "arena");
    if cur.take(4)? != TAG_ARENA {
        return Err(StoreError::corrupt("arena", "missing arena tag"));
    }
    let pad = cur.u32()? as usize;
    if pad > 3 {
        return Err(StoreError::corrupt(
            "arena",
            format!("implausible alignment padding {pad}"),
        ));
    }
    pos += 8 + pad;
    if !pos.is_multiple_of(4) {
        return Err(StoreError::corrupt(
            "arena",
            "alignment padding does not land the arena on a 4-byte offset",
        ));
    }

    // Trailer (always the last 16 bytes), then locate the arena by the row
    // count it declares; anything between arena end and trailer must be a
    // well-formed IDX section.
    let trailer_at = file_len - TRAILER_LEN;
    if trailer_at < pos {
        return Err(StoreError::corrupt("trailer", "overlaps the arena"));
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
    let arena_crc = cur.u32()?;

    let arena_len = num_rows
        .checked_mul(num_params)
        .and_then(|c| c.checked_mul(4))
        .filter(|&len| len <= trailer_at - pos)
        .ok_or_else(|| {
            StoreError::corrupt(
                "arena",
                format!(
                    "{} bytes before the trailer cannot hold {num_rows} rows x {num_params} params",
                    trailer_at - pos,
                ),
            )
        })?;
    let arena = pos..pos + arena_len;
    let idx = if arena.end == trailer_at {
        None
    } else {
        Some(read_index(src, arena.end, trailer_at)?)
    };

    Ok(ParsedFile {
        info: StoreInfo {
            version,
            name,
            num_params,
            num_rows,
            file_bytes: file_len as u64,
            index: idx.as_ref().map(|i| IndexInfo {
                hash_version: i.hash_version,
                num_slots: i.slots.len() / 4,
            }),
        },
        params,
        arena,
        arena_crc,
        idx,
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

/// Locate the `IDX` section that must fill `at..end` exactly, reading only
/// its 20-byte frame (tag, payload length, hash version, slot count).
fn read_index<S: Source + ?Sized>(
    src: &S,
    at: usize,
    end: usize,
) -> Result<ParsedIndex, StoreError> {
    const FRAME: usize = 4 + 8 + 4 + 4;
    if end - at < FRAME + 4 {
        return Err(StoreError::corrupt(
            "index",
            format!("{} bytes cannot hold an index section", end - at),
        ));
    }
    let frame = src.read(at, FRAME, "index")?;
    let mut cur = Cursor::new(&frame, "index");
    if cur.take(4)? != TAG_INDEX {
        return Err(StoreError::corrupt("index", "unexpected section tag"));
    }
    let payload = at + 12..end - 4;
    if cur.u64()? != payload.len() as u64 {
        return Err(StoreError::corrupt(
            "index",
            "section does not end at the trailer",
        ));
    }
    let hash_version = cur.u32()?;
    let num_slots = cur.u32()?;
    if payload.len() as u64 != 8 + u64::from(num_slots) * 4 {
        return Err(StoreError::corrupt(
            "index",
            "payload length does not match the slot count",
        ));
    }
    Ok(ParsedIndex {
        hash_version,
        slots: payload.start + 8..payload.end,
        payload,
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

/// Decode raw little-endian `u32` bytes into codes. On little-endian
/// targets the on-disk bytes *are* the in-memory layout, so this is a
/// single memcpy (without even a zero-fill of the destination); big-endian
/// targets convert per element. The caller guarantees `bytes.len()` is a
/// multiple of 4.
fn decode_codes(bytes: &[u8]) -> Vec<u32> {
    let num_codes = bytes.len() / 4;
    if cfg!(target_endian = "little") {
        let mut codes: Vec<u32> = Vec::with_capacity(num_codes);
        // SAFETY: the allocation holds at least `bytes.len()` bytes (the
        // length is a validated multiple of 4), the buffers are distinct,
        // every byte pattern is a valid `u32`, and `set_len` only covers
        // the `num_codes` elements just initialised.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                codes.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            codes.set_len(num_codes);
        }
        codes
    } else {
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    }
}

/// Build a space from parsed content: adopt the persisted index `slots`
/// (already accepted by [`usable_index`]) under `adoption`, or rebuild the
/// index from the arena when the file has none (`Ok(None)`) or the table
/// was rejected (`Err`, or a failed adoption) — the latter reported as a
/// fallback.
///
/// `arena` is consumed by the first construction attempt; the rare
/// fallback after a failed adoption obtains a fresh storage from
/// `remake_arena` (an Arc bump for mapped views, a re-decode for owned
/// copies), so the hot adopting path never deep-clones a multi-million-code
/// arena.
fn assemble(
    info: &StoreInfo,
    params: Vec<TunableParameter>,
    arena: ArenaStorage,
    slots: Result<Option<ArenaStorage>, String>,
    adoption: Adoption,
    remake_arena: impl FnOnce() -> ArenaStorage,
) -> Result<(SearchSpace, IndexOutcome), StoreError> {
    let (arena, outcome) = match slots {
        Ok(Some(slots)) => match SearchSpace::from_code_storage_with_index(
            info.name.clone(),
            params.clone(),
            info.num_rows,
            arena,
            slots,
            adoption,
        ) {
            Ok(space) => {
                let verified = adoption == Adoption::Verified;
                return Ok((space, IndexOutcome::Adopted { verified }));
            }
            Err(SpaceError::IndexInvalid { detail }) => (
                remake_arena(),
                IndexOutcome::RebuiltAfterFallback { reason: detail },
            ),
            Err(e) => return Err(e.into()),
        },
        Ok(None) => (arena, IndexOutcome::Rebuilt),
        Err(reason) => (arena, IndexOutcome::RebuiltAfterFallback { reason }),
    };
    let space = SearchSpace::from_code_storage(info.name.clone(), params, info.num_rows, arena)?;
    Ok((space, outcome))
}

/// Check the persisted index's checksum over `bytes` (the whole file) and
/// its row-hash version, returning the section to adopt (`None` when the
/// file has none) or why it is rejected.
fn usable_index<'p>(
    idx: &'p Option<ParsedIndex>,
    bytes: &[u8],
) -> Result<Option<&'p ParsedIndex>, String> {
    let Some(idx) = idx else {
        return Ok(None);
    };
    // CRC first: corruption that happens to land in the hash-version field
    // must read as "checksum mismatch", not as a version skew.
    let crc = &bytes[idx.payload.end..idx.payload.end + 4];
    if crc32(&bytes[idx.payload.clone()]) != u32::from_le_bytes(crc.try_into().expect("4 bytes")) {
        return Err("checksum mismatch".to_string());
    }
    if idx.hash_version != INDEX_HASH_VERSION {
        return Err(format!(
            "row-hash version {} (this build uses {INDEX_HASH_VERSION})",
            idx.hash_version
        ));
    }
    Ok(Some(idx))
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
/// and a report of which paths actually served it.
#[derive(Debug)]
pub struct LoadedSpace {
    /// The resolved space.
    pub space: SearchSpace,
    /// The file's metadata.
    pub info: StoreInfo,
    /// Which arena/index paths were taken (zero-copy? index adopted?).
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
    /// reads the metadata sections, the frames and the trailer but no arena
    /// or slot byte, so the arena and index checksums are not verified.
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        Ok(parse_structure(&FileSource::new(&self.file, &self.path)?)?.info)
    }

    /// Load the space under `options` (see [`LoadOptions`] for the exact
    /// validation each policy performs), and report in [`LoadReport`] what
    /// actually happened: a requested path falls back rather than fails
    /// whenever the file itself is sound.
    pub fn load(&self, options: LoadOptions) -> Result<LoadedSpace, StoreError> {
        let span =
            at_obs::span("store-load", "store").arg("mmap_requested", u64::from(options.mmap));
        let fell_back = |reason: String| ArenaOutcome::MmapFellBack { reason };
        let loaded = if !options.mmap {
            self.load_copy(ArenaOutcome::Copied)
        } else if cfg!(target_endian = "big") {
            self.load_copy(fell_back("big-endian target".to_string()))
        } else {
            match MappedFile::map(&self.file) {
                Ok(map) => Self::load_mapped(Arc::new(map)),
                Err(e) => self.load_copy(fell_back(e.to_string())),
            }
        }?;
        drop(
            span.arg("rows", loaded.space.len() as u64)
                .arg("zero_copy", u64::from(loaded.report.is_zero_copy()))
                .arg(
                    "index_fallback",
                    u64::from(loaded.report.index_fallback().is_some()),
                ),
        );
        Ok(loaded)
    }

    /// The verified copy: read the whole file through the open handle,
    /// verify every checksum. `read_to_end` on the handle fills the buffer
    /// without zeroing it first, which a read at an offset cannot.
    fn load_copy(&self, arena_outcome: ArenaOutcome) -> Result<LoadedSpace, StoreError> {
        let mut bytes = Vec::new();
        {
            let _cursor = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
            let mut file = &self.file;
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_to_end(&mut bytes))
                .map_err(|e| StoreError::io(&self.path, e))?;
        }
        Self::load_copy_from_bytes(&bytes, arena_outcome)
    }

    /// The verified copy over bytes already in memory.
    fn load_copy_from_bytes(
        bytes: &[u8],
        arena_outcome: ArenaOutcome,
    ) -> Result<LoadedSpace, StoreError> {
        let parsed = parse_structure(bytes)?;
        let params = decode_params(&bytes[parsed.params.clone()], parsed.info.num_params)?;
        let arena = &bytes[parsed.arena.clone()];
        if crc32(arena) != parsed.arena_crc {
            return Err(StoreError::corrupt("arena", "checksum mismatch"));
        }
        let slots = usable_index(&parsed.idx, bytes)
            .map(|idx| idx.map(|idx| ArenaStorage::from(decode_codes(&bytes[idx.slots.clone()]))));
        let (space, index) = assemble(
            &parsed.info,
            params,
            ArenaStorage::from(decode_codes(arena)),
            slots,
            Adoption::Verified,
            || ArenaStorage::from(decode_codes(arena)),
        )?;
        Ok(LoadedSpace {
            space,
            info: parsed.info,
            report: LoadReport {
                arena: arena_outcome,
                index,
            },
        })
    }

    /// The trusted zero-copy load: parse the mapped bytes, serve the arena
    /// and the index slots as borrowed views. The arena checksum is
    /// intentionally not verified here (see [`LoadOptions`]).
    fn load_mapped(map: Arc<MappedFile>) -> Result<LoadedSpace, StoreError> {
        let parsed = parse_structure(map.bytes())?;
        let params = decode_params(&map.bytes()[parsed.params.clone()], parsed.info.num_params)?;
        let slots = usable_index(&parsed.idx, map.bytes()).and_then(|idx| {
            idx.map(|idx| {
                MappedCodes::new(Arc::clone(&map), idx.slots.start, idx.slots.len())
                    .map(|view| ArenaStorage::Shared(Arc::new(view)))
                    .map_err(|e| e.to_string())
            })
            .transpose()
        });
        let arena_view = MappedCodes::new(Arc::clone(&map), parsed.arena.start, parsed.arena.len())
            .map_err(|e| StoreError::corrupt("arena", e.to_string()))?;
        let (space, index) = assemble(
            &parsed.info,
            params,
            ArenaStorage::Shared(Arc::new(arena_view.clone())),
            slots,
            Adoption::Trusted,
            || ArenaStorage::Shared(Arc::new(arena_view)),
        )?;
        Ok(LoadedSpace {
            space,
            info: parsed.info,
            report: LoadReport {
                arena: ArenaOutcome::MmapZeroCopy,
                index,
            },
        })
    }
}

/// Load a store file with explicit [`LoadOptions`] in one call.
pub fn load_space_from_path(
    path: impl AsRef<Path>,
    options: LoadOptions,
) -> Result<LoadedSpace, StoreError> {
    StoreReader::open(path)?.load(options)
}

/// Validate and rebuild a space from an in-memory store file in one call.
///
/// This is the **strict** entry point: the verified copy
/// ([`LoadOptions::default`]), except that a persisted `IDX` section the
/// verified copy would reject and rebuild is an error here, never a
/// fallback — so every checksum in the file must verify and a present
/// table must pass [`Adoption::Verified`]. The cache layer maps such
/// errors to a rebuild. For policy-driven loading (zero-copy, reported
/// fallbacks) use [`StoreReader::load`].
pub fn read_space_from_bytes(bytes: &[u8]) -> Result<(SearchSpace, StoreInfo), StoreError> {
    let loaded = StoreReader::load_copy_from_bytes(bytes, ArenaOutcome::Copied)?;
    if let Some(reason) = loaded.report.index_fallback() {
        return Err(StoreError::corrupt("index", reason));
    }
    Ok((loaded.space, loaded.info))
}

/// Read, validate and rebuild a space from a store file in one call (the
/// strict copying path; see [`read_space_from_bytes`]).
pub fn read_space_from_path(
    path: impl AsRef<Path>,
) -> Result<(SearchSpace, StoreInfo), StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
    read_space_from_bytes(&bytes)
}

/// Read a store file's metadata without loading or validating the arena —
/// the cheap path for listing a cache directory ([`StoreReader::info`]).
/// The header and params sections' CRCs *are* verified and every frame is
/// checked; the arena and index checksums are not (use
/// [`read_space_from_bytes`] for a full verification).
pub fn peek_info(path: impl AsRef<Path>) -> Result<StoreInfo, StoreError> {
    StoreReader::open(path)?.info()
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_csp::value::int_values;

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
        let index = info.index.expect("v2 files carry an index");
        assert_eq!(index.hash_version, INDEX_HASH_VERSION);
        assert_eq!(index.num_slots, space.index_slots().len());
        spaces_identical(&space, &loaded);
    }

    #[test]
    fn v2_arena_is_four_byte_aligned_for_any_name_length() {
        for name in ["s", "sp", "spa", "spac", "space"] {
            let params = vec![TunableParameter::ints("x", [1, 2])];
            let space = SearchSpace::from_configs(name, params, vec![int_values([1])]).unwrap();
            let mut bytes = Vec::new();
            write_space(&space, &mut bytes).unwrap();
            let parsed = parse_structure(bytes.as_slice()).unwrap();
            assert_eq!(
                parsed.arena.start % 4,
                0,
                "arena misaligned for name {name:?}"
            );
            let idx = parsed.idx.as_ref().expect("index present");
            assert_eq!(idx.slots.start % 4, 0, "slots misaligned for {name:?}");
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
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();

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
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            let result = read_space_from_bytes(&flipped);
            assert!(result.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        for keep in 0..bytes.len() {
            let result = read_space_from_bytes(&bytes[..keep]);
            assert!(
                result.is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
    }

    #[test]
    fn peek_reads_metadata_without_the_arena() {
        let path = temp_path("peek.atss");
        let space = small_space();
        write_space_to_path(&space, &path).unwrap();
        let info = peek_info(&path).unwrap();
        assert_eq!(info.name, "small");
        assert_eq!(info.num_rows, 4);
        assert_eq!(info.num_params, 2);
        assert_eq!(info.version, FORMAT_VERSION);
        let index = info.index.expect("index frame located");
        assert_eq!(index.hash_version, INDEX_HASH_VERSION);
        assert_eq!(index.num_slots, space.index_slots().len());
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
    /// accept files the strict reader rejects (it skips the arena and
    /// index checksums and the code checks), but never the other way
    /// around.
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
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        for keep in 0..bytes.len() {
            assert_peek_not_stricter(&bytes[..keep], "trunc", &format!("truncation to {keep}"));
        }
    }

    #[test]
    fn peek_agrees_with_the_strict_reader_on_single_byte_flips() {
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert_peek_not_stricter(&flipped, "flip", &format!("flip at byte {i}"));
        }
    }

    #[test]
    fn peek_survives_overflowing_trailer_row_counts() {
        // A hostile trailer row count must yield a clean corruption error,
        // not an arithmetic overflow: both the `rows * params * 4` product
        // and the `arena offset + arena length` sum can exceed `u64`.
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
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
    fn peek_rejects_stray_bytes_between_the_index_and_the_trailer() {
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        // The index section must end exactly where the trailer starts, so
        // a stray byte in front of the trailer is rejected by both readers.
        let mut padded = bytes.clone();
        padded.insert(bytes.len() - TRAILER_LEN, 0);
        assert_peek_not_stricter(&padded, "stray", "a stray pre-trailer byte");
        let path = temp_path("peek-stray.atss");
        std::fs::write(&path, &padded).unwrap();
        assert!(matches!(
            peek_info(&path),
            Err(StoreError::Corrupt {
                section: "index",
                ..
            })
        ));
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
    fn parsing_requests_no_arena_or_slot_byte() {
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let src = Recording {
            bytes: &bytes,
            requests: Default::default(),
        };
        let parsed = parse_structure(&src).unwrap();
        let slots = parsed.idx.as_ref().expect("index present").slots.clone();
        assert!(!parsed.arena.is_empty() && !slots.is_empty());
        let requests = src.requests.borrow();
        assert!(!requests.is_empty());
        for request in requests.iter() {
            for section in [&parsed.arena, &slots] {
                assert!(
                    request.end <= section.start || request.start >= section.end,
                    "request {request:?} reads bytes of {section:?}"
                );
            }
        }
    }

    #[test]
    fn hostile_section_lengths_are_corrupt_without_allocating() {
        // Each length field claims ~2^60 bytes. Reading through the file
        // source checks the range before allocating, so the result is a
        // clean content error, not an abort in the allocator.
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        let header_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let params_at = 8 + 12 + header_len + 4;
        let index_at = parse_structure(bytes.as_slice()).unwrap().arena.end;
        let hostile = (1u64 << 60).to_le_bytes();
        for (section, at) in [("header", 8), ("params", params_at), ("index", index_at)] {
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
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
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
    fn both_load_policies_serve_the_same_space() {
        let path = temp_path("policies.atss");
        let space = small_space();
        write_space_to_path(&space, &path).unwrap();
        let reader = StoreReader::open(&path).unwrap();

        let copied = reader.load(LoadOptions::default()).unwrap();
        spaces_identical(&space, &copied.space);
        assert_eq!(copied.report.arena, ArenaOutcome::Copied);
        assert_eq!(
            copied.report.index,
            IndexOutcome::Adopted { verified: true }
        );
        assert!(!copied.space.is_zero_copy());

        let mapped = reader.load(LoadOptions::mmap_trusted()).unwrap();
        spaces_identical(&space, &mapped.space);
        assert_eq!(
            mapped.report.index,
            IndexOutcome::Adopted { verified: false }
        );
        if cfg!(target_os = "linux") {
            assert!(mapped.report.is_zero_copy(), "{:?}", mapped.report);
            assert!(mapped.space.is_zero_copy());
        }
    }

    #[test]
    fn corrupt_index_falls_back_to_rebuild_with_a_report() {
        let path = temp_path("bad-index.atss");
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        // Flip a byte inside the IDX slot array (between arena end and the
        // trailer, past the section frame and payload header).
        let flip_at = bytes.len() - TRAILER_LEN - 1;
        bytes[flip_at] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();

        // Strict reader: hard error.
        assert!(read_space_from_bytes(&bytes).is_err());

        // Both policies: clean fallback, reported — and identical answers.
        for options in [LoadOptions::default(), LoadOptions::mmap_trusted()] {
            let loaded = load_space_from_path(&path, options).unwrap();
            let reason = loaded
                .report
                .index_fallback()
                .expect("fallback must be reported");
            assert!(reason.contains("checksum"), "{reason}");
            spaces_identical(&space, &loaded.space);
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
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
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

    #[test]
    fn wrong_hash_version_index_is_rejected_then_rebuilt() {
        let space = small_space();
        let mut bytes = Vec::new();
        write_space(&space, &mut bytes).unwrap();
        // The IDX payload starts with the hash version; patch it and fix
        // the section CRC so only the version mismatch remains.
        let payload = parse_structure(bytes.as_slice())
            .unwrap()
            .idx
            .unwrap()
            .payload;
        let (payload_at, payload_len) = (payload.start, payload.len());
        bytes[payload_at..payload_at + 4].copy_from_slice(&77u32.to_le_bytes());
        let crc = crc32(&bytes[payload_at..payload_at + payload_len]);
        let crc_at = payload_at + payload_len;
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());

        assert!(read_space_from_bytes(&bytes).is_err(), "strict reader");
        let path = temp_path("hashver.atss");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_space_from_path(&path, LoadOptions::default()).unwrap();
        let reason = loaded.report.index_fallback().unwrap();
        assert!(reason.contains("hash version"), "{reason}");
        spaces_identical(&space, &loaded.space);
    }
}
