//! The `ATSS` binary format: reading and writing resolved search spaces.
//!
//! See the [crate documentation](crate) for the byte-by-byte layout of both
//! supported versions. The design constraints, in order:
//!
//! 1. **Close to the internal representation** (paper Section 4.3.4): the
//!    configuration arena is written verbatim as little-endian `u32` value
//!    codes — loading performs no decoding and no re-encoding. Since v2 the
//!    arena section is 4-byte aligned and the membership table is persisted
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

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use at_csp::Value;
use at_searchspace::{
    Adoption, ArenaStorage, SearchSpace, SpaceError, TunableParameter, INDEX_HASH_VERSION,
};

use crate::checksum::{crc32, Crc32};
use crate::error::StoreError;
use crate::mmap::{MapError, MappedCodes, MappedFile};

/// The four magic bytes every store file starts with.
pub const MAGIC: [u8; 4] = *b"ATSS";

/// The format version this build writes.
pub const FORMAT_VERSION: u32 = 2;

/// The oldest format version this build still reads (via the copying
/// path; v1 files have no alignment rule and no index section).
pub const MIN_READ_VERSION: u32 = 1;

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
/// arena tag + v2 alignment padding). Returns the number of bytes written —
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
    // v2 alignment rule: a u32 pad length followed by that many zero bytes,
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
///   path for v1 files and big-endian targets.
/// * [`LoadOptions::mmap_trusted`] — the **trusted zero-copy mmap**: serve
///   the arena and the persisted index slots as borrowed views into the
///   `mmap(2)`ed file, O(header + index checksum). The arena checksum is
///   **not** verified (it would touch every page and defeat the point) and
///   the code-range pass is skipped (decoding stays bounds-checked lazily);
///   the `IDX` checksum, hash version and table structure are still
///   checked before the table is adopted, and `cache verify` remains the
///   full-validation tool. Falls back to the verified copy — recorded in
///   the [`LoadReport`] — on non-Linux targets, big-endian targets,
///   unaligned (v1) arenas, or mmap failure.
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
        /// Why the mapping could not be served (platform, alignment, v1
        /// file, syscall failure).
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
    /// The persisted membership table, if the file carries one (v2 files
    /// written by this build always do; v1 files never do).
    pub index: Option<IndexInfo>,
}

/// The structurally validated parts of a store file: every metadata section
/// parsed and CRC-checked, the arena and optional index located and
/// length-checked — but the arena CRC and the index payload CRC not yet
/// verified (the caller decides per [`LoadOptions`]).
pub(crate) struct ParsedFile<'a> {
    info: StoreInfo,
    params: Vec<TunableParameter>,
    /// Byte offset of the first arena byte in the file.
    pub(crate) arena_offset: usize,
    pub(crate) arena: &'a [u8],
    arena_crc: u32,
    idx: Option<ParsedIndex<'a>>,
}

/// The located (framing-validated) `IDX` section.
struct ParsedIndex<'a> {
    hash_version: u32,
    /// Byte offset of the first slot byte in the file (4-byte aligned for
    /// files written by this build).
    slots_offset: usize,
    /// The raw little-endian slot bytes.
    slots: &'a [u8],
    /// The whole section payload (hash version + slot count + slots), for
    /// CRC verification.
    payload: &'a [u8],
    crc: u32,
}

impl ParsedIndex<'_> {
    fn crc_ok(&self) -> bool {
        crc32(self.payload) == self.crc
    }
}

/// Parse and validate everything except the arena and index checksums.
pub(crate) fn parse_structure(bytes: &[u8]) -> Result<ParsedFile<'_>, StoreError> {
    // Magic + version.
    if bytes.len() < 8 + TRAILER_LEN {
        return Err(StoreError::corrupt(
            "header",
            format!(
                "file holds {} bytes, too short for any store file",
                bytes.len()
            ),
        ));
    }
    if bytes[0..4] != MAGIC {
        return Err(StoreError::BadMagic {
            found: bytes[0..4].try_into().expect("4 bytes"),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if !(MIN_READ_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    // Framed metadata sections.
    let mut pos = 8usize;
    let header = read_section(bytes, &mut pos, TAG_HEADER, "header")?;
    let mut cur = Cursor::new(header, "header");
    let name = cur.str()?;
    let num_params = cur.u32()? as usize;
    if !cur.done() {
        return Err(StoreError::corrupt("header", "trailing bytes after header"));
    }

    let params_bytes = read_section(bytes, &mut pos, TAG_PARAMS, "params")?;
    let mut cur = Cursor::new(params_bytes, "params");
    // Counts read from the file only size allocations up to the bytes
    // that could back them: a forged count fails below, not in the
    // allocator.
    let mut params = Vec::with_capacity(num_params.min(params_bytes.len()));
    for _ in 0..num_params {
        let pname = cur.str()?;
        let count = cur.u32()? as usize;
        let mut values = Vec::with_capacity(count.min(params_bytes.len()));
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

    // Arena tag (+ v2 alignment padding).
    if bytes.len() < pos + 4 + TRAILER_LEN {
        return Err(StoreError::corrupt("arena", "file ends before the arena"));
    }
    if bytes[pos..pos + 4] != TAG_ARENA {
        return Err(StoreError::corrupt("arena", "missing arena tag"));
    }
    pos += 4;
    if version >= 2 {
        let mut cur = Cursor::new(&bytes[pos..], "arena");
        let pad = cur.u32()? as usize;
        if pad > 3 {
            return Err(StoreError::corrupt(
                "arena",
                format!("implausible alignment padding {pad}"),
            ));
        }
        cur.take(pad)?;
        pos += cur.pos;
        if !pos.is_multiple_of(4) {
            return Err(StoreError::corrupt(
                "arena",
                "alignment padding does not land the arena on a 4-byte offset",
            ));
        }
    }
    let arena_offset = pos;

    // Trailer (always the last 16 bytes), then slice the arena by the row
    // count it declares; anything between arena end and trailer must be a
    // well-formed IDX section (v2 only).
    let trailer_at = bytes.len() - TRAILER_LEN;
    if trailer_at < pos {
        return Err(StoreError::corrupt("trailer", "overlaps the arena"));
    }
    let mut cur = Cursor::new(&bytes[trailer_at..], "trailer");
    let end_tag = cur.take(4)?;
    if end_tag != TAG_END {
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
    let arena = &bytes[pos..pos + arena_len];
    pos += arena_len;

    // Between arena end and trailer: nothing (v1, or v2 without an index)
    // or exactly one IDX section.
    let idx = if pos == trailer_at {
        None
    } else if version < 2 {
        return Err(StoreError::corrupt(
            "arena",
            format!(
                "arena holds {} bytes where {num_rows} rows x {num_params} params need {arena_len}",
                trailer_at - arena_offset,
            ),
        ));
    } else {
        let section_bytes = &bytes[..trailer_at];
        let mut cur = Cursor::new(&section_bytes[pos..], "index");
        let tag = cur.take(4)?;
        if tag != TAG_INDEX {
            return Err(StoreError::corrupt("index", "unexpected section tag"));
        }
        let payload_len = cur.u64()? as usize;
        let payload_at = pos + cur.pos;
        let payload = cur.take(payload_len)?;
        let crc = cur.u32()?;
        if pos + cur.pos != trailer_at {
            return Err(StoreError::corrupt(
                "index",
                "trailing bytes between the index section and the trailer",
            ));
        }
        let mut pcur = Cursor::new(payload, "index");
        let hash_version = pcur.u32()?;
        let num_slots = pcur.u32()? as usize;
        let slots = pcur.take(
            num_slots
                .checked_mul(4)
                .ok_or_else(|| StoreError::corrupt("index", "slot count overflows"))?,
        )?;
        if !pcur.done() {
            return Err(StoreError::corrupt(
                "index",
                "trailing bytes after the slot array",
            ));
        }
        Some(ParsedIndex {
            hash_version,
            slots_offset: payload_at + 8,
            slots,
            payload,
            crc,
        })
    };

    Ok(ParsedFile {
        info: StoreInfo {
            version,
            name,
            num_params,
            num_rows,
            file_bytes: bytes.len() as u64,
            index: idx.as_ref().map(|i| IndexInfo {
                hash_version: i.hash_version,
                num_slots: i.slots.len() / 4,
            }),
        },
        params,
        arena_offset,
        arena,
        arena_crc,
        idx,
    })
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

/// Read one framed metadata section starting at `*pos`, verify its tag and
/// CRC, and advance `*pos` past it.
fn read_section<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    tag: [u8; 4],
    section: &'static str,
) -> Result<&'a [u8], StoreError> {
    let mut cur = Cursor::new(&bytes[*pos..], section);
    let found = cur.take(4)?;
    if found != tag {
        return Err(StoreError::corrupt(section, "unexpected section tag"));
    }
    let len = cur.u64()? as usize;
    let payload = cur.take(len)?;
    let stored_crc = cur.u32()?;
    if crc32(payload) != stored_crc {
        return Err(StoreError::corrupt(section, "checksum mismatch"));
    }
    *pos += cur.pos;
    Ok(payload)
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

/// Check the persisted index's checksum and row-hash version, returning
/// the section to adopt (`None` when the file has none) or why it is
/// rejected.
fn usable_index<'a, 'b>(
    idx: &'a Option<ParsedIndex<'b>>,
) -> Result<Option<&'a ParsedIndex<'b>>, String> {
    let Some(idx) = idx else {
        return Ok(None);
    };
    // CRC first: corruption that happens to land in the hash-version field
    // must read as "checksum mismatch", not as a version skew.
    if !idx.crc_ok() {
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
        Ok(StoreReader { path, file })
    }

    /// The file's metadata (header + trailer + index frame only; the arena
    /// is not read).
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        peek_info(&self.path)
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
                Ok(map) => self.load_mapped(Arc::new(map)),
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

    /// The verified copy: full read, every checksum verified.
    fn load_copy(&self, arena_outcome: ArenaOutcome) -> Result<LoadedSpace, StoreError> {
        let bytes = std::fs::read(&self.path).map_err(|e| StoreError::io(&self.path, e))?;
        Self::load_copy_from_bytes(&bytes, arena_outcome)
    }

    /// The verified copy over bytes already in memory (a fresh read, or a
    /// mapping that cannot be served zero-copy — sparing a second disk
    /// read on the v1/unaligned fallback).
    fn load_copy_from_bytes(
        bytes: &[u8],
        arena_outcome: ArenaOutcome,
    ) -> Result<LoadedSpace, StoreError> {
        let parsed = parse_structure(bytes)?;
        if crc32(parsed.arena) != parsed.arena_crc {
            return Err(StoreError::corrupt("arena", "checksum mismatch"));
        }
        let slots = usable_index(&parsed.idx)
            .map(|idx| idx.map(|idx| ArenaStorage::from(decode_codes(idx.slots))));
        let (space, index) = assemble(
            &parsed.info,
            parsed.params,
            ArenaStorage::from(decode_codes(parsed.arena)),
            slots,
            Adoption::Verified,
            || ArenaStorage::from(decode_codes(parsed.arena)),
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
    fn load_mapped(&self, map: Arc<MappedFile>) -> Result<LoadedSpace, StoreError> {
        let parsed = parse_structure(map.bytes())?;
        if parsed.info.version < 2 || !parsed.arena_offset.is_multiple_of(4) {
            let reason = if parsed.info.version < 2 {
                "v1 file (no alignment rule)".to_string()
            } else {
                "unaligned arena".to_string()
            };
            drop(parsed);
            // The bytes are already mapped: copy out of the mapping
            // instead of reading the file a second time.
            return Self::load_copy_from_bytes(map.bytes(), ArenaOutcome::MmapFellBack { reason });
        }
        let slots = usable_index(&parsed.idx).and_then(|idx| {
            idx.map(|idx| {
                MappedCodes::new(Arc::clone(&map), idx.slots_offset, idx.slots.len())
                    .map(|view| ArenaStorage::Shared(Arc::new(view)))
                    .map_err(|e| match e {
                        MapError::BadRange { .. } => {
                            "index slots are not 4-byte aligned".to_string()
                        }
                        e => e.to_string(),
                    })
            })
            .transpose()
        });
        let arena_view =
            MappedCodes::new(Arc::clone(&map), parsed.arena_offset, parsed.arena.len())
                .map_err(|e| StoreError::corrupt("arena", e.to_string()))?;
        let (space, index) = assemble(
            &parsed.info,
            parsed.params,
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
/// the cheap path for listing a cache directory. The header section's CRC
/// *is* verified, and the `IDX` section's frame (tag, version, slot count)
/// is located via O(1) seeks; the arena and index checksums are not
/// checked (use [`read_space_from_bytes`] for a full verification).
pub fn peek_info(path: impl AsRef<Path>) -> Result<StoreInfo, StoreError> {
    let path = path.as_ref();
    let mut file = File::open(path).map_err(|e| StoreError::io(path, e))?;
    let file_bytes = file.metadata().map_err(|e| StoreError::io(path, e))?.len();

    let mut head = [0u8; 8 + 12];
    file.read_exact(&mut head)
        .map_err(|_| StoreError::corrupt("header", "file too short"))?;
    if head[0..4] != MAGIC {
        return Err(StoreError::BadMagic {
            found: head[0..4].try_into().expect("4 bytes"),
        });
    }
    let version = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if !(MIN_READ_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if head[8..12] != TAG_HEADER {
        return Err(StoreError::corrupt("header", "missing header tag"));
    }
    let hdr_len = u64::from_le_bytes(head[12..20].try_into().expect("8 bytes")) as usize;
    if hdr_len > 1 << 20 {
        return Err(StoreError::corrupt("header", "implausible header length"));
    }
    let mut payload = vec![0u8; hdr_len + 4];
    file.read_exact(&mut payload)
        .map_err(|_| StoreError::corrupt("header", "file ends inside the header"))?;
    let (payload, crc_bytes) = payload.split_at(hdr_len);
    if crc32(payload) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) {
        return Err(StoreError::corrupt("header", "checksum mismatch"));
    }
    let mut cur = Cursor::new(payload, "header");
    let name = cur.str()?;
    let num_params = cur.u32()? as usize;
    if !cur.done() {
        return Err(StoreError::corrupt("header", "trailing bytes after header"));
    }

    // The header read above guarantees `file_bytes >= 20 > TRAILER_LEN`.
    let trailer_at = file_bytes - TRAILER_LEN as u64;
    file.seek(SeekFrom::Start(trailer_at))
        .map_err(|e| StoreError::io(path, e))?;
    let mut trailer = [0u8; TRAILER_LEN];
    file.read_exact(&mut trailer)
        .map_err(|_| StoreError::corrupt("trailer", "file too short"))?;
    if trailer[0..4] != TAG_END {
        return Err(StoreError::corrupt(
            "trailer",
            "missing end tag (file truncated or construction crashed mid-write)",
        ));
    }
    let num_rows = u64::from_le_bytes(trailer[4..12].try_into().expect("8 bytes")) as usize;

    // Walk the remaining section frames with O(1) seeks — the same exact
    // accounting as `parse_structure`, just without reading the payloads.
    // Every offset is computed with checked arithmetic: all frame lengths
    // and the trailer's row count are attacker-controlled, and an
    // overflowing sum must become a clean corruption error, not a panic or
    // a wrapped-around seek.
    let too_short = |section: &'static str| {
        StoreError::corrupt(section, format!("file ends before the {section} section"))
    };
    let par_at = 8 + 12 + hdr_len as u64 + 4; // hdr_len is capped above
    file.seek(SeekFrom::Start(par_at))
        .map_err(|e| StoreError::io(path, e))?;
    let mut frame = [0u8; 12];
    file.read_exact(&mut frame)
        .map_err(|_| StoreError::corrupt("params", "file ends inside the params frame"))?;
    if frame[0..4] != TAG_PARAMS {
        return Err(StoreError::corrupt("params", "missing params tag"));
    }
    let par_len = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
    let arena_tag_at = par_at
        .checked_add(12)
        .and_then(|v| v.checked_add(par_len))
        .and_then(|v| v.checked_add(4))
        .filter(|&v| v <= trailer_at)
        .ok_or_else(|| too_short("arena"))?;
    file.seek(SeekFrom::Start(arena_tag_at))
        .map_err(|e| StoreError::io(path, e))?;
    let arena_at = if version >= 2 {
        let mut arn = [0u8; 8];
        file.read_exact(&mut arn)
            .map_err(|_| StoreError::corrupt("arena", "file ends inside the arena frame"))?;
        if arn[0..4] != TAG_ARENA {
            return Err(StoreError::corrupt("arena", "missing arena tag"));
        }
        let pad = u32::from_le_bytes(arn[4..8].try_into().expect("4 bytes")) as u64;
        if pad > 3 {
            return Err(StoreError::corrupt(
                "arena",
                format!("implausible alignment padding {pad}"),
            ));
        }
        let at = arena_tag_at
            .checked_add(8 + pad)
            .filter(|&v| v <= trailer_at)
            .ok_or_else(|| too_short("arena"))?;
        if !at.is_multiple_of(4) {
            return Err(StoreError::corrupt(
                "arena",
                "alignment padding does not land the arena on a 4-byte offset",
            ));
        }
        at
    } else {
        let mut arn = [0u8; 4];
        file.read_exact(&mut arn)
            .map_err(|_| StoreError::corrupt("arena", "file ends inside the arena frame"))?;
        if arn != TAG_ARENA {
            return Err(StoreError::corrupt("arena", "missing arena tag"));
        }
        arena_tag_at
            .checked_add(4)
            .filter(|&v| v <= trailer_at)
            .ok_or_else(|| too_short("arena"))?
    };
    let arena_len = (num_rows as u64)
        .checked_mul(num_params as u64)
        .and_then(|c| c.checked_mul(4))
        .ok_or_else(|| StoreError::corrupt("arena", "arena size overflows"))?;
    let after_arena = arena_at
        .checked_add(arena_len)
        .filter(|&v| v <= trailer_at)
        .ok_or_else(|| {
            StoreError::corrupt(
                "arena",
                format!(
                    "{} bytes before the trailer cannot hold {num_rows} rows x {num_params} params",
                    trailer_at.saturating_sub(arena_at),
                ),
            )
        })?;

    // Between arena end and trailer: nothing (v1, or v2 without an index)
    // or exactly one IDX section — the same rule `parse_structure` applies.
    let mut index = None;
    if after_arena < trailer_at {
        if version < 2 {
            return Err(StoreError::corrupt(
                "arena",
                format!(
                    "arena holds {} bytes where {num_rows} rows x {num_params} params need {arena_len}",
                    trailer_at - arena_at,
                ),
            ));
        }
        file.seek(SeekFrom::Start(after_arena))
            .map_err(|e| StoreError::io(path, e))?;
        let mut frame = [0u8; 4 + 8 + 8];
        file.read_exact(&mut frame)
            .map_err(|_| StoreError::corrupt("index", "file ends inside the index frame"))?;
        if frame[0..4] != TAG_INDEX {
            return Err(StoreError::corrupt("index", "unexpected section tag"));
        }
        let payload_len = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
        let idx_end = after_arena
            .checked_add(4 + 8 + 4)
            .and_then(|v| v.checked_add(payload_len));
        if idx_end != Some(trailer_at) {
            return Err(StoreError::corrupt(
                "index",
                "trailing bytes between the index section and the trailer",
            ));
        }
        let hash_version = u32::from_le_bytes(frame[12..16].try_into().expect("4 bytes"));
        let num_slots = u32::from_le_bytes(frame[16..20].try_into().expect("4 bytes")) as usize;
        if payload_len != 8 + num_slots as u64 * 4 {
            return Err(StoreError::corrupt(
                "index",
                "payload length does not match the slot count",
            ));
        }
        index = Some(IndexInfo {
            hash_version,
            num_slots,
        });
    }

    Ok(StoreInfo {
        version,
        name,
        num_params,
        num_rows,
        file_bytes,
        index,
    })
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
            let parsed = parse_structure(&bytes).unwrap();
            assert_eq!(
                parsed.arena_offset % 4,
                0,
                "arena misaligned for name {name:?}"
            );
            let idx = parsed.idx.as_ref().expect("index present");
            assert_eq!(idx.slots_offset % 4, 0, "slots misaligned for {name:?}");
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
    /// metadata must be identical. Peek may accept files the strict
    /// reader rejects (it skips the param dictionaries and all content
    /// checksums), but never the other way around.
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
    fn peek_rejects_stray_bytes_between_arena_and_trailer_in_v1() {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/v1-small.atss");
        let bytes = std::fs::read(fixture).unwrap();
        assert_peek_not_stricter(&bytes, "v1", "pristine v1 fixture");
        // Splice a stray byte in front of the trailer: v1 has no index
        // section, so the gap must be rejected by both readers.
        let mut padded = bytes.clone();
        padded.insert(bytes.len() - TRAILER_LEN, 0);
        assert_peek_not_stricter(&padded, "v1-stray", "v1 file with a stray pre-trailer byte");
        let path = temp_path("peek-v1-stray.atss");
        std::fs::write(&path, &padded).unwrap();
        assert!(peek_info(&path).is_err(), "stray byte accepted by peek");
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
        let parsed = parse_structure(&bytes).unwrap();
        let payload_at = parsed.idx.as_ref().unwrap().slots_offset - 8;
        let payload_len = parsed.idx.as_ref().unwrap().payload.len();
        drop(parsed);
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
