//! A hand-rolled `mmap(2)` wrapper: zero-copy file views without new deps.
//!
//! The zero-copy load path serves a `SearchSpace` arena (and optionally its
//! membership-table slots) straight out of the store file. The container
//! policy is "no new dependencies", so instead of the `memmap2` crate this
//! module declares the two syscalls it needs against the C library Rust
//! already links on Linux. Everything else — platform gating, alignment,
//! lifetime safety — is handled here:
//!
//! * **Platform**: real mapping on `target_os = "linux"` only (the constants
//!   below are Linux's). Elsewhere [`MappedFile::map`] returns
//!   [`MapError::Unsupported`] and callers fall back to the copying load.
//! * **Alignment**: `mmap` returns page-aligned memory, so a `&[u32]` view
//!   at byte offset `o` is valid iff `o % 4 == 0`. The `ATSS` layout
//!   guarantees this for the arena and `IDX` sections, and the parser
//!   rejects a file whose arena does not start on a 4-byte offset.
//! * **Lifetime**: [`MappedCodes`] owns an `Arc` of the mapping, so a view
//!   can never outlive the `munmap`. The mapping is `MAP_PRIVATE` and
//!   `PROT_READ`: the file cannot be written through it, and writes *to*
//!   the file by others do not tear our pages' consistency guarantees any
//!   further than an owned read racing the same writer would.

use std::fmt;
use std::fs::File;
use std::sync::Arc;

use at_searchspace::CodeBacking;

/// Why a file could not be mapped. Callers treat every variant as "use the
/// copying load instead"; none of them is a content error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// This build has no mmap support (non-Linux target).
    Unsupported,
    /// The `mmap(2)` call itself failed (errno in the payload).
    Syscall(i32),
    /// A requested `u32` view is not 4-byte aligned or out of the mapped
    /// range. The store parser only hands out aligned, in-bounds ranges,
    /// so for a parsed file this is a bug, not damage.
    BadRange {
        /// Byte offset of the requested view.
        offset: usize,
        /// Byte length of the requested view.
        len: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unsupported => write!(f, "memory mapping is not supported on this platform"),
            MapError::Syscall(errno) => write!(f, "mmap failed (errno {errno})"),
            MapError::BadRange { offset, len } => write!(
                f,
                "cannot view {len} bytes at offset {offset} as aligned u32s"
            ),
        }
    }
}

impl std::error::Error for MapError {}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    use std::os::unix::io::RawFd;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: RawFd,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
        pub fn __errno_location() -> *mut i32;
    }
}

/// A read-only, private memory mapping of a whole file.
///
/// The mapped bytes are valid for the lifetime of this value; dropping it
/// unmaps. A zero-length file maps to an empty slice without a syscall
/// (Linux rejects `mmap` with length 0).
pub struct MappedFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never mutated or remapped after
// construction; a shared `&[u8]` over it is as thread-safe as any other
// immutable buffer.
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

impl fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len)
            .finish()
    }
}

impl MappedFile {
    /// Map the whole of `file` read-only.
    #[cfg(target_os = "linux")]
    pub fn map(file: &File) -> Result<MappedFile, MapError> {
        use std::os::unix::io::AsRawFd;
        let len64 = file
            .metadata()
            .map_err(|e| MapError::Syscall(e.raw_os_error().unwrap_or(0)))?
            .len();
        // A file larger than the address space (32-bit targets) cannot be
        // mapped whole; fall back to the copying load's own error handling
        // rather than mapping a silently truncated prefix.
        let Ok(len) = usize::try_from(len64) else {
            return Err(MapError::Unsupported);
        };
        if len == 0 {
            return Ok(MappedFile {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we hold
        // open; the kernel chooses the address. The result is checked for
        // MAP_FAILED before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            // SAFETY: reading the thread-local errno after a failed syscall.
            let errno = unsafe { *sys::__errno_location() };
            return Err(MapError::Syscall(errno));
        }
        Ok(MappedFile {
            ptr: ptr.cast_const().cast::<u8>(),
            len,
        })
    }

    /// Map the whole of `file` read-only (unsupported on this platform).
    #[cfg(not(target_os = "linux"))]
    pub fn map(_file: &File) -> Result<MappedFile, MapError> {
        Err(MapError::Unsupported)
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes for the life of `self`
        // (empty mappings use a dangling-but-well-aligned pointer with
        // len 0, which `from_raw_parts` permits).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if self.len > 0 {
            // SAFETY: unmapping exactly the range mmap returned, once.
            unsafe {
                sys::munmap(self.ptr.cast_mut().cast(), self.len);
            }
        }
    }
}

/// A `u32` view over an aligned byte range of a [`MappedFile`] — the
/// [`CodeBacking`] the zero-copy load hands to
/// [`at_searchspace::ArenaStorage::Shared`]. Keeps the mapping alive via
/// `Arc`, so views into the same file (arena + index slots) share one
/// mapping.
#[derive(Debug, Clone)]
pub struct MappedCodes {
    map: Arc<MappedFile>,
    /// Byte offset of the view (4-byte aligned, checked at construction).
    offset: usize,
    /// Number of `u32` codes in the view.
    num_codes: usize,
}

impl MappedCodes {
    /// A view of `len_bytes` bytes at `offset`. Fails unless the range is
    /// in bounds, 4-byte aligned and a whole number of `u32`s.
    pub fn new(map: Arc<MappedFile>, offset: usize, len_bytes: usize) -> Result<Self, MapError> {
        let bad = MapError::BadRange {
            offset,
            len: len_bytes,
        };
        if !offset.is_multiple_of(4) || !len_bytes.is_multiple_of(4) {
            return Err(bad);
        }
        let end = offset.checked_add(len_bytes).ok_or(bad.clone())?;
        if end > map.len() {
            return Err(bad);
        }
        Ok(MappedCodes {
            map,
            offset,
            num_codes: len_bytes / 4,
        })
    }
}

impl CodeBacking for MappedCodes {
    fn codes(&self) -> &[u32] {
        if self.num_codes == 0 {
            return &[];
        }
        // SAFETY: construction checked that the byte range is in bounds and
        // 4-byte aligned; `mmap` memory is page-aligned so `base + offset`
        // is u32-aligned; the mapping outlives `self` via the Arc; every
        // bit pattern is a valid u32. This assumes a little-endian target —
        // the zero-copy path is only taken on LE (see `format.rs`), BE
        // targets always copy-and-convert.
        unsafe {
            let base = self.map.bytes().as_ptr().add(self.offset);
            std::slice::from_raw_parts(base.cast::<u32>(), self.num_codes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("at-store-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("f{}.bin", bytes.len()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn maps_a_file_and_reads_codes() {
        let codes: Vec<u32> = (0..1000).collect();
        let bytes: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
        let path = temp_file(&bytes);
        let map = Arc::new(MappedFile::map(&File::open(&path).unwrap()).unwrap());
        assert_eq!(map.bytes(), &bytes[..]);
        let view = MappedCodes::new(Arc::clone(&map), 0, bytes.len()).unwrap();
        assert_eq!(view.codes(), &codes[..]);
        let tail = MappedCodes::new(Arc::clone(&map), 4, 8).unwrap();
        assert_eq!(tail.codes(), &[1, 2]);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rejects_misaligned_and_out_of_range_views() {
        let path = temp_file(&[0u8; 64]);
        let map = Arc::new(MappedFile::map(&File::open(&path).unwrap()).unwrap());
        assert!(MappedCodes::new(Arc::clone(&map), 2, 8).is_err());
        assert!(MappedCodes::new(Arc::clone(&map), 0, 6).is_err());
        assert!(MappedCodes::new(Arc::clone(&map), 60, 8).is_err());
        assert!(MappedCodes::new(Arc::clone(&map), 64, 0).is_ok());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn empty_files_map_to_empty_slices() {
        let path = temp_file(&[]);
        let map = Arc::new(MappedFile::map(&File::open(&path).unwrap()).unwrap());
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
        let view = MappedCodes::new(map, 0, 0).unwrap();
        assert_eq!(view.codes(), &[] as &[u32]);
    }
}
