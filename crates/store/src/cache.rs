//! The content-addressed construction cache: solve once, serve forever.
//!
//! A [`SpaceStore`] is a directory of `ATSS` files keyed by
//! [`SpecFingerprint`]: `<dir>/<32-hex>.atss`. [`SpaceStore::entry_for`]
//! is the one place that turns a spec into its key and path. The contract
//! of [`SpaceStore::get_or_build`]:
//!
//! * **hit** — the file exists, passes validation per the caller's
//!   [`LoadOptions`] (the default verified copy checks magic, version,
//!   every checksum and that the ranks strictly ascend below the Cartesian
//!   size; the trusted zero-copy mmap trades the rank checksum and that
//!   pass for O(header) serving) and becomes a `SearchSpace` with zero
//!   re-solving; its mtime is touched so LRU eviction sees the use.
//! * **miss** — the space is constructed with the requested method by
//!   [`build_search_space_with`], then written once by
//!   [`write_space`](crate::write_space) to a temporary file, which is
//!   atomically renamed into place only after the trailer is written.
//!   Concurrent builders of the same spec race benignly: each writes its
//!   own temp file and the last rename wins with identical content — every
//!   method yields the same ranks.
//! * **stale or corrupt** — any content error (flipped byte, truncation,
//!   unreadable format version, crashed half-write, ranks out of order) is
//!   treated as a miss: the entry is rebuilt and overwritten (counted in
//!   the `rebuilds` metric). A corrupt cache can never serve a corrupt
//!   space through the verified copy; a zero-copy hit never rewrites the
//!   entry it trusted.
//! * **uncacheable** — specifications with closure restrictions have no
//!   canonical content (see [`crate::fingerprint`]); they are built
//!   normally and never persisted.
//!
//! [`SpaceStore::gc_with`] bounds the directory by total bytes and entry
//! count: entries are evicted least-recently-used first (by mtime) until
//! both bounds hold — except entries currently **pinned** by a
//! [`PinGuard`] ([`SpaceStore::pin`]), which a sweep reports and skips: a
//! long-lived server hands out paths into the cache directory, and an
//! entry must not be deleted while a client it was promised to may still
//! be attaching. [`SpaceStore::metrics`] exposes process-lifetime
//! hit/miss/rebuild counters, warm-load latency, the live pin count and
//! the pin-skips GC has performed.

use std::collections::HashMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use at_obs::json::Json;
use at_searchspace::{
    build_search_space_with, BuildOptions, BuildReport, Method, RestrictionLowering, SearchSpace,
    SearchSpaceSpec,
};

use crate::error::StoreError;
use crate::fingerprint::SpecFingerprint;
use crate::format::{
    peek_info, read_space_from_path, write_space_to_path, LoadOptions, LoadReport, StoreInfo,
    StoreReader, StoreSummary,
};

/// How `get_or_build` satisfied a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from a validated cache file; no solving happened.
    Hit,
    /// Constructed, then persisted.
    Miss,
    /// Constructed but not persisted: the spec cannot be content-addressed
    /// (the string explains why).
    Uncacheable(String),
}

impl CacheStatus {
    /// True for [`CacheStatus::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheStatus::Hit)
    }

    /// A short label: `hit`, `miss` or `uncacheable`.
    pub fn label(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Uncacheable(_) => "uncacheable",
        }
    }
}

/// Everything `get_or_build` knows about how it served a space.
#[derive(Debug, Clone)]
pub struct StoreOutcome {
    /// Hit, miss, or uncacheable.
    pub status: CacheStatus,
    /// The cache key (absent for uncacheable specs).
    pub fingerprint: Option<SpecFingerprint>,
    /// The on-disk entry (absent for uncacheable specs).
    pub path: Option<PathBuf>,
    /// Size of the on-disk entry in bytes (0 for uncacheable specs).
    pub file_bytes: u64,
    /// Wall-clock time of the load (hit) or construction (miss).
    pub duration: Duration,
    /// The construction report — present exactly when solving happened
    /// (miss / uncacheable); a hit performs no solving.
    pub report: Option<BuildReport>,
    /// How a hit was loaded (zero-copy or copied); `None` when the space
    /// was constructed.
    pub load: Option<LoadReport>,
}

/// Process-lifetime observability counters of one [`SpaceStore`] (shared
/// across clones of the store). All counters are monotonic; read them at
/// any time from any thread.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    hits: AtomicU64,
    misses: AtomicU64,
    uncacheable: AtomicU64,
    /// Misses caused by an existing entry failing validation (a rebuild
    /// repaired it), as opposed to a cold first build.
    rebuilds: AtomicU64,
    /// Entries evicted by [`SpaceStore::gc`] sweeps.
    gc_evictions: AtomicU64,
    /// Pinned entries a gc sweep wanted to evict but skipped.
    gc_pin_skips: AtomicU64,
    /// Total wall-clock nanoseconds spent in warm loads (hits).
    load_nanos: AtomicU64,
    /// Live pins: fingerprint → outstanding [`PinGuard`] count. Lives on
    /// the metrics block because that is the one structure every clone of
    /// a store already shares.
    pins: Mutex<HashMap<SpecFingerprint, usize>>,
}

impl StoreMetrics {
    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (constructions), including rebuilds of damaged entries.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Builds of specs that cannot be content-addressed.
    pub fn uncacheable(&self) -> u64 {
        self.uncacheable.load(Ordering::Relaxed)
    }

    /// Misses that repaired an existing damaged/stale entry.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Entries evicted by gc sweeps over this store's lifetime.
    pub fn gc_evictions(&self) -> u64 {
        self.gc_evictions.load(Ordering::Relaxed)
    }

    /// Pinned entries gc sweeps wanted to evict but skipped.
    pub fn gc_pin_skips(&self) -> u64 {
        self.gc_pin_skips.load(Ordering::Relaxed)
    }

    /// Entries currently pinned (distinct fingerprints with at least one
    /// live [`PinGuard`]).
    pub fn pinned_now(&self) -> u64 {
        self.pins.lock().expect("pin table poisoned").len() as u64
    }

    /// Mean wall-clock time of a warm load, if any happened.
    pub fn mean_load_time(&self) -> Option<Duration> {
        let hits = self.hits();
        (hits > 0).then(|| Duration::from_nanos(self.load_nanos.load(Ordering::Relaxed) / hits))
    }

    /// The counters as one JSON object: the `store` section of the
    /// `atss.metrics.v1` envelope and of the daemon status.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("hits", self.hits())
            .with("misses", self.misses())
            .with("rebuilds", self.rebuilds())
            .with("uncacheable", self.uncacheable())
            .with("gc_evictions", self.gc_evictions())
            .with("gc_pin_skips", self.gc_pin_skips())
            .with("pinned", self.pinned_now())
            .with(
                "mean_load_us",
                self.mean_load_time().map(|d| d.as_secs_f64() * 1_000_000.0),
            )
    }

    /// One human-readable line, e.g. for `construct --format summary`.
    pub fn summary_line(&self) -> String {
        let latency = match self.mean_load_time() {
            Some(mean) => format!(", mean warm load {mean:.3?}"),
            None => String::new(),
        };
        let pins = match self.pinned_now() {
            0 => String::new(),
            n => format!(", {n} pinned"),
        };
        format!(
            "{} hits / {} misses ({} rebuilds) / {} uncacheable, \
             {} gc evictions{pins}{latency}",
            self.hits(),
            self.misses(),
            self.rebuilds(),
            self.uncacheable(),
            self.gc_evictions(),
        )
    }
}

/// An RAII pin on one cache entry: while any guard for a fingerprint is
/// alive, [`SpaceStore::gc_with`] sweeps of any clone of the issuing store
/// report and skip that entry instead of evicting it. Dropping the last
/// guard unpins. Pins are per-process bookkeeping (they live in the shared
/// [`StoreMetrics`] block, not on disk): a *different* process gc'ing the
/// same directory does not see them, which is exactly the daemon contract —
/// one resident process owns both the pins and the sweeps.
#[derive(Debug)]
pub struct PinGuard {
    metrics: Arc<StoreMetrics>,
    fingerprint: SpecFingerprint,
}

impl PinGuard {
    /// The pinned entry's fingerprint.
    pub fn fingerprint(&self) -> SpecFingerprint {
        self.fingerprint
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        let mut pins = self.metrics.pins.lock().expect("pin table poisoned");
        if let Some(count) = pins.get_mut(&self.fingerprint) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.fingerprint);
            }
        }
    }
}

/// One entry in a cache directory listing.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// The fingerprint parsed back from the file name.
    pub fingerprint: SpecFingerprint,
    /// Full path of the `.atss` file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-used time (mtime; touched on every cache hit).
    pub modified: SystemTime,
    /// Header metadata, if the header is readable (`None` for a file too
    /// damaged to peek into — `verify`/`gc` still handle it).
    pub info: Option<StoreInfo>,
}

/// Where a spec's entry lives: its cache key, its path, and whether a file
/// is there ([`SpaceStore::entry_for`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryKey {
    /// The cache key.
    pub fingerprint: SpecFingerprint,
    /// The on-disk path of the entry.
    pub path: PathBuf,
    /// Whether a file existed at `path` when the key was made. It may be
    /// stale: a hit still validates the file, and a miss rebuilds it.
    pub exists: bool,
}

/// Bounds enforced by one [`SpaceStore::gc_with`] sweep. Both bounds
/// default to unlimited; eviction is LRU-first until both hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOptions {
    /// Maximum total entry bytes to keep.
    pub max_bytes: u64,
    /// Maximum number of entries to keep.
    pub max_entries: usize,
}

impl Default for GcOptions {
    fn default() -> Self {
        GcOptions {
            max_bytes: u64::MAX,
            max_entries: usize::MAX,
        }
    }
}

/// Result of one [`SpaceStore::gc`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Entries left in the cache.
    pub kept: usize,
    /// Entries evicted (least-recently-used first).
    pub evicted: usize,
    /// Pinned entries the sweep wanted to evict but skipped (they are
    /// counted in `kept` and still occupy `bytes_after`).
    pub pinned_skipped: usize,
    /// Total entry bytes before the sweep.
    pub bytes_before: u64,
    /// Total entry bytes after the sweep.
    pub bytes_after: u64,
}

/// A directory of content-addressed `ATSS` files. See the [module
/// documentation](self) for the caching contract.
///
/// Clones share the observability counters ([`SpaceStore::metrics`]), so a
/// store handed to worker threads still aggregates into one view.
#[derive(Debug, Clone)]
pub struct SpaceStore {
    dir: PathBuf,
    metrics: Arc<StoreMetrics>,
}

impl SpaceStore {
    /// Open (creating if necessary) a cache directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<SpaceStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        Ok(SpaceStore {
            dir,
            metrics: Arc::new(StoreMetrics::default()),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's process-lifetime observability counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The on-disk path an entry with this fingerprint lives at.
    pub fn path_for(&self, fingerprint: &SpecFingerprint) -> PathBuf {
        self.dir.join(format!("{}.atss", fingerprint.to_hex()))
    }

    /// The entry for `spec` under `lowering` (the restriction lowering a
    /// method builds with: `BuildOptions::lowering`, or
    /// `Method::default_lowering`). A spec with closure restrictions has
    /// no entry: [`StoreError::Unfingerprintable`].
    pub fn entry_for(
        &self,
        spec: &SearchSpaceSpec,
        lowering: RestrictionLowering,
    ) -> Result<EntryKey, StoreError> {
        let fingerprint = SpecFingerprint::compute(spec, lowering)?;
        let path = self.path_for(&fingerprint);
        let exists = path.exists();
        Ok(EntryKey {
            fingerprint,
            path,
            exists,
        })
    }

    /// Pin an entry against gc eviction for the lifetime of the returned
    /// guard. Pins nest (same fingerprint may be pinned by several guards)
    /// and are shared across clones of this store; see [`PinGuard`].
    pub fn pin(&self, fingerprint: &SpecFingerprint) -> PinGuard {
        let mut pins = self.metrics.pins.lock().expect("pin table poisoned");
        *pins.entry(*fingerprint).or_insert(0) += 1;
        PinGuard {
            metrics: Arc::clone(&self.metrics),
            fingerprint: *fingerprint,
        }
    }

    /// Whether the entry currently has at least one live [`PinGuard`].
    pub fn is_pinned(&self, fingerprint: &SpecFingerprint) -> bool {
        self.metrics
            .pins
            .lock()
            .expect("pin table poisoned")
            .contains_key(fingerprint)
    }

    /// Distinct fingerprints currently pinned.
    pub fn pinned_count(&self) -> usize {
        self.metrics.pins.lock().expect("pin table poisoned").len()
    }

    /// Construct or load the space for `spec` with default build options.
    pub fn get_or_build(
        &self,
        spec: &SearchSpaceSpec,
        method: Method,
    ) -> Result<(SearchSpace, StoreOutcome), StoreError> {
        self.get_or_build_with(spec, method, BuildOptions::default())
    }

    /// Construct or load the space for `spec`, with explicit build options
    /// and the default [`LoadOptions`] (the verified copy).
    ///
    /// The cache key covers the spec content and the *effective* restriction
    /// lowering (explicit in `options`, or the method's default), so the
    /// optimized and baseline lowerings never share an entry.
    pub fn get_or_build_with(
        &self,
        spec: &SearchSpaceSpec,
        method: Method,
        options: BuildOptions,
    ) -> Result<(SearchSpace, StoreOutcome), StoreError> {
        self.get_or_build_with_options(spec, method, options, LoadOptions::default())
    }

    /// Construct or load the space for `spec`, with explicit build *and*
    /// load options — the full-control entry point: `load` picks the warm
    /// path (the verified copy or the trusted zero-copy mmap; see
    /// [`LoadOptions`]).
    pub fn get_or_build_with_options(
        &self,
        spec: &SearchSpaceSpec,
        method: Method,
        options: BuildOptions,
        load: LoadOptions,
    ) -> Result<(SearchSpace, StoreOutcome), StoreError> {
        let lowering = options
            .lowering
            .unwrap_or_else(|| method.default_lowering());
        // `Err(reason)`: the spec cannot be content-addressed, so it is
        // built but never persisted.
        let key = match self.entry_for(spec, lowering) {
            Ok(key) => Ok(key),
            Err(StoreError::Unfingerprintable(reason)) => Err(reason),
            Err(e) => return Err(e),
        };

        // Warm path: serve the validated entry, or fall through to rebuild
        // on *any* content problem.
        if let Some(key) = key.as_ref().ok().filter(|key| key.exists) {
            let start = Instant::now();
            match StoreReader::open(&key.path).and_then(|r| r.load(load)) {
                Ok(loaded) => {
                    let duration = start.elapsed();
                    touch(&key.path);
                    self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .load_nanos
                        .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
                    at_obs::event(
                        "cache-hit",
                        "store",
                        &[
                            ("load_us", duration.as_micros() as u64),
                            ("zero_copy", u64::from(loaded.report.is_zero_copy())),
                        ],
                    );
                    return Ok((
                        loaded.space,
                        StoreOutcome {
                            status: CacheStatus::Hit,
                            fingerprint: Some(key.fingerprint),
                            path: Some(key.path.clone()),
                            file_bytes: loaded.info.file_bytes,
                            duration,
                            report: None,
                            load: Some(loaded.report),
                        },
                    ));
                }
                Err(e) if e.is_content_error() => {
                    // Stale entry: rebuild below.
                    self.metrics.rebuilds.fetch_add(1, Ordering::Relaxed);
                    at_obs::event("cache-rebuild", "store", &[]);
                }
                Err(e) => return Err(e),
            }
        }

        // Cold path: build, then persist a cacheable spec. On a miss the
        // duration and the report cover build plus persist.
        let start = Instant::now();
        let (space, mut report) = build_search_space_with(spec, method, options)
            .map_err(|e| StoreError::Build(e.to_string()))?;
        let (status, fingerprint, path, file_bytes) = match key {
            Err(reason) => {
                self.metrics.uncacheable.fetch_add(1, Ordering::Relaxed);
                at_obs::event("cache-uncacheable", "store", &[]);
                (CacheStatus::Uncacheable(reason), None, None, 0)
            }
            Ok(EntryKey {
                fingerprint, path, ..
            }) => {
                let summary = persist(&space, &path)?;
                report.duration = start.elapsed();
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                at_obs::event(
                    "cache-miss",
                    "store",
                    &[
                        ("build_us", report.duration.as_micros() as u64),
                        ("rows", space.len() as u64),
                    ],
                );
                (
                    CacheStatus::Miss,
                    Some(fingerprint),
                    Some(path),
                    summary.bytes_written,
                )
            }
        };
        Ok((
            space,
            StoreOutcome {
                status,
                fingerprint,
                path,
                file_bytes,
                duration: report.duration,
                report: Some(report),
                load: None,
            },
        ))
    }

    /// List the cache entries, most recently used first.
    pub fn entries(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let mut entries = Vec::new();
        let dir = fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        for item in dir {
            let item = item.map_err(|e| StoreError::io(&self.dir, e))?;
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some("atss") {
                continue;
            }
            let fingerprint = match path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(SpecFingerprint::from_hex)
            {
                Some(fp) => fp,
                None => continue, // foreign file; not ours to manage
            };
            let meta = item.metadata().map_err(|e| StoreError::io(&path, e))?;
            entries.push(StoreEntry {
                fingerprint,
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                info: peek_info(&path).ok(),
                path,
            });
        }
        entries.sort_by_key(|e| std::cmp::Reverse(e.modified));
        Ok(entries)
    }

    /// Fully validate every entry (checksums, structure, code ranges).
    /// Returns `(entry, None)` for sound entries and `(entry, Some(error))`
    /// for damaged ones. Damaged entries are left in place — `get_or_build`
    /// rebuilds them on next use, or [`SpaceStore::gc`] evicts them.
    pub fn verify(&self) -> Result<Vec<(StoreEntry, Option<StoreError>)>, StoreError> {
        Ok(self
            .entries()?
            .into_iter()
            .map(|entry| {
                let result = read_space_from_path(&entry.path).err();
                (entry, result)
            })
            .collect())
    }

    /// Evict least-recently-used entries until the cache holds at most
    /// `max_bytes` of entries ([`SpaceStore::gc_with`] with only the byte
    /// bound set).
    pub fn gc(&self, max_bytes: u64) -> Result<GcReport, StoreError> {
        self.gc_with(GcOptions {
            max_bytes,
            ..GcOptions::default()
        })
    }

    /// Evict least-recently-used entries until both bounds of `options`
    /// hold (total bytes *and* entry count). Leftover temp files from
    /// crashed builds are removed once they are demonstrably abandoned
    /// (untouched for an hour) — a temp file younger than that may be a
    /// build in progress in another process, which must be left to finish
    /// its atomic rename.
    pub fn gc_with(&self, options: GcOptions) -> Result<GcReport, StoreError> {
        const ABANDONED_TMP_AGE: Duration = Duration::from_secs(3600);
        let span = at_obs::span("cache-gc", "store");
        let dir = fs::read_dir(&self.dir).map_err(|e| StoreError::io(&self.dir, e))?;
        for item in dir.flatten() {
            let name = item.file_name();
            if !name.to_str().is_some_and(|n| n.contains(".tmp-")) {
                continue;
            }
            let abandoned = item
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                .is_some_and(|age| age >= ABANDONED_TMP_AGE);
            if abandoned {
                let _ = fs::remove_file(item.path());
            }
        }

        let mut entries = self.entries()?;
        // Oldest last → evict from the back. A pinned entry in eviction
        // position is set aside (it still counts toward the bounds, so the
        // sweep keeps trying younger candidates) and reported as skipped.
        let bytes_before: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut bytes_after = bytes_before;
        let mut evicted = 0usize;
        let mut pinned_kept: Vec<StoreEntry> = Vec::new();
        while bytes_after > options.max_bytes
            || entries.len() + pinned_kept.len() > options.max_entries
        {
            let Some(oldest) = entries.pop() else { break };
            if self.is_pinned(&oldest.fingerprint) {
                pinned_kept.push(oldest);
                continue;
            }
            fs::remove_file(&oldest.path).map_err(|e| StoreError::io(&oldest.path, e))?;
            bytes_after -= oldest.bytes;
            evicted += 1;
        }
        let kept = entries.len() + pinned_kept.len();
        let pinned_skipped = pinned_kept.len();
        self.metrics
            .gc_evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
        self.metrics
            .gc_pin_skips
            .fetch_add(pinned_skipped as u64, Ordering::Relaxed);
        drop(
            span.arg("evicted", evicted as u64)
                .arg("kept", kept as u64)
                .arg("pinned_skipped", pinned_skipped as u64)
                .arg("bytes_after", bytes_after),
        );
        Ok(GcReport {
            kept,
            evicted,
            pinned_skipped,
            bytes_before,
            bytes_after,
        })
    }
}

/// Persist `space` at `path` atomically: [`write_space_to_path`] into a
/// temp file beside it, then rename it over the entry. The temp name
/// carries pid + a process-wide counter, so concurrent writers of the same
/// entry — other processes *or* other threads sharing a store — each write
/// their own file; the last rename wins with identical content. A failed
/// write removes its temp file.
fn persist(space: &SearchSpace, path: &Path) -> Result<StoreSummary, StoreError> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let span = at_obs::span("store-write", "store").arg("rows", space.len() as u64);
    let tmp = path.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let result = write_space_to_path(space, &tmp).and_then(|summary| {
        fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))?;
        Ok(summary)
    });
    match &result {
        Ok(summary) => drop(span.arg("bytes", summary.bytes_written)),
        Err(_) => {
            let _ = fs::remove_file(&tmp);
        }
    }
    result
}

/// Best-effort LRU bookkeeping: bump the entry's mtime to now.
fn touch(path: &Path) {
    if let Ok(file) = File::options().write(true).open(path) {
        let _ = file.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_searchspace::{Restriction, TunableParameter};

    fn spec(name: &str, max: i64) -> SearchSpaceSpec {
        SearchSpaceSpec::new(name)
            .with_param(TunableParameter::pow2("x", 5))
            .with_param(TunableParameter::pow2("y", 4))
            .with_expr(&format!("x * y <= {max}"))
    }

    fn fresh_store(tag: &str) -> SpaceStore {
        let dir = std::env::temp_dir().join(format!("at-store-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        SpaceStore::new(&dir).unwrap()
    }

    fn spaces_identical(a: &SearchSpace, b: &SearchSpace) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.arena(), b.arena());
        for view in a.iter() {
            assert_eq!(b.index_of(&view.to_vec()), Some(view.id()));
        }
    }

    #[test]
    fn miss_then_hit_serves_the_identical_space() {
        let store = fresh_store("miss-hit");
        let spec = spec("cached", 16);
        let (cold, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(out.status, CacheStatus::Miss);
        assert!(out.report.is_some());
        let path = out.path.clone().unwrap();
        assert!(path.exists());
        assert_eq!(out.file_bytes, fs::metadata(&path).unwrap().len());

        let (warm, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert!(out.status.is_hit());
        assert!(out.report.is_none(), "a hit performs no solving");
        spaces_identical(&cold, &warm);
    }

    #[test]
    fn different_specs_get_different_entries() {
        let store = fresh_store("distinct");
        let (a, out_a) = store
            .get_or_build(&spec("s", 16), Method::Optimized)
            .unwrap();
        let (b, out_b) = store
            .get_or_build(&spec("s", 32), Method::Optimized)
            .unwrap();
        assert_ne!(out_a.fingerprint, out_b.fingerprint);
        assert_ne!(a.len(), b.len());
        assert_eq!(store.entries().unwrap().len(), 2);
    }

    #[test]
    fn corrupt_entries_fall_back_to_rebuild() {
        let store = fresh_store("corrupt");
        let spec = spec("fragile", 16);
        let (cold, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        let path = out.path.unwrap();

        // Flip one rank byte on disk.
        let mut bytes = fs::read(&path).unwrap();
        let ranks = crate::format::parse_structure(bytes.as_slice())
            .unwrap()
            .ranks;
        let mid = ranks.start + ranks.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (rebuilt, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(out.status, CacheStatus::Miss, "corrupt entry must not hit");
        spaces_identical(&cold, &rebuilt);

        // The rebuild overwrote the damaged file: next call hits again.
        let (warm, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert!(out.status.is_hit());
        spaces_identical(&cold, &warm);
    }

    #[test]
    fn truncated_entries_fall_back_to_rebuild() {
        let store = fresh_store("truncated");
        let spec = spec("short", 16);
        let (cold, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        let path = out.path.unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let (rebuilt, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(out.status, CacheStatus::Miss);
        spaces_identical(&cold, &rebuilt);
    }

    #[test]
    fn closure_specs_build_but_never_persist() {
        let store = fresh_store("uncacheable");
        let spec = spec("closed", 16).with_restriction(Restriction::func(&["x"], "x >= 2", |v| {
            v[0].as_i64().unwrap() >= 2
        }));
        let (space, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert!(matches!(out.status, CacheStatus::Uncacheable(_)));
        assert!(out.fingerprint.is_none());
        assert!(!space.is_empty());
        assert!(store.entries().unwrap().is_empty(), "nothing persisted");
    }

    #[test]
    fn lowering_is_part_of_the_key() {
        let store = fresh_store("lowering");
        let spec = spec("low", 16);
        let (_, a) = store.get_or_build(&spec, Method::Optimized).unwrap();
        // Brute force defaults to the generic lowering: distinct entry.
        let (_, b) = store.get_or_build(&spec, Method::BruteForce).unwrap();
        assert_eq!(a.status, CacheStatus::Miss);
        assert_eq!(b.status, CacheStatus::Miss);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let store = fresh_store("gc");
        let specs = [spec("a", 8), spec("b", 16), spec("c", 32)];
        let mut paths = Vec::new();
        for s in &specs {
            let (_, out) = store.get_or_build(s, Method::Optimized).unwrap();
            paths.push(out.path.unwrap());
        }
        // Make the mtimes unambiguous: a is oldest, c newest.
        let base = SystemTime::now() - Duration::from_secs(1000);
        for (i, p) in paths.iter().enumerate() {
            let file = File::options().write(true).open(p).unwrap();
            file.set_times(
                fs::FileTimes::new().set_modified(base + Duration::from_secs(100 * i as u64)),
            )
            .unwrap();
        }
        let total: u64 = paths.iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        let keep_two = total - 1; // forces exactly one eviction
        let report = store.gc(keep_two).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.kept, 2);
        assert!(!paths[0].exists(), "oldest entry evicted");
        assert!(paths[1].exists() && paths[2].exists());
        assert!(report.bytes_after <= keep_two);

        // gc(0) empties the cache.
        let report = store.gc(0).unwrap();
        assert_eq!(report.kept, 0);
        assert_eq!(report.bytes_after, 0);
    }

    #[test]
    fn pinned_entries_survive_gc_and_are_reported() {
        let store = fresh_store("gc-pins");
        let specs = [spec("a", 8), spec("b", 16)];
        let mut outs = Vec::new();
        for s in &specs {
            let (_, out) = store.get_or_build(s, Method::Optimized).unwrap();
            outs.push(out);
        }
        let pinned_fp = outs[0].fingerprint.unwrap();
        let pinned_path = outs[0].path.clone().unwrap();
        let other_path = outs[1].path.clone().unwrap();

        let guard = store.pin(&pinned_fp);
        assert!(store.is_pinned(&pinned_fp));
        assert_eq!(store.pinned_count(), 1);
        assert!(store.metrics().summary_line().contains("1 pinned"));

        // gc(0) wants the cache empty; the pinned entry must survive.
        let report = store.gc(0).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.kept, 1);
        assert_eq!(report.pinned_skipped, 1);
        assert!(pinned_path.exists(), "pinned entry survived the sweep");
        assert!(!other_path.exists(), "unpinned entry evicted");
        assert!(report.bytes_after > 0);
        assert_eq!(store.metrics().gc_pin_skips(), 1);

        // Dropping the last guard unpins; the next sweep evicts.
        drop(guard);
        assert!(!store.is_pinned(&pinned_fp));
        let report = store.gc(0).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.pinned_skipped, 0);
        assert!(!pinned_path.exists());
    }

    #[test]
    fn pins_nest_and_are_shared_across_clones() {
        let store = fresh_store("pin-clones");
        let (_, out) = store
            .get_or_build(&spec("a", 8), Method::Optimized)
            .unwrap();
        let fp = out.fingerprint.unwrap();

        let clone = store.clone();
        let g1 = store.pin(&fp);
        let g2 = clone.pin(&fp);
        assert_eq!(store.pinned_count(), 1, "same fingerprint, one pin slot");
        assert!(clone.is_pinned(&fp));
        drop(g1);
        assert!(store.is_pinned(&fp), "second guard still holds the pin");
        drop(g2);
        assert!(!store.is_pinned(&fp));
        assert_eq!(clone.pinned_count(), 0);
        assert_eq!(store.metrics().pinned_now(), 0);
    }

    #[test]
    fn gc_sweeps_abandoned_temp_files_but_spares_live_ones() {
        let store = fresh_store("tmp-sweep");
        let abandoned = store.dir().join("deadbeef.tmp-12345-0");
        fs::write(&abandoned, b"half a file").unwrap();
        let file = File::options().write(true).open(&abandoned).unwrap();
        file.set_times(
            fs::FileTimes::new().set_modified(SystemTime::now() - Duration::from_secs(7200)),
        )
        .unwrap();
        // A fresh temp file may be another builder mid-write: must survive.
        let live = store.dir().join("cafebabe.tmp-67890-0");
        fs::write(&live, b"being written right now").unwrap();

        store.gc(u64::MAX).unwrap();
        assert!(!abandoned.exists(), "hour-old temp file swept");
        assert!(live.exists(), "fresh temp file left for its builder");
    }

    #[test]
    fn concurrent_builders_of_the_same_spec_do_not_corrupt_each_other() {
        let store = fresh_store("concurrent");
        let spec = spec("raced", 16);
        let (reference, _) = store.get_or_build(&spec, Method::Optimized).unwrap();
        let _ = store.gc(0); // empty the cache again

        let results: Vec<SearchSpace> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = store.clone();
                    let spec = spec.clone();
                    s.spawn(move || store.get_or_build(&spec, Method::Optimized).unwrap().0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for space in &results {
            spaces_identical(&reference, space);
        }
        // Whatever survived on disk is a sound entry serving the same space.
        let (served, outcome) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert!(outcome.status.is_hit());
        spaces_identical(&reference, &served);
    }

    #[test]
    fn verify_reports_damage_per_entry() {
        let store = fresh_store("verify");
        let (_, good) = store
            .get_or_build(&spec("good", 16), Method::Optimized)
            .unwrap();
        let (_, bad) = store
            .get_or_build(&spec("bad", 32), Method::Optimized)
            .unwrap();
        let bad_path = bad.path.unwrap();
        let mut bytes = fs::read(&bad_path).unwrap();
        let len = bytes.len();
        bytes[len - 30] ^= 0x01;
        fs::write(&bad_path, &bytes).unwrap();

        let results = store.verify().unwrap();
        assert_eq!(results.len(), 2);
        for (entry, error) in results {
            if Some(&entry.path) == good.path.as_ref() {
                assert!(error.is_none(), "sound entry flagged: {error:?}");
            } else {
                assert!(error.is_some(), "damaged entry not flagged");
            }
        }
    }

    #[test]
    fn entries_carry_header_metadata() {
        let store = fresh_store("entries");
        store
            .get_or_build(&spec("meta", 16), Method::Optimized)
            .unwrap();
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        let info = entries[0].info.as_ref().unwrap();
        assert_eq!(info.name, "meta");
        assert_eq!(info.num_params, 2);
        assert!(entries[0].bytes > 0);
    }

    #[test]
    fn metrics_count_hits_misses_and_rebuilds() {
        let store = fresh_store("metrics");
        let spec = spec("counted", 16);
        assert_eq!(store.metrics().hits(), 0);
        store.get_or_build(&spec, Method::Optimized).unwrap();
        store.get_or_build(&spec, Method::Optimized).unwrap();
        let clone = store.clone();
        clone.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(store.metrics().misses(), 1);
        assert_eq!(store.metrics().hits(), 2, "clones share the counters");
        assert_eq!(store.metrics().rebuilds(), 0);
        assert!(store.metrics().mean_load_time().is_some());

        // Damage the entry: the next get is a miss counted as a rebuild.
        let path = store
            .entry_for(&spec, Method::Optimized.default_lowering())
            .unwrap()
            .path;
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 4]).unwrap();
        store.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(store.metrics().misses(), 2);
        assert_eq!(store.metrics().rebuilds(), 1);
        let line = store.metrics().summary_line();
        assert!(line.contains("2 hits"), "{line}");
        assert!(line.contains("1 rebuilds"), "{line}");
    }

    #[test]
    fn a_zero_copy_hit_never_rewrites_a_damaged_entry() {
        let store = fresh_store("launder");
        let spec = spec("laundered", 16);
        let (_, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        let path = out.path.unwrap();

        // Swap two adjacent ranks: each rank stays in range, only the
        // order and the rank CRC give the damage away. The zero-copy load
        // trusts the ranks by design, so it still hits — but it must leave
        // the entry as it found it, detectably damaged, rather than stamp
        // a fresh valid CRC over it.
        let mut bytes = fs::read(&path).unwrap();
        let ranks = crate::format::parse_structure(bytes.as_slice())
            .unwrap()
            .ranks;
        let first = ranks.start;
        let first_rank: [u8; 8] = bytes[first..first + 8].try_into().unwrap();
        bytes.copy_within(first + 8..first + 16, first);
        bytes[first + 8..first + 16].copy_from_slice(&first_rank);
        fs::write(&path, &bytes).unwrap();

        let (_, out) = store
            .get_or_build_with_options(
                &spec,
                Method::Optimized,
                BuildOptions::default(),
                LoadOptions::mmap_trusted(),
            )
            .unwrap();
        if cfg!(target_os = "linux") {
            assert!(out.status.is_hit(), "mmap trust semantics");
            assert_eq!(fs::read(&path).unwrap(), bytes, "the entry is untouched");
            assert!(read_space_from_path(&path).is_err());
        }

        // A default (copying, CRC-verified) get now rebuilds and repairs.
        let (_, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        assert_eq!(out.status, CacheStatus::Miss);
        assert!(read_space_from_path(&path).is_ok());
    }

    #[test]
    fn entry_for_names_the_entry_get_or_build_serves() {
        let store = fresh_store("entry-for");
        let spec = spec("keyed", 16);
        let lowering = Method::Optimized.default_lowering();
        let before = store.entry_for(&spec, lowering).unwrap();
        assert!(!before.exists);
        let (_, out) = store.get_or_build(&spec, Method::Optimized).unwrap();
        let after = store.entry_for(&spec, lowering).unwrap();
        assert!(after.exists);
        assert_eq!(Some(after.fingerprint), out.fingerprint);
        assert_eq!(Some(&after.path), out.path.as_ref());
        assert_eq!(
            (before.fingerprint, before.path),
            (after.fingerprint, after.path)
        );
        let closure = spec.with_restriction(Restriction::func(&["x"], "x >= 2", |v| {
            v[0].as_i64().unwrap() >= 2
        }));
        assert!(matches!(
            store.entry_for(&closure, lowering),
            Err(StoreError::Unfingerprintable(_))
        ));
    }

    #[test]
    fn mmap_load_options_serve_zero_copy_hits() {
        let store = fresh_store("mmap-hit");
        let spec = spec("mapped", 16);
        let (cold, _) = store.get_or_build(&spec, Method::Optimized).unwrap();
        let (warm, out) = store
            .get_or_build_with_options(
                &spec,
                Method::Optimized,
                BuildOptions::default(),
                LoadOptions::mmap_trusted(),
            )
            .unwrap();
        assert!(out.status.is_hit());
        let report = out.load.unwrap();
        if cfg!(target_os = "linux") {
            assert!(report.is_zero_copy(), "{report:?}");
            assert!(warm.is_zero_copy());
        }
        spaces_identical(&cold, &warm);
    }

    #[test]
    fn gc_enforces_the_entry_count_bound() {
        let store = fresh_store("gc-entries");
        for (i, s) in [spec("a", 8), spec("b", 16), spec("c", 32)]
            .iter()
            .enumerate()
        {
            let (_, out) = store.get_or_build(s, Method::Optimized).unwrap();
            // Unambiguous LRU order.
            let file = File::options().write(true).open(out.path.unwrap()).unwrap();
            file.set_times(
                fs::FileTimes::new()
                    .set_modified(SystemTime::now() - Duration::from_secs(1000 - 100 * i as u64)),
            )
            .unwrap();
        }
        let report = store
            .gc_with(GcOptions {
                max_entries: 2,
                ..GcOptions::default()
            })
            .unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.kept, 2);
        assert_eq!(store.entries().unwrap().len(), 2);
        // The byte bound still composes with the entry bound.
        let report = store
            .gc_with(GcOptions {
                max_bytes: 0,
                max_entries: 2,
            })
            .unwrap();
        assert_eq!(report.kept, 0);
    }

    #[test]
    fn cached_entry_point_matches_builder() {
        let store = fresh_store("entry-point");
        let spec = spec("entry", 16);
        let (via_cache, _) = store
            .get_or_build_with(&spec, Method::Optimized, BuildOptions::default())
            .unwrap();
        let (via_builder, _) =
            at_searchspace::build_search_space(&spec, Method::Optimized).unwrap();
        spaces_identical(&via_builder, &via_cache);
    }
}
