//! The span/event recorder: a process-wide, mutex-striped buffer of
//! timestamped records.
//!
//! Design notes: records are pushed into one of 16
//! mutex-protected vectors selected by the recording thread's ordinal,
//! so concurrent solver chunks and eval workers almost never contend on
//! the same lock. Thread ordinals are small dense integers (0, 1, 2,
//! ...) assigned lazily on a thread's first record — they become the
//! `tid` tracks of the exported Chrome trace.
//!
//! All timestamps are nanoseconds since a process-wide epoch
//! ([`std::time::Instant`] captured on first use), so `ts` values from
//! different threads are directly comparable and monotone per thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of mutex stripes the record buffer is sharded over: enough
/// that per-thread pushes rarely collide, small enough that draining
/// stays trivial.
const STRIPE_COUNT: usize = 16;

/// Maximum number of `u64` key/value args carried inline by one record.
/// Four covers every instrumentation site in the pipeline; extra args
/// are silently dropped rather than allocating.
pub const MAX_ARGS: usize = 4;

/// Whether the recorder is currently capturing. Off by default; the
/// single relaxed load of this flag is the entire disabled-path cost.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide epoch all timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Dense thread ordinals, assigned on a thread's first record.
static NEXT_ORDINAL: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This thread's ordinal, or `u32::MAX` if not yet assigned.
    static ORDINAL: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// The striped record buffers.
static STRIPES: [Mutex<Vec<SpanRecord>>; STRIPE_COUNT] =
    [const { Mutex::new(Vec::new()) }; STRIPE_COUNT];

/// What a record represents in the exported timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration: maps to a Chrome complete (`"ph":"X"`) event.
    Span,
    /// A point in time: maps to a Chrome instant (`"ph":"i"`) event.
    Event,
}

/// One recorded span or event.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Static site name (e.g. `"solve"`, `"store-write"`).
    pub name: &'static str,
    /// Static category, grouping sites by pipeline stage (e.g.
    /// `"construct"`, `"store"`, `"tune"`).
    pub cat: &'static str,
    /// Ordinal of the recording thread (the trace `tid`).
    pub thread: u32,
    /// Start, in nanoseconds since the process epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for events).
    pub dur_ns: u64,
    /// Span vs instant event.
    pub kind: SpanKind,
    /// Inline `u64` key/value args; only the first `num_args` are set.
    pub args: [(&'static str, u64); MAX_ARGS],
    /// How many entries of `args` are populated.
    pub num_args: usize,
}

impl SpanRecord {
    /// The populated args as a slice.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.num_args]
    }

    /// Look up one arg by key.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args().iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Is the recorder currently capturing?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start capturing. Also pins the process epoch so the first span does
/// not pay the `OnceLock` initialization inside a timed region.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop capturing. Already-buffered records are kept until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Nanoseconds since the process epoch.
#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's dense ordinal, assigning one on first use.
fn thread_ordinal() -> u32 {
    ORDINAL.with(|cell| {
        let mut ord = cell.get();
        if ord == u32::MAX {
            ord = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
            cell.set(ord);
        }
        ord
    })
}

/// Push one finished record into this thread's stripe.
fn push(record: SpanRecord) {
    let stripe = record.thread as usize % STRIPE_COUNT;
    // A poisoned stripe means a panic mid-push elsewhere; observability
    // must never turn that into a second panic, so take the data anyway.
    let mut buf = match STRIPES[stripe].lock() {
        Ok(buf) => buf,
        Err(poisoned) => poisoned.into_inner(),
    };
    buf.push(record);
}

/// An in-flight span. Records itself on drop; every method is a no-op
/// when the guard was created while the recorder was disabled.
///
/// Create one with [`span`]; attach args with [`SpanGuard::arg`]:
///
/// ```
/// let _span = at_obs::span("solve", "construct").arg("nodes", 17);
/// ```
#[must_use = "a span records the duration until it is dropped"]
pub struct SpanGuard {
    /// `None` when the recorder was disabled at creation — the entire
    /// guard is then inert (no clock read, no buffer touch).
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    args: [(&'static str, u64); MAX_ARGS],
    num_args: usize,
}

impl SpanGuard {
    /// Attach a `u64` arg (builder-style). At most [`MAX_ARGS`] args
    /// are kept; extras are dropped. No-op when disabled.
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if let Some(live) = self.live.as_mut() {
            if live.num_args < MAX_ARGS {
                live.args[live.num_args] = (key, value);
                live.num_args += 1;
            }
        }
        self
    }

    /// Attach an arg computed only when the recorder is enabled (for
    /// values that are not free to compute, e.g. a length).
    pub fn arg_with(mut self, key: &'static str, value: impl FnOnce() -> u64) -> Self {
        if let Some(live) = self.live.as_mut() {
            if live.num_args < MAX_ARGS {
                live.args[live.num_args] = (key, value());
                live.num_args += 1;
            }
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let end = now_ns();
            push(SpanRecord {
                name: live.name,
                cat: live.cat,
                thread: thread_ordinal(),
                start_ns: live.start_ns,
                dur_ns: end.saturating_sub(live.start_ns),
                kind: SpanKind::Span,
                args: live.args,
                num_args: live.num_args,
            });
        }
    }
}

/// Open a span. The returned guard records {name, cat, start, duration,
/// args} into the buffer when dropped. When the recorder is disabled
/// this is one relaxed atomic load and an inert guard.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    SpanGuard {
        live: Some(LiveSpan {
            name,
            cat,
            start_ns: now_ns(),
            args: [("", 0); MAX_ARGS],
            num_args: 0,
        }),
    }
}

/// Record an instant event (a point in time, e.g. a cache hit). When
/// the recorder is disabled this is one relaxed atomic load.
#[inline]
pub fn event(name: &'static str, cat: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    let mut inline = [("", 0u64); MAX_ARGS];
    let num_args = args.len().min(MAX_ARGS);
    inline[..num_args].copy_from_slice(&args[..num_args]);
    push(SpanRecord {
        name,
        cat,
        thread: thread_ordinal(),
        start_ns: now_ns(),
        dur_ns: 0,
        kind: SpanKind::Event,
        args: inline,
        num_args,
    });
}

/// Take every buffered record, sorted by start time (ties broken by
/// thread ordinal). The buffers are left empty; recording may continue.
pub fn drain() -> Vec<SpanRecord> {
    let mut all = Vec::new();
    for stripe in &STRIPES {
        let mut buf = match stripe.lock() {
            Ok(buf) => buf,
            Err(poisoned) => poisoned.into_inner(),
        };
        all.append(&mut buf);
    }
    all.sort_by_key(|r| (r.start_ns, r.thread));
    all
}

/// Aggregated wall-clock per (category, name) site — the phase timers
/// of the `atss.metrics.v1` envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    /// The site's category.
    pub cat: &'static str,
    /// The site's name.
    pub name: &'static str,
    /// Number of spans/events recorded at the site.
    pub count: u64,
    /// Summed span duration in nanoseconds (0 for pure event sites).
    pub total_ns: u64,
    /// Longest single span at the site, in nanoseconds.
    pub max_ns: u64,
}

/// Aggregate drained records into per-site totals, ordered by first
/// appearance in the record stream (i.e. pipeline order when the input
/// came from [`drain`]).
pub fn phase_totals(records: &[SpanRecord]) -> Vec<PhaseTotal> {
    let mut totals: Vec<PhaseTotal> = Vec::new();
    for r in records {
        match totals
            .iter_mut()
            .find(|t| t.cat == r.cat && t.name == r.name)
        {
            Some(t) => {
                t.count += 1;
                t.total_ns += r.dur_ns;
                t.max_ns = t.max_ns.max(r.dur_ns);
            }
            None => totals.push(PhaseTotal {
                cat: r.cat,
                name: r.name,
                count: 1,
                total_ns: r.dur_ns,
                max_ns: r.dur_ns,
            }),
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that enable it must not
    /// interleave, so they all run under this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        let guard = match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        disable();
        drain();
        guard
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _x = exclusive();
        {
            let _span = span("noop", "test").arg("k", 1);
        }
        event("noop-event", "test", &[]);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_record_name_cat_args_and_duration() {
        let _x = exclusive();
        enable();
        {
            let _span = span("work", "test").arg("rows", 10).arg("bytes", 40);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        event("tick", "test", &[("n", 7)]);
        disable();
        let records = drain();
        assert_eq!(records.len(), 2);
        let s = records.iter().find(|r| r.name == "work").unwrap();
        assert_eq!(s.cat, "test");
        assert_eq!(s.kind, SpanKind::Span);
        assert_eq!(s.arg("rows"), Some(10));
        assert_eq!(s.arg("bytes"), Some(40));
        assert!(s.dur_ns >= 1_000_000, "slept 1ms inside the span");
        let e = records.iter().find(|r| r.name == "tick").unwrap();
        assert_eq!(e.kind, SpanKind::Event);
        assert_eq!(e.dur_ns, 0);
        assert_eq!(e.arg("n"), Some(7));
    }

    #[test]
    fn args_past_the_inline_capacity_are_dropped() {
        let _x = exclusive();
        enable();
        {
            let _span = span("many", "test")
                .arg("a", 1)
                .arg("b", 2)
                .arg("c", 3)
                .arg("d", 4)
                .arg("e", 5);
        }
        disable();
        let records = drain();
        assert_eq!(records[0].num_args, MAX_ARGS);
        assert_eq!(records[0].arg("e"), None);
    }

    #[test]
    fn drain_sorts_across_threads_and_empties_buffers() {
        let _x = exclusive();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let _span = span("chunk", "test");
                    }
                });
            }
        });
        disable();
        let records = drain();
        assert_eq!(records.len(), 32);
        assert!(records.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(drain().is_empty());
    }

    #[test]
    fn phase_totals_aggregate_per_site() {
        let _x = exclusive();
        enable();
        for _ in 0..3 {
            let _span = span("solve", "construct");
        }
        {
            let _span = span("encode", "construct");
        }
        disable();
        let totals = phase_totals(&drain());
        assert_eq!(totals.len(), 2);
        let solve = totals.iter().find(|t| t.name == "solve").unwrap();
        assert_eq!(solve.count, 3);
        assert!(solve.max_ns <= solve.total_ns);
    }

    #[test]
    fn arg_with_is_lazy_when_disabled() {
        let _x = exclusive();
        let _span = span("lazy", "test").arg_with("expensive", || panic!("must not run"));
    }
}
