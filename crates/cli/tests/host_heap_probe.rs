//! A host process that installs the counting allocator and runs several
//! `atss` commands in-process (a benchmark around `at_cli::run`) reads
//! the peak heap of all of them: a `--metrics` command measures its own
//! peak in a nested window, which gives the host's high-water mark back
//! when it closes.

use std::sync::Mutex;

use at_obs::alloc::{peak_since, reset_peak, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocation counters are process-wide; the tests in this binary
/// must not overlap.
static HEAP_LOCK: Mutex<()> = Mutex::new(());

fn atss(args: &[&str]) -> String {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    at_cli::run(&owned).expect("command succeeds")
}

/// Run both commands once, unmeasured: whichever test takes the lock
/// first would otherwise count the process's one-time allocations (lazy
/// statics that stay live) in its first measurement only.
fn warm_up() {
    drop(atss(BIG));
    drop(atss(SMALL));
}

/// Peak heap of `f` above the live heap when it started.
fn peak_of(f: impl FnOnce()) -> usize {
    let base = reset_peak();
    f();
    peak_since(base)
}

const BIG: &[&str] = &["construct", "--workload", "dedispersion", "--json"];
const SMALL: &[&str] = &["check", "--workload", "gemm"];

#[test]
fn commands_without_metrics_leave_the_host_peak_alone() {
    let _guard = HEAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    warm_up();
    assert!(at_obs::alloc::installed());
    let big = peak_of(|| drop(atss(BIG)));
    let small = peak_of(|| drop(atss(SMALL)));
    assert!(big > small, "premise: {big} > {small}");

    // The small command runs last; the pair still reads the big one's peak.
    let pair = peak_of(|| {
        drop(atss(BIG));
        drop(atss(SMALL));
    });
    assert!(pair >= big, "pair {pair} < first command {big}");
}

#[test]
fn a_metrics_command_reports_only_its_own_peak() {
    let _guard = HEAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    warm_up();
    let big = peak_of(|| drop(atss(BIG)));
    // Run after the big command, the small one's envelope leaves its peak out.
    drop(atss(BIG));
    let envelope = atss(&[SMALL, &["--metrics"]].concat());

    let doc: serde_json::Value = serde_json::from_str(envelope.lines().last().unwrap()).unwrap();
    let alloc = doc.get("alloc").unwrap();
    assert_eq!(
        alloc.get("installed").unwrap(),
        &serde_json::Value::Bool(true)
    );
    let own = alloc.get("peak_bytes").unwrap().as_i64().unwrap() as usize;
    assert!(own > 0 && own < big, "own peak {own}, first command {big}");
}

#[test]
fn a_metrics_command_keeps_the_host_peak_of_the_commands_before_it() {
    let _guard = HEAP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    warm_up();
    let big = peak_of(|| drop(atss(BIG)));
    let check_metrics = [SMALL, &["--metrics"]].concat();
    let mut envelope = String::new();
    // A cold construct, then a `--metrics` check: the host reads the
    // construct's peak across both.
    let pair = peak_of(|| {
        drop(atss(BIG));
        envelope = atss(&check_metrics);
    });
    assert!(pair >= big, "pair {pair} < the construct's peak {big}");

    // The envelope still reports only the check's own peak.
    let doc: serde_json::Value = serde_json::from_str(envelope.lines().last().unwrap()).unwrap();
    let alloc = doc.get("alloc").unwrap();
    let own = alloc.get("peak_bytes").unwrap().as_i64().unwrap() as usize;
    assert!(own > 0 && own < big, "own peak {own}, construct {big}");
}
