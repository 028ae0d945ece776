//! The end-to-end pass: set-up, then a closed loop of whole `atss`
//! commands for the run's seconds, with the recorder off.

use std::path::{Path, PathBuf};
use std::time::Instant;

use at_searchspace::{build_search_space, Method, RestrictionLowering, SearchSpaceSpec};
use at_store::{LoadOptions, SpaceStore, SpecFingerprint};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::ops::{
    atss, check_construct, parse_tune, reference_tune, tune_args, Construct, DaemonChild,
    TuneOutcome,
};

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;
/// Client threads of the warm-serve workload (the container's cores).
pub const WARM_CLIENTS: usize = 2;
/// Tune sessions per run (the first ones) that an untraced run checks
/// against an in-process reference after the loop. A session is
/// deterministic for its seed, so a few checks cover the CLI path; the
/// traced pass checks every replayed seed instead.
const TUNE_CHECKED: usize = 2;
/// Single-client rounds after the warm-serve loop that measure heap use.
const WARM_HEAP_ROUNDS: usize = 8;
/// Upper end of the seed-drawn pause between a warm-serve client's rounds,
/// in microseconds. Back-to-back rounds last about two periods of the
/// daemon's 25 ms accept poll, so without a pause each client locks onto
/// one phase of that poll and a run's median depends on the phase it
/// happened to lock at. A pause drawn from one whole period breaks the lock.
const WARM_PAUSE_US: u64 = 25_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-miss `construct` of microhh (14 % of its Cartesian product is
    /// valid): per-row work is a large share.
    ColdDense,
    /// Cache-miss `construct` of prl-8x8 (0.01 % valid): search dominates.
    ColdSparse,
    /// Two clients resolving microhh through the daemon and a warm mmap
    /// cache: no solving at all.
    WarmServe,
    /// A genetic-algorithm `tune` session on a warm microhh space.
    TuneSession,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ColdDense,
        Workload::ColdSparse,
        Workload::WarmServe,
        Workload::TuneSession,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDense => "cold-dense",
            Workload::ColdSparse => "cold-sparse",
            Workload::WarmServe => "warm-serve",
            Workload::TuneSession => "tune-session",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` the commands pass to `atss`.
    pub fn space(self) -> &'static str {
        match self {
            Workload::ColdSparse => "prl-8x8",
            _ => "microhh",
        }
    }

    /// The specification behind [`Workload::space`].
    pub fn spec(self) -> SearchSpaceSpec {
        at_workloads::real_world_by_name(self.space())
            .expect("built-in workload")
            .spec
    }
}

/// What the end-to-end pass measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each operation, in milliseconds. An operation is one
    /// command, except on warm-serve, where it is one client round: a
    /// `--daemon` construct and a `--mmap` construct back to back.
    pub op_ms: Vec<f64>,
    /// Latency of each warm-serve command by kind, in milliseconds.
    pub daemon_ms: Vec<f64>,
    /// See [`E2e::daemon_ms`].
    pub mmap_ms: Vec<f64>,
    /// Peak transient heap of each measured operation, in bytes.
    pub heap_bytes: Vec<f64>,
    /// Commands completed inside the timed loop.
    pub commands: u64,
    /// Wall time of the timed loop, in seconds.
    pub wall_s: f64,
    /// Commands whose outputs were checked (timed or not).
    pub attempted: u64,
    /// Why each failed command failed.
    pub failures: Vec<String>,
    /// The session outcome of each tune seed, as the CLI reported it.
    pub tunes: Vec<(u64, TuneOutcome)>,
    /// Valid configurations of the space, from a chain-of-trees build.
    pub reference_valid: u64,
}

impl E2e {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// What one set-up leaves for the timed loop.
struct Ready {
    reference_valid: u64,
    daemon: Option<DaemonChild>,
    warm_cache: PathBuf,
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("work paths are ASCII")
}

/// Run `construct` of `kind` and check its output.
fn construct(workload: Workload, kind: Construct, target: &str, valid: u64) -> Result<(), String> {
    let out = atss(&kind.args(workload.space(), target))?;
    check_construct(&out, kind, valid)
}

/// One set-up: the chain-of-trees reference build, and for the warm
/// workloads the daemon spawn and the cache warm-up.
fn setup(workload: Workload, dir: &Path) -> Result<Ready, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (space, _) = build_search_space(&workload.spec(), Method::ChainOfTrees)
        .map_err(|e| format!("reference build: {e}"))?;
    let valid = space.len() as u64;
    drop(space);
    let warm_cache = dir.join("warm");
    let daemon = match workload {
        Workload::ColdDense | Workload::ColdSparse => {
            // One untimed construct, so the timed loop starts warm.
            construct(workload, Construct::Cold, path_arg(&warm_cache), valid)?;
            None
        }
        Workload::WarmServe | Workload::TuneSession => {
            construct(workload, Construct::Cold, path_arg(&warm_cache), valid)?;
            construct(workload, Construct::Mmap, path_arg(&warm_cache), valid)?;
            if workload == Workload::WarmServe {
                let daemon = DaemonChild::spawn(&dir.join("d.sock"), &dir.join("daemon"))?;
                construct(workload, Construct::Daemon, daemon.socket_arg(), valid)?;
                Some(daemon)
            } else {
                None
            }
        }
    };
    Ok(Ready {
        reference_valid: valid,
        daemon,
        warm_cache,
    })
}

/// Peak heap of `f` above the live heap when it started.
fn with_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = at_obs::alloc::reset_peak();
    let out = f();
    (out, at_obs::alloc::peak_since(base))
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Run set-up [`SETUP_REPS`] times, then the timed loop for `seconds`.
/// With `trace`, the traced pass checks the tune sessions that follow.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        // The previous repetition's daemon stops here, outside the timing.
        drop(ready.take());
        let start = Instant::now();
        let r = setup(workload, &work.join(format!("setup-{rep}")))?;
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    e2e.reference_valid = ready.reference_valid;
    match workload {
        Workload::ColdDense | Workload::ColdSparse => cold_loop(workload, seconds, work, &mut e2e),
        Workload::WarmServe => warm_loop(workload, seed, seconds, &ready, &mut e2e),
        Workload::TuneSession => tune_loop(workload, seed, seconds, &ready, trace, &mut e2e)?,
    }
    Ok(e2e)
}

/// One client, one cache-miss `construct` after another, each into a
/// fresh empty cache directory.
fn cold_loop(workload: Workload, seconds: f64, work: &Path, e2e: &mut E2e) {
    let valid = e2e.reference_valid;
    let loop_start = Instant::now();
    let mut i = 0u64;
    while loop_start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("cold-{i}"));
        let start = Instant::now();
        let (result, heap) =
            with_heap(|| atss(&Construct::Cold.args(workload.space(), path_arg(&dir))));
        let ms = ms_since(start);
        e2e.record(result.and_then(|out| check_construct(&out, Construct::Cold, valid)));
        e2e.op_ms.push(ms);
        e2e.heap_bytes.push(heap as f64);
        e2e.commands += 1;
        let _ = std::fs::remove_dir_all(&dir);
        i += 1;
    }
    e2e.wall_s = loop_start.elapsed().as_secs_f64();
}

/// One warm command of a round: its kind, latency in ms, and check.
pub type Timed = (Construct, f64, Result<(), String>);

/// One warm-serve client round: both kinds of warm construct, in an order
/// drawn from `rng`. Returns each command's latency and check.
fn warm_round(
    workload: Workload,
    rng: &mut ChaCha8Rng,
    socket: &str,
    cache: &str,
    valid: u64,
) -> [Timed; 2] {
    let order = if rng.gen::<bool>() {
        [Construct::Daemon, Construct::Mmap]
    } else {
        [Construct::Mmap, Construct::Daemon]
    };
    order.map(|kind| {
        let target = if kind == Construct::Daemon {
            socket
        } else {
            cache
        };
        let start = Instant::now();
        let out = atss(&kind.args(workload.space(), target));
        let ms = ms_since(start);
        (kind, ms, out.and_then(|o| check_construct(&o, kind, valid)))
    })
}

/// One warm-serve client: rounds in a seed-drawn order, each followed by a
/// seed-drawn pause, for as long as `keep_going` says.
pub fn warm_client(
    workload: Workload,
    seed: u64,
    socket: &str,
    cache: &str,
    valid: u64,
    keep_going: impl Fn() -> bool,
) -> Vec<[Timed; 2]> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rounds = Vec::new();
    while keep_going() {
        rounds.push(warm_round(workload, &mut rng, socket, cache, valid));
        let pause = rng.gen_range(0..WARM_PAUSE_US);
        std::thread::sleep(std::time::Duration::from_micros(pause));
    }
    rounds
}

/// [`WARM_CLIENTS`] closed-loop clients, then a single-client heap probe.
fn warm_loop(workload: Workload, seed: u64, seconds: f64, ready: &Ready, e2e: &mut E2e) {
    let socket = ready
        .daemon
        .as_ref()
        .expect("warm-serve has a daemon")
        .socket_arg();
    let cache = path_arg(&ready.warm_cache);
    let valid = ready.reference_valid;
    let loop_start = Instant::now();
    let per_client: Vec<Vec<[Timed; 2]>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WARM_CLIENTS as u64)
            .map(|client| {
                s.spawn(move || {
                    warm_client(
                        workload,
                        seed ^ (client << 32),
                        socket,
                        cache,
                        valid,
                        || loop_start.elapsed().as_secs_f64() < seconds,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    e2e.wall_s = loop_start.elapsed().as_secs_f64();
    for round in per_client.into_iter().flatten() {
        let mut total = 0.0;
        for (kind, ms, result) in round {
            total += ms;
            e2e.commands += 1;
            match kind {
                Construct::Daemon => e2e.daemon_ms.push(ms),
                _ => e2e.mmap_ms.push(ms),
            }
            e2e.record(result);
        }
        e2e.op_ms.push(total);
    }
    // Heap use of a round, measured alone so the other client's
    // allocations do not count.
    let mut rng = ChaCha8Rng::seed_from_u64(seed.rotate_left(17));
    for _ in 0..WARM_HEAP_ROUNDS {
        let (round, heap) = with_heap(|| warm_round(workload, &mut rng, socket, cache, valid));
        e2e.heap_bytes.push(heap as f64);
        for (_, _, result) in round {
            e2e.record(result);
        }
    }
}

/// The cache entry a warm `--cache-dir` load reads.
pub fn cache_entry(cache_dir: &Path, spec: &SearchSpaceSpec) -> Result<PathBuf, String> {
    let store = SpaceStore::new(cache_dir).map_err(|e| e.to_string())?;
    let fp = SpecFingerprint::compute(spec, RestrictionLowering::Optimized)
        .map_err(|e| e.to_string())?;
    Ok(store.path_for(&fp))
}

/// One client, one `tune` session after another with seeds `seed`,
/// `seed + 1`, ...; every output is parsed and recorded, and without
/// `trace` the first [`TUNE_CHECKED`] are checked against the in-process
/// reference for their seed after the loop.
fn tune_loop(
    workload: Workload,
    seed: u64,
    seconds: f64,
    ready: &Ready,
    trace: bool,
    e2e: &mut E2e,
) -> Result<(), String> {
    let cache = path_arg(&ready.warm_cache);
    let loop_start = Instant::now();
    let mut outputs = Vec::new();
    let mut i = 0u64;
    while loop_start.elapsed().as_secs_f64() < seconds {
        let session_seed = seed.wrapping_add(i);
        let seed_arg = session_seed.to_string();
        let start = Instant::now();
        let (out, heap) = with_heap(|| atss(&tune_args(workload.space(), &seed_arg, cache)));
        e2e.op_ms.push(ms_since(start));
        e2e.heap_bytes.push(heap as f64);
        e2e.commands += 1;
        outputs.push((session_seed, out));
        i += 1;
    }
    e2e.wall_s = loop_start.elapsed().as_secs_f64();

    let space = if trace {
        None
    } else {
        let entry = cache_entry(&ready.warm_cache, &workload.spec())?;
        let loaded = at_store::load_space_from_path(&entry, LoadOptions::mmap_trusted())
            .map_err(|e| format!("{}: {e}", entry.display()))?;
        Some(loaded.space)
    };
    for (n, (session_seed, out)) in outputs.into_iter().enumerate() {
        let result = out.and_then(|o| parse_tune(&o)).and_then(|got| {
            let want = match &space {
                Some(space) if n < TUNE_CHECKED => reference_tune(space, session_seed)?,
                _ => return Ok(got),
            };
            if got == want {
                Ok(got)
            } else {
                Err(format!(
                    "tune seed {session_seed}: CLI {got:?}, in-process reference {want:?}"
                ))
            }
        });
        if let Ok(got) = &result {
            e2e.tunes.push((session_seed, *got));
        }
        e2e.record(result.map(|_| ()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_against_a_stopped_daemon_is_counted_as_failed() {
        let dir = PathBuf::from(format!(".perfbench-test-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("d.sock");
        let cache = dir.join("warm");
        let workload = Workload::WarmServe;
        let valid = build_search_space(&workload.spec(), Method::ChainOfTrees)
            .unwrap()
            .0
            .len() as u64;
        construct(workload, Construct::Cold, path_arg(&cache), valid).unwrap();

        // A daemon that has been stopped: the socket file is gone and the
        // `--daemon` command falls back to building locally.
        let daemon =
            at_daemon::Daemon::bind(at_daemon::DaemonConfig::new(&socket, dir.join("daemon")))
                .unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());
        at_daemon::DaemonClient::connect(&socket)
            .unwrap()
            .shutdown()
            .unwrap();
        server.join().unwrap();

        let mut e2e = E2e::default();
        let round = warm_round(
            workload,
            &mut ChaCha8Rng::seed_from_u64(1),
            path_arg(&socket),
            path_arg(&cache),
            valid,
        );
        for (_, _, result) in round {
            e2e.record(result);
        }
        assert_eq!(e2e.attempted, 2);
        assert_eq!(e2e.failures.len(), 1, "{:?}", e2e.failures);
        assert!(e2e.failures[0].contains("daemon-construct"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
