//! The commands the benchmark sends, the checks on their outputs, and the
//! space-server child process.
//!
//! Every command goes through `at_cli::run` with the argument vector a
//! user would type after `atss`: the whole command path minus `exec`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use at_daemon::DaemonClient;
use at_searchspace::SearchSpace;
use at_tuner::{strategy_by_name, tune_with_backend, EvalBackend, EvalOptions, ModelBackend};
use serde_json::Value as JsonValue;

/// The virtual tuning budget of one `tune` session, as `--budget-ms` takes it.
pub const TUNE_BUDGET_MS: &str = "60000";
/// The tuning strategy of the tune-session workload.
pub const TUNE_STRATEGY: &str = "genetic";

/// Run one `atss` command in-process.
pub fn atss(args: &[&str]) -> Result<String, String> {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    at_cli::run(&owned).map_err(|e| e.to_string())
}

/// Which `construct` a command is, and so which `cache_source` it must
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construct {
    /// A cache miss into a fresh cache directory: `miss`.
    Cold,
    /// Resolved through the space-server: `daemon-*`. A local fallback
    /// (`cold`) is a failure, never a fast success.
    Daemon,
    /// A zero-copy load from a warm local cache: `hit-zero-copy`.
    Mmap,
}

impl Construct {
    /// The `construct` argument vector for `workload`.
    pub fn args<'a>(self, workload: &'a str, target: &'a str) -> Vec<&'a str> {
        let mut args = vec!["construct", "--workload", workload];
        match self {
            Construct::Cold => args.extend(["--cache-dir", target]),
            Construct::Daemon => args.extend(["--daemon", target]),
            Construct::Mmap => args.extend(["--cache-dir", target, "--mmap"]),
        }
        args.push("--json");
        args
    }

    /// Label used in spans and provenance.
    pub fn label(self) -> &'static str {
        match self {
            Construct::Cold => "cold-construct",
            Construct::Daemon => "daemon-construct",
            Construct::Mmap => "mmap-construct",
        }
    }
}

/// The last line of a command's output as JSON.
fn last_json(out: &str) -> Result<JsonValue, String> {
    let line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    serde_json::from_str(line).map_err(|e| format!("output is not JSON ({e}): {line}"))
}

/// Check a `construct --json` output: the schema, the number of valid
/// configurations against a reference, and the cache source its kind
/// requires.
pub fn check_construct(out: &str, kind: Construct, expected_valid: u64) -> Result<(), String> {
    let doc = last_json(out)?;
    let schema = doc.get("schema").and_then(|s| s.as_str());
    if schema != Some("atss.construct.v1") {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let valid = doc.get("valid").and_then(|v| v.as_i64());
    if valid != Some(expected_valid as i64) {
        return Err(format!(
            "valid = {valid:?}, reference says {expected_valid}"
        ));
    }
    let source = doc
        .get("cache_source")
        .and_then(|s| s.as_str())
        .ok_or("no cache_source")?;
    let ok = match kind {
        Construct::Cold => source == "miss",
        Construct::Daemon => source.starts_with("daemon-"),
        Construct::Mmap => source == "hit-zero-copy",
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} reported cache_source `{source}`", kind.label()))
    }
}

/// The result fields of one tuning session that must match a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// Id of the best configuration found.
    pub best_config_id: u64,
    /// Distinct configurations measured.
    pub evaluations: u64,
    /// Best simulated runtime.
    pub best_runtime_ms: f64,
}

/// The `tune` argument vector of one session.
pub fn tune_args<'a>(workload: &'a str, seed: &'a str, cache_dir: &'a str) -> Vec<&'a str> {
    vec![
        "tune",
        "--workload",
        workload,
        "--strategy",
        TUNE_STRATEGY,
        "--budget-ms",
        TUNE_BUDGET_MS,
        "--seed",
        seed,
        "--construction-ms",
        "0",
        "--cache-dir",
        cache_dir,
        "--mmap",
        "--json",
    ]
}

/// Parse a `tune --json` output; the cache source must be a zero-copy hit.
pub fn parse_tune(out: &str) -> Result<TuneOutcome, String> {
    let doc = last_json(out)?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("atss.tune.v1") {
        return Err("unexpected tune schema".to_string());
    }
    let source = doc.get("cache_source").and_then(|s| s.as_str());
    if source != Some("hit-zero-copy") {
        return Err(format!("tune reported cache_source {source:?}"));
    }
    let int = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_i64())
            .map(|v| v as u64)
            .ok_or_else(|| format!("tune output has no integer `{key}`"))
    };
    Ok(TuneOutcome {
        best_config_id: int("best_config_id")?,
        evaluations: int("evaluations")?,
        best_runtime_ms: doc
            .get("best_runtime_ms")
            .and_then(|v| v.as_f64())
            .ok_or("tune output has no best_runtime_ms")?,
    })
}

/// Run the session the CLI runs, in-process, against `backend`.
pub fn tune_in_process(
    space: &SearchSpace,
    backend: &dyn EvalBackend,
    seed: u64,
) -> Result<at_tuner::TuningRun, String> {
    let strategy = strategy_by_name(TUNE_STRATEGY).ok_or("unknown tuning strategy")?;
    Ok(tune_with_backend(
        space,
        backend,
        strategy.as_ref(),
        Duration::from_millis(TUNE_BUDGET_MS.parse().expect("a number")),
        Duration::ZERO,
        seed,
        EvalOptions::with_threads(1),
    ))
}

/// The reference outcome of a session: the same strategy, model and seed
/// driven in-process through `tune_with_backend`.
pub fn reference_tune(space: &SearchSpace, seed: u64) -> Result<TuneOutcome, String> {
    let model = at_workloads::performance_model_for(space.name(), space, seed);
    let run = tune_in_process(space, &ModelBackend::new(&model), seed)?;
    outcome_of(&run)
}

/// The comparable fields of a finished run.
pub fn outcome_of(run: &at_tuner::TuningRun) -> Result<TuneOutcome, String> {
    let best = run
        .best_evaluation()
        .ok_or("the session measured nothing")?;
    Ok(TuneOutcome {
        best_config_id: best.config_index.index() as u64,
        evaluations: run.num_evaluations() as u64,
        best_runtime_ms: best.runtime_ms,
    })
}

/// A space-server running as a child process (`atss daemon run`, served
/// by this binary's hidden `serve-daemon` mode). Dropping it asks the
/// daemon to drain and exit, and waits until it has.
pub struct DaemonChild {
    child: Child,
    /// The daemon's socket.
    pub socket: PathBuf,
}

impl DaemonChild {
    /// Spawn a daemon serving `cache_dir` on `socket` and wait until it
    /// answers a ping.
    pub fn spawn(socket: &Path, cache_dir: &Path) -> Result<DaemonChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("serve-daemon")
            .arg(socket)
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let daemon = DaemonChild {
            child,
            socket: socket.to_path_buf(),
        };
        DaemonClient::connect_with_retry(socket, Duration::from_secs(10))
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("daemon did not come up: {e}"))?;
        Ok(daemon)
    }

    /// The socket as a command-line argument.
    pub fn socket_arg(&self) -> &str {
        self.socket.to_str().expect("socket paths are ASCII")
    }

    /// The daemon's `atss.daemon-status.v1` envelope.
    pub fn status(&self) -> Result<JsonValue, String> {
        let json = DaemonClient::connect(&self.socket)
            .and_then(|mut c| c.status_json())
            .map_err(|e| format!("daemon status: {e}"))?;
        serde_json::from_str(&json).map_err(|e| format!("daemon status is not JSON: {e}"))
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        if let Ok(mut client) = DaemonClient::connect(&self.socket) {
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break,
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The hidden `serve-daemon <socket> <cache-dir>` mode: host the daemon in
/// the foreground exactly as `atss daemon run` does.
pub fn serve_daemon(socket: &str, cache_dir: &str) -> Result<String, String> {
    atss(&[
        "daemon",
        "run",
        "--socket",
        socket,
        "--cache-dir",
        cache_dir,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(format!(".perfbench-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn reference_valid() -> u64 {
        let spec = at_workloads::real_world_by_name("dedispersion")
            .unwrap()
            .spec;
        let (space, _) =
            at_searchspace::build_search_space(&spec, at_searchspace::Method::ChainOfTrees)
                .unwrap();
        space.len() as u64
    }

    #[test]
    fn a_correct_cold_construct_passes_and_a_wrong_valid_count_fails() {
        let dir = temp_dir("cold");
        let cache = dir.join("cache");
        let cache = cache.to_str().unwrap();
        let valid = reference_valid();
        let out = atss(&Construct::Cold.args("dedispersion", cache)).unwrap();
        assert_eq!(check_construct(&out, Construct::Cold, valid), Ok(()));
        let wrong = check_construct(&out, Construct::Cold, valid + 1);
        assert!(wrong.unwrap_err().contains("valid"));
        // The same cache again is a hit, not the miss a cold op must be.
        let out = atss(&Construct::Cold.args("dedispersion", cache)).unwrap();
        assert!(check_construct(&out, Construct::Cold, valid).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stopped_daemon_forces_a_local_fallback_that_counts_as_failed() {
        let dir = temp_dir("daemon");
        let socket = dir.join("d.sock");
        let daemon = at_daemon::Daemon::bind(at_daemon::DaemonConfig::new(
            &socket,
            dir.join("daemon-cache"),
        ))
        .unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());
        let valid = reference_valid();
        let sock = socket.to_str().unwrap();
        let out = atss(&Construct::Daemon.args("dedispersion", sock)).unwrap();
        assert_eq!(check_construct(&out, Construct::Daemon, valid), Ok(()));

        DaemonClient::connect(&socket).unwrap().shutdown().unwrap();
        server.join().unwrap();
        // The command still succeeds (it falls back to a local build) but
        // reports `cold`, which the check refuses.
        let out = atss(&Construct::Daemon.args("dedispersion", sock)).unwrap();
        let err = check_construct(&out, Construct::Daemon, valid).unwrap_err();
        assert!(err.contains("`cold`"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tune_session_matches_its_in_process_reference() {
        let dir = temp_dir("tune");
        let cache = dir.join("cache");
        let cache = cache.to_str().unwrap();
        atss(&Construct::Cold.args("dedispersion", cache)).unwrap();
        let out = atss(&tune_args("dedispersion", "7", cache)).unwrap();
        let got = parse_tune(&out).unwrap();
        let spec = at_workloads::real_world_by_name("dedispersion")
            .unwrap()
            .spec;
        let (space, _) =
            at_searchspace::build_search_space(&spec, at_searchspace::Method::Optimized).unwrap();
        assert_eq!(reference_tune(&space, 7).unwrap(), got);
        assert_ne!(reference_tune(&space, 8).unwrap(), got);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
