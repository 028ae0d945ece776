//! When `construct` prints the analyzer's findings: without `--cache-dir`,
//! when no cache entry exists for the spec, and when the daemon runs the
//! solver for the request. A cache hit prints nothing; a miss, a build
//! without a cache and a daemon build print them to stderr before the
//! command's own output, and a failing construction still prints them
//! before its error.
//!
//! Findings go to stderr, so these tests drive the built `atss` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn atss(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atss"))
        .args(args)
        .output()
        .expect("run atss")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).expect("utf-8 stderr")
}

/// A fresh directory for this test and process.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("at-cli-analyzer-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What `atss check --workload gemm` prints: the rendered report, which is
/// what a construction of gemm writes to stderr.
fn gemm_findings() -> String {
    let check = atss(&["check", "--workload", "gemm"]);
    assert!(check.status.success(), "{}", stderr(&check));
    let report = stdout(&check).to_string();
    assert_eq!(report.matches("warning[AT0006]").count(), 2, "{report}");
    report
}

/// The `--json` line of a gemm construct served from a cache, as `source`.
fn gemm_hit_line(source: &str) -> String {
    format!(
        "{{\"schema\":\"atss.construct.v1\",\"space\":\"GEMM\",\"method\":\"optimized\",\
         \"cartesian\":1327104,\"valid\":241600,\"construction_ms\":null,\
         \"constraint_checks\":null,\"arena_bytes\":1932800,\"cache_source\":\"{source}\"}}\n"
    )
}

/// The names of the phases in the `--metrics` envelope of a `--json` line.
fn phase_names(line: &str) -> Vec<String> {
    let doc: serde_json::Value = serde_json::from_str(line.trim_end()).expect("one JSON line");
    doc.get("observability")
        .and_then(|env| env.get("phases"))
        .and_then(|phases| phases.as_array())
        .expect("an envelope with phases")
        .iter()
        .map(|p| p.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn a_miss_prints_the_findings_and_a_hit_prints_nothing() {
    let findings = gemm_findings();
    let dir = temp_dir("cache");
    let cache = dir.to_str().unwrap();
    let construct = |extra: &[&str]| {
        let mut args = vec!["construct", "--workload", "gemm", "--cache-dir", cache];
        args.extend_from_slice(extra);
        let out = atss(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        out
    };

    let miss = construct(&["--json", "--metrics"]);
    assert_eq!(stderr(&miss), findings);
    assert!(stdout(&miss).contains("\"cache_source\":\"miss\""));
    assert!(phase_names(stdout(&miss)).iter().any(|p| p == "check"));

    for (extra, source) in [(&["--mmap"][..], "hit-zero-copy"), (&[][..], "hit")] {
        let hit = construct(&[extra, &["--json"]].concat());
        assert_eq!(stderr(&hit), "", "{source}");
        assert_eq!(stdout(&hit), gemm_hit_line(source));
    }
    let hit = construct(&["--mmap", "--json", "--metrics"]);
    assert_eq!(stderr(&hit), "");
    let phases = phase_names(stdout(&hit));
    assert!(!phases.iter().any(|p| p == "check"), "{phases:?}");
    assert!(phases.iter().any(|p| p == "store-load"), "{phases:?}");

    // Without a cache every construct builds, so every one prints.
    let cold = atss(&["construct", "--workload", "gemm", "--format", "count"]);
    assert!(cold.status.success());
    assert_eq!(stderr(&cold), findings);
    assert_eq!(stdout(&cold), "241600\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_construction_prints_its_findings_first() {
    let dir = temp_dir("typo");
    let spec = dir.join("typo.json");
    std::fs::write(
        &spec,
        r#"{"name": "typo",
            "parameters": [{"name": "block_size_x", "values": [1, 2, 4, 8]},
                           {"name": "block_size_y", "values": [1, 2, 4]}],
            "restrictions": ["block_size_x * blok_size_y <= 16"]}"#,
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    let cache = dir.join("cache");
    let with_cache = ["--cache-dir", cache.to_str().unwrap()];
    for extra in [&[][..], &with_cache[..]] {
        let out = atss(&[&["construct", "--spec", spec][..], extra].concat());
        assert_eq!(out.status.code(), Some(1), "{extra:?}");
        let err = stderr(&out);
        let finding = err.find("error[AT0001]").expect("the AT0001 finding");
        assert!(err.contains("did you mean `block_size_y`?"), "{err}");
        let failure = err.find("construction failed").expect("the error");
        assert!(finding < failure, "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_method_fails_before_the_analyzer_runs() {
    let out = atss(&["construct", "--workload", "gemm", "--method", "nope"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).starts_with("error: unknown method `nope`"));
}

#[cfg(unix)]
#[test]
fn a_daemon_build_prints_the_findings_and_a_warm_serve_prints_nothing() {
    let findings = gemm_findings();
    let dir = temp_dir("daemon");
    let socket = dir.join("atssd.sock");
    let daemon =
        at_daemon::Daemon::bind(at_daemon::DaemonConfig::new(&socket, dir.join("cache"))).unwrap();
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run().unwrap());
    let socket_arg = socket.to_str().unwrap();
    let construct = || {
        let out = atss(&[
            "construct",
            "--workload",
            "gemm",
            "--daemon",
            socket_arg,
            "--json",
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        out
    };

    let cold = construct();
    assert!(stdout(&cold).contains("\"cache_source\":\"daemon-built\""));
    assert_eq!(stderr(&cold), findings);
    let warm = construct();
    assert_eq!(stdout(&warm), gemm_hit_line("daemon-warm"));
    assert_eq!(stderr(&warm), "");

    handle.request_shutdown();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
