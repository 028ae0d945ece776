//! The `atss daemon` / `atss client` subcommands and the `--daemon`
//! resolution path of `construct` and `tune`.
//!
//! `atss daemon run` hosts an [`at_daemon::Daemon`] in the foreground
//! (the `atssd` deployment unit); `atss daemon status|stop|ping` control
//! a running one over its socket. `atss client resolve` is the minimal
//! consumer: ship a spec, wait through any build, mmap-attach to the
//! validated entry. `construct --daemon <socket>` and
//! `tune --daemon <socket>` route their space acquisition through the
//! same path, falling back to local construction when the daemon is
//! unreachable — a tuner never fails just because the server is down.
//!
//! Everything here requires Unix domain sockets; on other platforms the
//! subcommands exist but report that the daemon is unsupported.

#[cfg(unix)]
pub use imp::{client, daemon, try_daemon_obtain, DaemonServed};

#[cfg(not(unix))]
pub use stub::{client, daemon, try_daemon_obtain, DaemonServed};

#[cfg(unix)]
mod imp {
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    use at_daemon::{
        Daemon, DaemonClient, DaemonConfig, DaemonError, Resolved, ServeKind, PROTOCOL_VERSION,
    };
    use at_searchspace::{Method, SearchSpace, SearchSpaceSpec};
    use at_store::{GcOptions, LoadReport};

    use crate::args::ParsedArgs;
    use crate::commands::{resolve_method, resolve_spec};
    use crate::obs::ObsSession;
    use crate::CliError;

    /// How `obtain_space` got its space when `--daemon` won: the daemon's
    /// reply plus the client-side attach report and timings (what the
    /// summary and JSON outputs surface).
    pub struct DaemonServed {
        /// The socket the space came from.
        pub socket: String,
        /// The daemon's `Ready` reply.
        pub resolved: Resolved,
        /// The client-side attach (always zero-copy mmap, index trusted).
        pub report: LoadReport,
        /// Wall-clock of connect + resolve (includes any build wait).
        pub resolve_time: Duration,
        /// Wall-clock of the mmap attach.
        pub attach_time: Duration,
    }

    impl DaemonServed {
        /// The `cache_source` label for the JSON envelopes:
        /// `daemon-warm`, `daemon-validated`, `daemon-built`,
        /// `daemon-coalesced`.
        pub fn source_label(&self) -> &'static str {
            match self.resolved.served {
                ServeKind::Warm => "daemon-warm",
                ServeKind::Validated => "daemon-validated",
                ServeKind::Built => "daemon-built",
                ServeKind::Coalesced => "daemon-coalesced",
            }
        }

        /// Render the `daemon:` lines of the human summary format.
        pub fn summary_lines(&self, out: &mut String) {
            writeln!(
                out,
                "daemon:               {} (resolved in {:.3?} via {})",
                self.resolved.served.label(),
                self.resolve_time,
                self.socket
            )
            .expect("write to string");
            writeln!(
                out,
                "daemon attach:        {} in {:.3?}",
                self.report.describe(),
                self.attach_time
            )
            .expect("write to string");
            writeln!(
                out,
                "daemon fingerprint:   {}",
                self.resolved.fingerprint.to_hex()
            )
            .expect("write to string");
            writeln!(
                out,
                "daemon file:          {} ({} bytes on disk)",
                self.resolved.path.display(),
                self.resolved.file_bytes
            )
            .expect("write to string");
        }
    }

    /// Resolve a space through the daemon at `socket`: connect, ship the
    /// spec, wait through any build, mmap-attach to the validated entry.
    /// Any failure (daemon down, protocol error, unshippable spec) is
    /// returned for the caller to fall back on local construction.
    pub fn try_daemon_obtain(
        socket: &str,
        spec: &SearchSpaceSpec,
        method: Method,
        prune: bool,
    ) -> Result<(SearchSpace, DaemonServed), DaemonError> {
        let span = at_obs::span("daemon-resolve", "daemon");
        let resolve_start = Instant::now();
        let mut client = DaemonClient::connect(socket)?;
        let resolved = client.resolve_spec(spec, method, prune, |_| {})?;
        let resolve_time = resolve_start.elapsed();
        let attach_start = Instant::now();
        let loaded = resolved.attach().map_err(DaemonError::Store)?;
        let attach_time = attach_start.elapsed();
        drop(
            span.arg("rows", resolved.rows)
                .arg("served", resolved.served as u64),
        );
        Ok((
            loaded.space,
            DaemonServed {
                socket: socket.to_string(),
                resolved,
                report: loaded.report,
                resolve_time,
                attach_time,
            },
        ))
    }

    /// `atss daemon <run|status|stop|ping>`
    pub fn daemon(args: &ParsedArgs) -> Result<String, CliError> {
        let action = args.positional.first().map(|s| s.as_str()).ok_or_else(|| {
            CliError::Run(
                "usage: atss daemon <run|status|stop|ping> --socket <path> [flags]".to_string(),
            )
        })?;
        match action {
            "run" => daemon_run(args),
            "status" => {
                args.ensure_known_flags(&["socket"])?;
                let mut client = connect(args)?;
                let json = client.status_json().map_err(run_err)?;
                Ok(format!("{json}\n"))
            }
            "stop" => {
                args.ensure_known_flags(&["socket"])?;
                let socket = args.require("socket")?;
                let mut client = connect(args)?;
                client.shutdown().map_err(run_err)?;
                Ok(format!("daemon at {socket} is draining and will exit\n"))
            }
            "ping" => {
                args.ensure_known_flags(&["socket"])?;
                let mut client = connect(args)?;
                let pong = client.ping().map_err(run_err)?;
                Ok(format!(
                    "pong: pid {}, up {} ms (ATSD protocol v{PROTOCOL_VERSION})\n",
                    pong.pid, pong.uptime_ms
                ))
            }
            other => Err(CliError::Run(format!(
                "unknown daemon action `{other}` (run, status, stop, ping)"
            ))),
        }
    }

    /// `atss daemon run`: host the space-server in the foreground until
    /// SIGTERM/SIGINT or a client `Shutdown`, then report the session.
    fn daemon_run(args: &ParsedArgs) -> Result<String, CliError> {
        args.ensure_known_flags(&[
            "socket",
            "cache-dir",
            "pidfile",
            "max-bytes",
            "max-entries",
            "trace",
            "metrics",
        ])?;
        let obs = ObsSession::begin(args);
        let socket = args.require("socket")?;
        let cache_dir = args.require("cache-dir")?;
        let mut config = DaemonConfig::new(socket, cache_dir);
        if let Some(pidfile) = args.get("pidfile") {
            config.pidfile = Some(pidfile.into());
        }
        // GC bounds are optional: passing either turns on a sweep after
        // every build (pinned entries are skipped — a client still
        // holding a reply never loses its file).
        if args.get("max-bytes").is_some() || args.get("max-entries").is_some() {
            let max_bytes: u64 = args.number("max-bytes", u64::MAX).map_err(CliError::Args)?;
            let max_entries: usize = args
                .number("max-entries", usize::MAX)
                .map_err(CliError::Args)?;
            config.gc = Some(GcOptions {
                max_bytes,
                max_entries,
            });
        }
        let daemon = Daemon::bind(config).map_err(run_err)?;
        let handle = daemon.handle();
        let summary = daemon.run().map_err(run_err)?;
        let envelope = obs.finish(
            "daemon run",
            vec![("store", handle.store().metrics().to_json())],
        )?;
        let mut out = String::new();
        writeln!(
            out,
            "daemon exited after {:.3?}: {} connections, {} requests, {} builds, \
             {} warm serves, {} coalesced, {} protocol errors",
            summary.uptime,
            summary.connections,
            summary.requests,
            summary.builds,
            summary.served_warm,
            summary.coalesced,
            summary.proto_errors
        )
        .expect("write to string");
        writeln!(
            out,
            "cache stats: {}",
            handle.store().metrics().summary_line()
        )
        .expect("write to string");
        Ok(crate::commands::append_metrics(out, envelope))
    }

    /// `atss client <resolve|ping>`
    pub fn client(args: &ParsedArgs) -> Result<String, CliError> {
        let action = args.positional.first().map(|s| s.as_str()).ok_or_else(|| {
            CliError::Run("usage: atss client <resolve|ping> --socket <path> [flags]".to_string())
        })?;
        match action {
            "resolve" => client_resolve(args),
            "ping" => {
                args.ensure_known_flags(&["socket"])?;
                let mut client = connect(args)?;
                let pong = client.ping().map_err(run_err)?;
                Ok(format!(
                    "pong: pid {}, up {} ms (ATSD protocol v{PROTOCOL_VERSION})\n",
                    pong.pid, pong.uptime_ms
                ))
            }
            other => Err(CliError::Run(format!(
                "unknown client action `{other}` (resolve, ping)"
            ))),
        }
    }

    /// `atss client resolve`: get-or-build through the daemon, then
    /// mmap-attach and report what happened.
    fn client_resolve(args: &ParsedArgs) -> Result<String, CliError> {
        args.ensure_known_flags(&["socket", "workload", "spec", "method", "prune"])?;
        let socket = args.require("socket")?;
        let spec = resolve_spec(args)?;
        let method = resolve_method(args)?;
        let (space, served) =
            try_daemon_obtain(socket, &spec, method, args.switch("prune")).map_err(run_err)?;
        let mut out = String::new();
        writeln!(out, "space:                {}", spec.name).expect("write to string");
        writeln!(out, "method:               {}", method.label()).expect("write to string");
        writeln!(out, "valid configurations: {}", space.len()).expect("write to string");
        served.summary_lines(&mut out);
        Ok(out)
    }

    fn connect(args: &ParsedArgs) -> Result<DaemonClient, CliError> {
        let socket = args.require("socket")?;
        DaemonClient::connect(socket)
            .map_err(|e| CliError::Run(format!("cannot reach daemon at `{socket}`: {e}")))
    }

    fn run_err(e: DaemonError) -> CliError {
        CliError::Run(e.to_string())
    }
}

#[cfg(not(unix))]
mod stub {
    use at_daemon::DaemonError;
    use at_searchspace::{Method, SearchSpace, SearchSpaceSpec};

    use crate::args::ParsedArgs;
    use crate::CliError;

    /// Placeholder on platforms without Unix domain sockets.
    pub struct DaemonServed {
        /// Never populated; present so callers type-check on every platform.
        pub resolve_time: std::time::Duration,
        /// Never populated; present so callers type-check on every platform.
        pub attach_time: std::time::Duration,
    }

    impl DaemonServed {
        /// See the Unix implementation.
        pub fn source_label(&self) -> &'static str {
            "daemon-unsupported"
        }

        /// See the Unix implementation.
        pub fn summary_lines(&self, _out: &mut String) {}
    }

    /// The daemon requires Unix domain sockets.
    pub fn try_daemon_obtain(
        _socket: &str,
        _spec: &SearchSpaceSpec,
        _method: Method,
        _prune: bool,
    ) -> Result<(SearchSpace, DaemonServed), DaemonError> {
        Err(DaemonError::Unshippable(
            "the space-server daemon requires Unix domain sockets".to_string(),
        ))
    }

    /// The daemon requires Unix domain sockets.
    pub fn daemon(_args: &ParsedArgs) -> Result<String, CliError> {
        Err(CliError::Run(
            "the space-server daemon requires Unix domain sockets".to_string(),
        ))
    }

    /// The daemon requires Unix domain sockets.
    pub fn client(_args: &ParsedArgs) -> Result<String, CliError> {
        Err(CliError::Run(
            "the space-server daemon requires Unix domain sockets".to_string(),
        ))
    }
}

#[cfg(all(test, unix))]
mod tests {
    use crate::run;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn temp_base(tag: &str) -> std::path::PathBuf {
        let base = std::env::temp_dir().join(format!("at-cli-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        base
    }

    #[test]
    fn daemon_serves_construct_and_client_then_stops() {
        let base = temp_base("roundtrip");
        let socket = base.join("atssd.sock");
        let cache = base.join("cache");
        let daemon =
            at_daemon::Daemon::bind(at_daemon::DaemonConfig::new(&socket, &cache)).unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());
        let sock = socket.to_str().unwrap().to_string();

        // Cold resolve: the daemon builds, the client attaches zero-copy.
        let cold = run(&args(&[
            "construct",
            "--workload",
            "dedispersion",
            "--daemon",
            &sock,
        ]))
        .unwrap();
        assert!(cold.contains("daemon:               built"), "{cold}");
        assert!(cold.contains("zero-copy (mmap)"), "{cold}");
        assert!(cold.contains("persisted index trusted"), "{cold}");

        // Warm resolve: served O(header), no build report in the summary.
        let warm = run(&args(&[
            "construct",
            "--workload",
            "dedispersion",
            "--daemon",
            &sock,
        ]))
        .unwrap();
        assert!(warm.contains("daemon:               warm"), "{warm}");
        assert!(warm.contains("construction time:    none"), "{warm}");

        // `client resolve` reports the same space.
        let client = run(&args(&[
            "client",
            "resolve",
            "--socket",
            &sock,
            "--workload",
            "dedispersion",
        ]))
        .unwrap();
        assert!(client.contains("valid configurations:"), "{client}");
        assert!(client.contains("daemon:               warm"), "{client}");

        // tune --daemon rides the same path.
        let tuned = run(&args(&[
            "tune",
            "--workload",
            "dedispersion",
            "--budget-ms",
            "1000",
            "--daemon",
            &sock,
        ]))
        .unwrap();
        assert!(tuned.contains("[daemon, warm]"), "{tuned}");

        let pong = run(&args(&["daemon", "ping", "--socket", &sock])).unwrap();
        assert!(pong.contains("pong: pid"), "{pong}");
        assert!(pong.contains("ATSD protocol v1"), "{pong}");

        let status = run(&args(&["daemon", "status", "--socket", &sock])).unwrap();
        assert!(
            status.contains("\"schema\":\"atss.daemon-status.v1\""),
            "{status}"
        );
        assert!(status.contains("\"builds\":1"), "{status}");

        let stop = run(&args(&["daemon", "stop", "--socket", &sock])).unwrap();
        assert!(stop.contains("draining"), "{stop}");
        server.join().unwrap();
        assert!(!socket.exists(), "socket removed on shutdown");
    }

    #[test]
    fn unreachable_daemon_falls_back_to_local_construction() {
        let base = temp_base("fallback");
        let sock = base.join("no-such.sock");
        let out = run(&args(&[
            "construct",
            "--workload",
            "dedispersion",
            "--daemon",
            sock.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(!out.contains("daemon:     "), "{out}");
        assert!(out.contains("valid configurations:"), "{out}");
        assert!(out.contains("construction time:"), "{out}");
    }
}
