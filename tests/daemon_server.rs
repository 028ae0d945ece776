//! Concurrent-client integration suite for the `atssd` space-server.
//!
//! One in-process daemon, many client threads. The contracts under test
//! are the ones the protocol exists for:
//!
//! * **Single-flight** — N concurrent cold resolves of the same spec
//!   trigger exactly one solver run; everyone gets the same entry.
//! * **Identity** — every client attaches to a byte-identical path, and
//!   the daemon-resolved space is code-for-code identical to a local
//!   daemonless construction of the same spec.
//! * **Lifecycle** — stale sockets are taken over, live sockets are
//!   refused, garbage bytes and hostile spec JSON get a clean error
//!   without killing the daemon, shutdown drains clients that are
//!   mid-request, an idle daemon still notices shutdown, and entries stay
//!   pinned (GC-proof) while replies reference them.
//! * **Latency** — a fresh connection is accepted as soon as it arrives.

#![cfg(unix)]

use std::collections::HashSet;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use at_daemon::{Daemon, DaemonClient, DaemonConfig, ServeKind};
use at_searchspace::{build_search_space, Method, SearchSpaceSpec, TunableParameter};
use at_store::GcOptions;

fn temp_base(tag: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("atssd-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    base
}

/// A small spec that still takes a solver run to resolve.
fn demo_spec(name: &str) -> SearchSpaceSpec {
    SearchSpaceSpec::new(name)
        .with_param(TunableParameter::pow2("block_size_x", 8))
        .with_param(TunableParameter::pow2("block_size_y", 6))
        .with_param(TunableParameter::ints("work_per_thread", 1..=8))
        .with_expr("32 <= block_size_x * block_size_y <= 1024")
        .with_expr("work_per_thread <= block_size_y")
}

fn start_daemon(
    base: &std::path::Path,
) -> (at_daemon::DaemonHandle, thread::JoinHandle<()>, PathBuf) {
    let socket = base.join("atssd.sock");
    let daemon = Daemon::bind(DaemonConfig::new(&socket, base.join("cache"))).unwrap();
    let handle = daemon.handle();
    let join = thread::spawn(move || {
        daemon.run().unwrap();
    });
    (handle, join, socket)
}

#[test]
fn concurrent_cold_resolves_build_exactly_once() {
    let base = temp_base("singleflight");
    let (handle, join, socket) = start_daemon(&base);
    let spec = demo_spec("single-flight");

    const CLIENTS: usize = 8;
    let results: Vec<_> = thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let socket = socket.clone();
                let spec = spec.clone();
                s.spawn(move || {
                    let mut client = DaemonClient::connect(&socket).unwrap();
                    client
                        .resolve_spec(&spec, Method::Optimized, false, |_| {})
                        .unwrap()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    // Exactly one solver run: one Built, everyone else Warm or Coalesced,
    // and the daemon's own counters agree.
    let built = results
        .iter()
        .filter(|r| r.served == ServeKind::Built)
        .count();
    assert!(built <= 1, "more than one build slipped through");
    for r in &results {
        assert_ne!(r.served, ServeKind::Validated, "cold cache cannot validate");
    }
    let store = handle.store();
    assert_eq!(store.metrics().misses(), 1, "exactly one store miss");
    assert_eq!(store.metrics().hits(), 0);

    // Byte-identical attach paths, identical row counts.
    let paths: HashSet<_> = results.iter().map(|r| r.path.clone()).collect();
    assert_eq!(paths.len(), 1, "all clients attach to the same entry");
    let rows: HashSet<_> = results.iter().map(|r| r.rows).collect();
    assert_eq!(rows.len(), 1);

    // The daemon-resolved space is code-for-code identical to a local
    // daemonless construction.
    let (local, _) = build_search_space(&spec, Method::Optimized).unwrap();
    let attached = results[0].attach().unwrap();
    assert_eq!(attached.space.len(), local.len());
    assert_eq!(attached.space.arena(), local.arena());

    let status = handle.status_json();
    assert!(
        status.contains("\"schema\":\"atss.daemon-status.v1\""),
        "{status}"
    );
    assert!(status.contains("\"builds\":1"), "{status}");

    handle.request_shutdown();
    join.join().unwrap();
    assert!(!socket.exists(), "socket removed on shutdown");
}

#[test]
fn different_specs_build_independently() {
    let base = temp_base("two-specs");
    let (handle, join, socket) = start_daemon(&base);
    let spec_a = demo_spec("space-a");
    let spec_b = demo_spec("space-b").with_expr("block_size_x >= 2");

    let (res_a, res_b) = thread::scope(|s| {
        let sa = socket.clone();
        let a = s.spawn({
            let spec_a = spec_a.clone();
            move || {
                DaemonClient::connect(&sa)
                    .unwrap()
                    .resolve_spec(&spec_a, Method::Optimized, false, |_| {})
                    .unwrap()
            }
        });
        let sb = socket.clone();
        let b = s.spawn({
            let spec_b = spec_b.clone();
            move || {
                DaemonClient::connect(&sb)
                    .unwrap()
                    .resolve_spec(&spec_b, Method::Optimized, false, |_| {})
                    .unwrap()
            }
        });
        (a.join().unwrap(), b.join().unwrap())
    });

    assert_ne!(res_a.fingerprint, res_b.fingerprint);
    assert_ne!(res_a.path, res_b.path);
    assert_eq!(handle.store().metrics().misses(), 2, "one build per spec");
    let status = handle.status_json();
    assert!(status.contains("\"builds\":2"), "{status}");

    handle.request_shutdown();
    join.join().unwrap();
}

#[test]
fn warm_serves_are_validated_once_then_o_header() {
    let base = temp_base("warm");
    let (handle, join, socket) = start_daemon(&base);
    let spec = demo_spec("warm-path");

    let mut client = DaemonClient::connect(&socket).unwrap();
    let cold = client
        .resolve_spec(&spec, Method::Optimized, false, |_| {})
        .unwrap();
    assert_eq!(cold.served, ServeKind::Built);
    assert!(cold.build_us > 0);

    // Same connection, then a fresh connection: both warm, zero build time.
    for _ in 0..2 {
        let warm = client
            .resolve_spec(&spec, Method::Optimized, false, |_| {})
            .unwrap();
        assert_eq!(warm.served, ServeKind::Warm);
        assert_eq!(warm.build_us, 0);
        assert_eq!(warm.path, cold.path);
    }
    let mut fresh = DaemonClient::connect(&socket).unwrap();
    let fp = cold.fingerprint;
    let got = fresh.get(&fp).unwrap().expect("entry exists");
    assert_eq!(got.served, ServeKind::Warm);

    // Unknown fingerprint: clean NotFound, not an error.
    let missing = at_store::SpecFingerprint::from_u128(0xdead_beef);
    assert!(fresh.get(&missing).unwrap().is_none());

    handle.request_shutdown();
    join.join().unwrap();
}

#[test]
fn pinned_entries_survive_daemon_gc() {
    let base = temp_base("pin-gc");
    let socket = base.join("atssd.sock");
    // GC bound of one entry: after the second build the sweep would
    // evict the older entry — unless a reply still pins it.
    let mut config = DaemonConfig::new(&socket, base.join("cache"));
    config.gc = Some(GcOptions {
        max_bytes: u64::MAX,
        max_entries: 1,
    });
    let daemon = Daemon::bind(config).unwrap();
    let handle = daemon.handle();
    let join = thread::spawn(move || {
        daemon.run().unwrap();
    });

    // Hold a connection whose reply pins entry A across the build of B.
    let mut holder = DaemonClient::connect(&socket).unwrap();
    let a = holder
        .resolve_spec(&demo_spec("pinned-a"), Method::Optimized, false, |_| {})
        .unwrap();
    assert!(handle.store().pinned_count() >= 1, "reply pins the entry");

    let mut other = DaemonClient::connect(&socket).unwrap();
    let _b = other
        .resolve_spec(&demo_spec("pinned-b"), Method::Optimized, false, |_| {})
        .unwrap();

    // The sweep after B's build saw 2 entries > max_entries 1, but A is
    // pinned by the holder's outstanding reply: it must still be on disk.
    // The sweep runs in the build worker *after* B's reply is published,
    // so give it a moment to land before reading the counter.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.store().metrics().gc_pin_skips() == 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert!(a.path.exists(), "pinned entry evicted while referenced");
    assert!(a.attach().is_ok(), "pinned entry still attachable");
    assert!(
        handle.store().metrics().gc_pin_skips() >= 1,
        "gc sweep never recorded skipping the pinned entry"
    );

    handle.request_shutdown();
    join.join().unwrap();
}

#[test]
fn garbage_bytes_get_a_clean_error_and_the_daemon_survives() {
    let base = temp_base("garbage");
    let (handle, join, socket) = start_daemon(&base);

    // Raw garbage straight onto the socket.
    let mut raw = UnixStream::connect(&socket).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    raw.flush().unwrap();
    // The daemon replies with an ErrorReply frame and closes; draining
    // until EOF proves it didn't just hang up without answering.
    let reply = at_daemon::proto::read_frame(&mut raw).unwrap();
    match reply {
        Some(at_daemon::Frame::ErrorReply { code, .. }) => assert_eq!(code, 400),
        other => panic!("expected ErrorReply, got {other:?}"),
    }
    drop(raw);

    // The daemon is still alive and serving.
    let mut client = DaemonClient::connect(&socket).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(u64::from(std::process::id()), pong.pid);
    let status = client.status_json().unwrap();
    assert!(status.contains("\"proto_errors\":1"), "{status}");

    handle.request_shutdown();
    join.join().unwrap();
}

#[test]
fn deeply_nested_spec_json_gets_a_clean_error_and_the_daemon_survives() {
    let base = temp_base("nested");
    let (handle, join, socket) = start_daemon(&base);

    // One ~100 KB frame whose spec is 100,000 unclosed `[`: a JSON parser
    // without a nesting limit recurses once per bracket and overflows the
    // connection thread's stack, which aborts the whole daemon.
    let mut raw = UnixStream::connect(&socket).unwrap();
    let frame = at_daemon::Frame::Resolve {
        spec_json: "[".repeat(100_000),
        method: Method::Optimized.label().to_string(),
        prune: false,
    };
    raw.write_all(&frame.encode()).unwrap();
    raw.flush().unwrap();
    match at_daemon::proto::read_frame(&mut raw).unwrap() {
        Some(at_daemon::Frame::ErrorReply { code, message }) => {
            assert_eq!(code, 400);
            assert!(message.contains("recursion limit exceeded"), "{message}");
        }
        other => panic!("expected ErrorReply, got {other:?}"),
    }
    drop(raw);

    // The daemon is still alive and serving.
    let mut client = DaemonClient::connect(&socket).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(u64::from(std::process::id()), pong.pid);

    handle.request_shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_clients_mid_request() {
    let base = temp_base("drain");
    let (handle, join, socket) = start_daemon(&base);
    let spec = demo_spec("drain-me");

    // A client starts a cold resolve (solver run) and the daemon is told
    // to shut down while the build is in flight. The client must still
    // get its Ready frame; only then may the daemon exit.
    let resolved = thread::scope(|s| {
        let sock = socket.clone();
        let client = s.spawn({
            let spec = spec.clone();
            move || {
                let mut client = DaemonClient::connect(&sock).unwrap();
                client
                    .resolve_spec(&spec, Method::Optimized, false, |_| {})
                    .unwrap()
            }
        });
        // Wait until the daemon has read the request and the build is in
        // flight (a cold resolve records exactly one store miss) before
        // ordering shutdown. Shutdown only guarantees completion for
        // requests already accepted — a connection still sitting in the
        // listener backlog is legitimately refused.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.store().metrics().misses() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "build never started; client cannot be mid-request"
            );
            thread::sleep(Duration::from_millis(2));
        }
        handle.request_shutdown();
        client.join().unwrap()
    });
    join.join().unwrap();
    assert!(resolved.rows > 0);
    assert!(resolved.path.exists(), "drained build was persisted");
    assert!(!socket.exists(), "socket removed after drain");
}

#[test]
fn stale_sockets_are_taken_over_and_live_ones_refused() {
    let base = temp_base("takeover");
    let socket = base.join("atssd.sock");

    // A stale socket file nobody is listening on (a crashed daemon).
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists());
    let daemon = Daemon::bind(DaemonConfig::new(&socket, base.join("cache"))).unwrap();

    // While it is live, a second bind must refuse.
    let handle = daemon.handle();
    let join = thread::spawn(move || {
        daemon.run().unwrap();
    });
    DaemonClient::connect_with_retry(&socket, Duration::from_secs(5)).unwrap();
    let err = match Daemon::bind(DaemonConfig::new(&socket, base.join("cache2"))) {
        Err(e) => e,
        Ok(_) => panic!("second bind on a live socket must refuse"),
    };
    assert!(
        matches!(err, at_daemon::DaemonError::AlreadyRunning { .. }),
        "{err}"
    );

    // The pidfile names this process while running.
    let pidfile = base.join("atssd.sock.pid");
    let pid: u32 = std::fs::read_to_string(&pidfile)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(pid, std::process::id());

    handle.request_shutdown();
    join.join().unwrap();
    assert!(!pidfile.exists(), "pidfile removed on shutdown");
}

#[test]
fn fresh_connections_are_accepted_without_waiting_for_a_poll() {
    let base = temp_base("fresh-conns");
    let (handle, join, socket) = start_daemon(&base);
    DaemonClient::connect(&socket).unwrap().ping().unwrap();

    // Each round is a new connection, as from a fresh `construct --daemon`
    // process. The daemon must pick each one up as it arrives: a loop
    // that sleeps between accept polls costs one poll period per round.
    const ROUNDS: u32 = 40;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        DaemonClient::connect(&socket).unwrap().ping().unwrap();
    }
    let took = started.elapsed();

    handle.request_shutdown();
    join.join().unwrap();
    assert!(
        took < Duration::from_millis(250),
        "{ROUNDS} fresh connect + ping round trips took {took:?}"
    );
}

#[test]
fn an_idle_daemon_shuts_down_instead_of_hanging() {
    let base = temp_base("idle-shutdown");
    let socket = base.join("atssd.sock");
    let daemon = Daemon::bind(DaemonConfig::new(&socket, base.join("cache"))).unwrap();
    let handle = daemon.handle();
    // `run` reports through a channel so that a daemon stuck in `accept`
    // fails the test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let join = thread::spawn(move || {
        let _ = tx.send(daemon.run());
    });

    // Idle for longer than the accept loop's 150 ms receive timeout, so no
    // client ever wakes the loop.
    thread::sleep(Duration::from_millis(400));
    handle.request_shutdown();
    let summary = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("an idle daemon must stop within 2 s of a shutdown request")
        .unwrap();
    join.join().unwrap();
    assert_eq!(summary.connections, 0);
    assert!(!socket.exists(), "socket removed on shutdown");
}
