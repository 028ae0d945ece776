//! The traced pass: every operation replayed as the public layer calls the
//! CLI makes, each call wrapped in a span recorded by the benchmark.
//!
//! Spans stay in memory (one parent span per operation, one child per
//! layer call, linked by `op`/`span`/`parent` args) and are written at the
//! end as a Chrome trace through `at_obs::trace`. Per-layer medians come
//! only from these spans; whatever the libraries record internally is not
//! a metric source (their recorder stays off).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use at_cot::{build_chain_from_problem, enumerate_chain_into};
use at_csp::{CountingSink, OptimizedSolver, OriginalBacktrackingSolver, SolveStats, Solver};
use at_daemon::DaemonClient;
use at_obs::recorder::MAX_ARGS;
use at_obs::{SpanKind, SpanRecord};
use at_searchspace::{
    ConfigId, EncodingSink, Method, NeighborIndex, RestrictionLowering, SearchSpace,
};
use at_store::{
    load_space_from_path, write_space_to_path, LoadOptions, SpecFingerprint, StoreReader,
};
use at_tuner::{EvalBackend, Measurement, ModelBackend};

use crate::e2e::{cache_entry, warm_client, E2e, Workload};
use crate::ops::{atss, check_construct, outcome_of, tune_in_process, Construct, DaemonChild};
use crate::stats::median;

/// In-memory spans of the pass, plus the duration samples per span name.
struct Tracer {
    epoch: Instant,
    records: Vec<SpanRecord>,
    next_id: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// An open operation: the parent of the layer calls timed under it.
struct OpSpan {
    name: &'static str,
    id: u64,
    start_ns: u64,
}

fn record(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    args: &[(&'static str, u64)],
) -> SpanRecord {
    let mut inline = [("", 0u64); MAX_ARGS];
    inline[..args.len()].copy_from_slice(args);
    SpanRecord {
        name,
        // The layer is the name's prefix: `csp.solve` belongs to at_csp.
        cat: name.split('.').next().unwrap_or(name),
        thread: 0,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        kind: SpanKind::Span,
        args: inline,
        num_args: args.len(),
    }
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            records: Vec::new(),
            next_id: 1,
            samples: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> OpSpan {
        let id = self.next_id;
        self.next_id += 1;
        OpSpan {
            name,
            id,
            start_ns: self.now_ns(),
        }
    }

    /// Time one layer call as a child span of `op`; returns its result
    /// and its duration in milliseconds.
    fn time<T>(&mut self, op: &OpSpan, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        self.records.push(record(
            name,
            start,
            end,
            &[("op", op.id), ("span", id), ("parent", op.id)],
        ));
        let ms = (end - start) as f64 / 1e6;
        self.samples.entry(name).or_default().push(ms);
        (out, ms)
    }

    fn end(&mut self, op: OpSpan) {
        let end = self.now_ns();
        self.records.push(record(
            op.name,
            op.start_ns,
            end,
            &[("op", op.id), ("span", op.id), ("parent", 0)],
        ));
    }

    /// A sample that is not a span of its own (a sum over many calls).
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn chrome_trace(&self) -> String {
        let mut records = self.records.clone();
        records.sort_by_key(|r| (r.start_ns, r.thread));
        at_obs::trace::chrome_trace(&records)
    }
}

/// `ModelBackend` with a clock around every batch.
struct TimedBackend<'m> {
    inner: ModelBackend<'m>,
    nanos: AtomicU64,
}

impl EvalBackend for TimedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate_batch(&self, space: &SearchSpace, ids: &[ConfigId]) -> Vec<Option<Measurement>> {
        let start = Instant::now();
        let out = self.inner.evaluate_batch(space, ids);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the traced pass measured.
pub struct Layers {
    /// Every per-layer metric except `failed_ratio`, in declaration order.
    pub metrics: Vec<Metric>,
    /// Checks made during the pass.
    pub attempted: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    /// Replay rounds completed.
    pub rounds: usize,
    /// The Chrome trace the pass wrote.
    pub trace_path: PathBuf,
}

/// Counts the layers report: the solver's and the store's repeat
/// exactly; the tuner's (proposed, measured, batches, cache-hit ratio,
/// ns per proposal) vary with the session seed.
#[derive(Default)]
struct Counts {
    prunable: u64,
    solve: SolveStats,
    file_bytes: u64,
    tuner: Vec<(u64, u64, u64, f64, f64)>,
}

struct Pass<'a> {
    workload: Workload,
    spec: at_searchspace::SearchSpaceSpec,
    valid: u64,
    daemon: &'a DaemonChild,
    cache_dir: &'a str,
    entry: PathBuf,
    dir: &'a Path,
    e2e: &'a E2e,
    t: Tracer,
    counts: Counts,
    cold_arena: Option<SearchSpace>,
    attempted: u64,
    failures: Vec<String>,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl Pass<'_> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn same_arena(&mut self, space: &SearchSpace, via: &str) {
        let same = self
            .cold_arena
            .as_ref()
            .is_some_and(|cold| cold.arena() == space.arena());
        self.check(same, || {
            format!("{via}: arena differs from the cold-built one")
        });
    }

    /// Run `replay`, and on warm-serve, which has two clients, run a
    /// second untraced client beside it, so the replayed calls wait on the
    /// same contention the end-to-end pass did.
    fn beside_second_client(
        &mut self,
        seed: u64,
        replay: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.workload != Workload::WarmServe {
            return replay(self);
        }
        let (workload, valid) = (self.workload, self.valid);
        let socket = self.daemon.socket_arg().to_string();
        let cache = self.cache_dir.to_string();
        let stop = AtomicBool::new(false);
        let (result, rounds) = std::thread::scope(|s| {
            let client = s.spawn(|| {
                warm_client(workload, seed, &socket, &cache, valid, || {
                    !stop.load(Ordering::Relaxed)
                })
            });
            let result = replay(self);
            stop.store(true, Ordering::Relaxed);
            (result, client.join().expect("second client"))
        });
        for (_, _, checked) in rounds.into_iter().flatten() {
            self.check(checked.is_ok(), || checked.unwrap_err());
        }
        result
    }

    /// Cache-miss construct: analyze, fingerprint, lower, search, encode,
    /// finish, write.
    fn cold_construct(&mut self, round: usize) -> Result<(), String> {
        let spec = self.spec.clone();
        let op = self.t.begin("op.cold-construct");
        let (report, _) = self
            .t
            .time(&op, "check.analyze", || at_check::check_spec(&spec));
        self.counts.prunable = report.num_prunable_values() as u64;
        let (fp, _) = self.t.time(&op, "store.fingerprint", || {
            SpecFingerprint::compute(&spec, RestrictionLowering::Optimized)
        });
        fp.map_err(err("fingerprint"))?;
        let (problem, _) = self.t.time(&op, "expr.lower", || {
            spec.to_problem_with(RestrictionLowering::Optimized, false)
        });
        let problem = problem.map_err(err("lowering"))?;
        let solver = OptimizedSolver::new();
        let mut counting = CountingSink::default();
        let (stats, solve_ms) = self.t.time(&op, "csp.solve", || {
            solver.solve_into(&problem, &mut counting)
        });
        let stats = stats.map_err(err("solve"))?;
        let mut sink = EncodingSink::new(spec.name.clone(), spec.params.clone())
            .map_err(err("encoding sink"))?;
        let (encoded, encode_ms) = self.t.time(&op, "searchspace.solve_encode", || {
            solver.solve_into(&problem, &mut sink)
        });
        encoded.map_err(err("encoding solve"))?;
        self.t.sample("searchspace.encode", encode_ms - solve_ms);
        let (space, _) = self.t.time(&op, "searchspace.finish", || sink.finish());
        let space = space.map_err(err("finish"))?;
        let file = self.dir.join(format!("cold-{round}.atss"));
        let (summary, _) = self
            .t
            .time(&op, "store.write", || write_space_to_path(&space, &file));
        let summary = summary.map_err(err("store write"))?;
        self.t.end(op);
        let _ = std::fs::remove_file(&file);

        self.counts.solve = stats;
        self.counts.file_bytes = summary.bytes_written;
        let valid = self.valid;
        self.check(
            stats.solutions == valid && counting.rows() == valid && space.len() as u64 == valid,
            || {
                format!(
                    "cold replay found {} configurations, reference {valid}",
                    space.len()
                )
            },
        );
        if self.cold_arena.is_none() {
            self.cold_arena = Some(space);
        }
        Ok(())
    }

    /// The paper's comparison series: pruned solve, the original
    /// backtracking solver and chain-of-trees, each searching only.
    fn baselines(&mut self) -> Result<(), String> {
        let spec = self.spec.clone();
        let op = self.t.begin("op.baselines");
        let (pruned, _) = self.t.time(&op, "expr.lower_pruned", || {
            spec.to_problem_with(RestrictionLowering::Optimized, true)
        });
        let pruned = pruned.map_err(err("pruned lowering"))?;
        let (pstats, _) = self.t.time(&op, "csp.pruned_solve", || {
            OptimizedSolver::new().solve_into(&pruned, &mut CountingSink::default())
        });
        let (generic, _) = self.t.time(&op, "expr.lower_generic", || {
            spec.to_problem(RestrictionLowering::Generic)
        });
        let generic = generic.map_err(err("generic lowering"))?;
        let (ostats, _) = self.t.time(&op, "csp.original_solve", || {
            OriginalBacktrackingSolver::new().solve_into(&generic, &mut CountingSink::default())
        });
        let (cot_rows, _) = self.t.time(&op, "cot.construct", || {
            let chain = build_chain_from_problem(&generic);
            let mut sink = CountingSink::default();
            enumerate_chain_into(&chain, &mut sink).map(|()| sink.rows())
        });
        self.t.end(op);
        let valid = self.valid;
        let counts = [
            pstats.map_err(err("pruned solve"))?.solutions,
            ostats.map_err(err("original solve"))?.solutions,
            cot_rows.map_err(err("chain-of-trees"))?,
        ];
        self.check(counts.iter().all(|&c| c == valid), || {
            format!("baseline counts {counts:?}, reference {valid}")
        });
        Ok(())
    }

    /// `construct --daemon`: analyze, connect, resolve, attach; then one
    /// more resolve on the held connection.
    fn daemon_construct(&mut self) -> Result<(), String> {
        let spec = self.spec.clone();
        let socket = self.daemon.socket.clone();
        let op = self.t.begin("op.daemon-construct");
        self.t
            .time(&op, "check.analyze", || at_check::check_spec(&spec));
        let (client, _) = self
            .t
            .time(&op, "daemon.connect", || DaemonClient::connect(&socket));
        let mut client = client.map_err(err("connect"))?;
        let (resolved, _) = self.t.time(&op, "daemon.first_resolve", || {
            client.resolve_spec(&spec, Method::Optimized, false, |_| {})
        });
        let resolved = resolved.map_err(err("resolve"))?;
        let (loaded, _) = self.t.time(&op, "store.attach", || resolved.attach());
        let loaded = loaded.map_err(err("attach"))?;
        let (again, _) = self.t.time(&op, "daemon.held_resolve", || {
            client.resolve_spec(&spec, Method::Optimized, false, |_| {})
        });
        again.map_err(err("held resolve"))?;
        self.t.end(op);
        self.check(loaded.report.is_zero_copy(), || {
            "daemon attach was not zero-copy".to_string()
        });
        self.same_arena(&loaded.space, "daemon attach");
        Ok(())
    }

    /// `construct --cache-dir --mmap` on a warm cache: analyze,
    /// fingerprint, attach.
    fn mmap_construct(&mut self) -> Result<(), String> {
        let spec = self.spec.clone();
        let entry = self.entry.clone();
        let op = self.t.begin("op.mmap-construct");
        self.t
            .time(&op, "check.analyze", || at_check::check_spec(&spec));
        self.t
            .time(&op, "store.fingerprint", || {
                SpecFingerprint::compute(&spec, RestrictionLowering::Optimized)
            })
            .0
            .map_err(err("fingerprint"))?;
        let (loaded, _) = self.t.time(&op, "store.attach", || {
            load_space_from_path(&entry, LoadOptions::mmap_trusted())
        });
        let loaded = loaded.map_err(err("mmap load"))?;
        self.t.end(op);
        self.check(loaded.report.is_zero_copy(), || {
            "mmap load was not zero-copy".to_string()
        });
        self.same_arena(&loaded.space, "mmap attach");
        Ok(())
    }

    /// The verified copying load.
    fn load_copy(&mut self) -> Result<(), String> {
        let entry = self.entry.clone();
        let op = self.t.begin("op.load-copy");
        let (loaded, _) = self.t.time(&op, "store.load_copy", || {
            StoreReader::open(&entry).and_then(|r| r.load(LoadOptions::default()))
        });
        let loaded = loaded.map_err(err("copy load"))?;
        self.t.end(op);
        self.same_arena(&loaded.space, "copy load");
        Ok(())
    }

    /// Both warm commands whole, through `at_cli::run`.
    fn cli_commands(&mut self) {
        let space = self.workload.space();
        let socket = self.daemon.socket_arg().to_string();
        let cache = self.cache_dir.to_string();
        let op = self.t.begin("op.cli");
        for (kind, span, target) in [
            (Construct::Daemon, "cli.daemon_construct", socket.as_str()),
            (Construct::Mmap, "cli.mmap_construct", cache.as_str()),
        ] {
            let (out, _) = self.t.time(&op, span, || atss(&kind.args(space, target)));
            let valid = self.valid;
            let result = out.and_then(|o| check_construct(&o, kind, valid));
            self.check(result.is_ok(), || result.unwrap_err());
        }
        self.t.end(op);
    }

    /// `tune` on the warm space: fingerprint, attach, the session itself,
    /// and then, alone, the neighbour index the genetic strategy builds.
    /// The index comes after the session: built and freed just before
    /// it, it made the session about 200 ms slower than the CLI's.
    fn tune(&mut self, seed: u64) -> Result<(), String> {
        let spec = self.spec.clone();
        let entry = self.entry.clone();
        let op = self.t.begin("op.tune");
        self.t
            .time(&op, "store.fingerprint", || {
                SpecFingerprint::compute(&spec, RestrictionLowering::Optimized)
            })
            .0
            .map_err(err("fingerprint"))?;
        let (loaded, _) = self.t.time(&op, "store.attach", || {
            load_space_from_path(&entry, LoadOptions::mmap_trusted())
        });
        let space = loaded.map_err(err("mmap load"))?.space;
        let model = at_workloads::performance_model_for(space.name(), &space, seed);
        let backend = TimedBackend {
            inner: ModelBackend::new(&model),
            nanos: AtomicU64::new(0),
        };
        let (run, session_ms) = self.t.time(&op, "tuner.session", || {
            tune_in_process(&space, &backend, seed)
        });
        let (index, _) = self.t.time(&op, "searchspace.neighbor_index", || {
            NeighborIndex::build(&space)
        });
        drop(index);
        self.t.end(op);
        let run = run?;
        self.t.sample(
            "tuner.backend",
            backend.nanos.load(Ordering::Relaxed) as f64 / 1e6,
        );
        let m = &run.metrics;
        self.counts.tuner.push((
            m.proposed,
            m.measured,
            m.batches,
            m.cache_hit_ratio(),
            session_ms * 1e6 / m.proposed.max(1) as f64,
        ));
        let got = outcome_of(&run)?;
        // On tune-session the untraced pass ran the same seeds through
        // the CLI: the replay must agree with it.
        if let Some((_, cli)) = self.e2e.tunes.iter().find(|(s, _)| *s == seed) {
            let cli = *cli;
            self.check(cli == got, || {
                format!("tune seed {seed}: CLI {cli:?}, traced replay {got:?}")
            });
        }
        Ok(())
    }
}

/// Run replay rounds for `seconds` (at least one), then derive the
/// per-layer metrics and write the Chrome trace to `trace_path`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    e2e: &E2e,
    trace_path: &Path,
) -> Result<Layers, String> {
    let dir = work.join("traced");
    std::fs::create_dir_all(&dir).map_err(err("traced work dir"))?;
    let spec = workload.spec();
    let valid = e2e.reference_valid;

    // Set-up of the pass, untimed: a daemon and a local cache, both warm.
    let daemon = DaemonChild::spawn(&dir.join("d.sock"), &dir.join("daemon"))?;
    let cache_dir = dir.join("warm");
    let cache_arg = cache_dir.to_str().expect("ASCII path").to_string();
    for (kind, target) in [
        (Construct::Daemon, daemon.socket_arg()),
        (Construct::Cold, cache_arg.as_str()),
    ] {
        let out = atss(&kind.args(workload.space(), target))?;
        check_construct(&out, kind, valid)?;
    }
    let status_before = daemon.status()?;

    let mut pass = Pass {
        workload,
        spec: spec.clone(),
        valid,
        daemon: &daemon,
        cache_dir: &cache_arg,
        entry: cache_entry(&cache_dir, &spec)?,
        dir: &dir,
        e2e,
        t: Tracer::new(),
        counts: Counts::default(),
        cold_arena: None,
        attempted: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        pass.cold_construct(rounds)?;
        pass.baselines()?;
        let round_seed = seed.wrapping_add(rounds as u64);
        pass.beside_second_client(round_seed, |p| {
            p.daemon_construct()?;
            p.mmap_construct()?;
            p.cli_commands();
            Ok(())
        })?;
        pass.load_copy()?;
        pass.tune(round_seed)?;
        rounds += 1;
    }
    let status_after = daemon.status()?;

    let count = |doc: &serde_json::Value, key: &str| {
        doc.get(key).and_then(|v| v.as_i64()).unwrap_or(0) as f64
    };
    // Resolves between the two status probes; the second probe itself is
    // one request.
    let resolves = count(&status_after, "requests") - count(&status_before, "requests") - 1.0;
    let warm = count(&status_after, "served_warm") - count(&status_before, "served_warm");
    let warm_hit_ratio = warm / resolves;
    pass.check(warm_hit_ratio == 1.0, || {
        format!("daemon served {warm} of {resolves} resolves warm")
    });

    std::fs::write(trace_path, pass.t.chrome_trace()).map_err(err("trace write"))?;
    let lint = atss(&["trace-lint", trace_path.to_str().expect("ASCII path")]);
    pass.check(lint.is_ok(), || {
        format!("trace-lint: {}", lint.unwrap_err())
    });

    let metrics = derive(&pass, workload, e2e, warm_hit_ratio);
    let Pass {
        attempted,
        failures,
        ..
    } = pass;
    Ok(Layers {
        metrics,
        attempted,
        failures,
        rounds,
        trace_path: trace_path.to_path_buf(),
    })
}

/// The per-layer metrics, from the spans' medians and the exact counts.
fn derive(pass: &Pass<'_>, workload: Workload, e2e: &E2e, warm_hit_ratio: f64) -> Vec<Metric> {
    let t = &pass.t;
    let c = &pass.counts;
    let analyze = t.median("check.analyze");
    let fingerprint = t.median("store.fingerprint");
    let lower = t.median("expr.lower");
    let solve = t.median("csp.solve");
    let encode = t.median("searchspace.encode");
    let finish = t.median("searchspace.finish");
    let write = t.median("store.write");
    let original = t.median("csp.original_solve");
    let cot = t.median("cot.construct");
    let connect = t.median("daemon.connect");
    let first = t.median("daemon.first_resolve");
    let held = t.median("daemon.held_resolve");
    let attach = t.median("store.attach");
    let index = t.median("searchspace.neighbor_index");
    let session = t.median("tuner.session");
    let backend = t.median("tuner.backend");
    let tuner = |f: fn(&(u64, u64, u64, f64, f64)) -> f64| {
        median(&c.tuner.iter().map(f).collect::<Vec<_>>())
    };
    let nodes = c.solve.nodes as f64;

    // The layer calls that block the workload's own operation.
    let e2e_p50 = median(&e2e.op_ms);
    let blocking = match workload {
        Workload::ColdDense | Workload::ColdSparse => {
            analyze + fingerprint + lower + solve + encode + finish + write
        }
        // One round is a daemon construct plus an mmap construct.
        Workload::WarmServe => {
            (analyze + connect + first + attach) + (analyze + fingerprint + attach)
        }
        Workload::TuneSession => fingerprint + attach + session,
    };

    vec![
        ("check.analyze_ms", analyze, "ms"),
        ("check.prunable_values", c.prunable as f64, "count"),
        ("expr.lower_ms", lower, "ms"),
        ("csp.solve_ms", solve, "ms"),
        ("csp.nodes", nodes, "count"),
        (
            "csp.constraint_checks",
            c.solve.constraint_checks as f64,
            "count",
        ),
        ("csp.solutions", c.solve.solutions as f64, "count"),
        ("csp.ns_per_node", solve * 1e6 / nodes, "ns"),
        (
            "csp.solutions_per_node",
            c.solve.solutions as f64 / nodes,
            "ratio",
        ),
        ("csp.pruned_solve_ms", t.median("csp.pruned_solve"), "ms"),
        ("searchspace.encode_ms", encode, "ms"),
        ("searchspace.finish_ms", finish, "ms"),
        ("store.write_ms", write, "ms"),
        ("store.file_mb", c.file_bytes as f64 / 1e6, "MB"),
        ("csp.original_solve_ms", original, "ms"),
        ("cot.construct_ms", cot, "ms"),
        ("csp.speedup_vs_original", original / solve, "ratio"),
        ("csp.speedup_vs_cot", cot / solve, "ratio"),
        ("store.fingerprint_us", fingerprint * 1e3, "us"),
        ("daemon.connect_us", connect * 1e3, "us"),
        ("daemon.first_resolve_ms", first, "ms"),
        ("daemon.held_resolve_us", held * 1e3, "us"),
        ("daemon.accept_wait_ms", first - held, "ms"),
        ("store.attach_ms", attach, "ms"),
        ("store.load_copy_ms", t.median("store.load_copy"), "ms"),
        ("daemon.warm_hit_ratio", warm_hit_ratio, "ratio"),
        ("searchspace.neighbor_index_ms", index, "ms"),
        ("tuner.session_ms", session, "ms"),
        ("tuner.backend_ms", backend, "ms"),
        ("tuner.self_ms", session - backend - index, "ms"),
        ("tuner.proposed", tuner(|r| r.0 as f64), "count"),
        ("tuner.measured", tuner(|r| r.1 as f64), "count"),
        ("tuner.batches", tuner(|r| r.2 as f64), "count"),
        ("tuner.cache_hit_ratio", tuner(|r| r.3), "ratio"),
        ("tuner.ns_per_proposal", tuner(|r| r.4), "ns"),
        (
            "cli.daemon_construct_ms",
            t.median("cli.daemon_construct"),
            "ms",
        ),
        (
            "cli.mmap_construct_ms",
            t.median("cli.mmap_construct"),
            "ms",
        ),
        ("cli.unattributed_ms", e2e_p50 - blocking, "ms"),
    ]
}
