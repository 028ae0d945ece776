//! Implementations of the `atss` subcommands.

use std::fmt::Write as _;
use std::time::Duration;

use at_obs::json::Json;
use at_searchspace::output::json_value;
use at_searchspace::{
    build_search_space, build_search_space_with, spec_from_json, to_csv, to_json_cache,
    BuildOptions, BuildReport, Method, SearchSpace, SearchSpaceSpec, SpaceCharacteristics,
};
use at_store::{
    CacheStatus, GcOptions, LoadOptions, SpaceStore, StoreEntry, StoreError, StoreOutcome,
};
use at_tuner::{all_strategy_names, strategy_by_name, tune_with_options, EvalOptions, TuningRun};
use at_workloads::{all_real_world, performance_model_for, real_world_by_name, real_world_names};

use crate::args::ParsedArgs;
use crate::daemon_cmd::{try_daemon_obtain, DaemonServed};
use crate::obs::{solve_section, ObsSession};
use crate::CliError;

/// The help text.
pub fn help() -> String {
    "\
atss — auto-tuning search space construction (ICPP'25 reproduction)

USAGE:
    atss <command> [flags]

COMMANDS:
    workloads       List the built-in real-world search spaces (Table 2)
    check           Statically analyze a spec's restrictions (no solve)
                      --workload <name> | --spec <file.json>
                      --json              one JSON object per diagnostic plus a
                                          summary line; findings are in-band
                      exit code is 1 when an error-severity diagnostic
                      (AT0001/AT0007/AT0008/AT0009) is found
    construct       Construct a search space and print or export it
                      --workload <name> | --spec <file.json>
                      --method <brute-force|original|optimized|parallel-optimized|
                                chain-of-trees|blocking-clause>   (default: optimized)
                      --format <count|summary|csv|json>           (default: summary)
                      --out <path>                                 write instead of print
                      --cache-dir <dir>   serve from / persist to an ATSS space cache
                      --mmap              zero-copy warm loads: mmap the cached
                                          arena and trust its persisted index
                      --daemon <socket>   resolve through a running space-server
                                          (O(header) mmap attach; falls back to
                                          local construction when unreachable)
                      --prune             analyzer-driven domain pre-pruning before
                                          the solve (identical space, smaller solve)
                      --json              one-line atss.construct.v1 object instead
                                          of the human summary (export still goes
                                          through --format/--out)
                      analyzer findings go to stderr without --cache-dir, when
                      no cache entry exists for the spec, or when the daemon
                      runs the solver for this request; nothing prints when an
                      entry exists (even if it is rebuilt), so use `atss check`
                      to see a spec's findings on demand
    compare         Time several construction methods on one space
                      --workload <name> | --spec <file.json>
                      --methods <comma-separated labels>
                      --json              one-line atss.compare.v1 object
    tune            Run a simulated tuning session on a built-in workload
                      --workload <name>  --strategy <name>  --budget-ms <n>
                      --method <construction method>  --seed <n>
                      --eval-threads <n>  parallel evaluation fan-out (the run is
                                          identical for any thread count)
                      --construction-ms <n>  charge a fixed virtual construction
                                          time instead of the measured one
                                          (reproducible across invocations)
                      --json              one-line atss.tune.v1 object: best
                                          config + eval-pipeline metrics
                      --cache-dir <dir>   load the space from the cache (warm
                                          loads charge milliseconds, not seconds,
                                          to the tuning budget)
                      --mmap              zero-copy warm loads (with --cache-dir)
                      --daemon <socket>   resolve through a running space-server
                                          (warm serves charge the attach, not a
                                          solve; local fallback when unreachable)
                      analyzer findings go to stderr as for construct, and
                      never with --json; `atss check` prints them on demand
    cache           Manage an ATSS space cache directory
                      cache ls     --cache-dir <dir>
                      cache info   --cache-dir <dir> --workload <n>|--spec <f> [--method <m>]
                                   [--mmap]  also time a zero-copy load of the entry
                      cache verify --cache-dir <dir> [--json]
                                   --json emits one JSON object per entry plus a
                                   summary line; damage is reported in-band
                      cache gc     --cache-dir <dir> --max-bytes <n> --max-entries <n>
                                   (entries pinned by a space-server are
                                   reported and never evicted)
    daemon          Run or control the resident space-server, atssd
                    (ATSD protocol v1 over a Unix domain socket; one daemon
                    owns the cache, dedupes concurrent builds, and hands
                    clients validated paths to mmap in O(header))
                      daemon run    --socket <path> --cache-dir <dir>
                                    [--pidfile <path>] [--max-bytes <n>]
                                    [--max-entries <n>]  (GC between builds;
                                    pinned entries are skipped)
                      daemon status --socket <path>   one-line
                                    atss.daemon-status.v1 JSON envelope
                      daemon stop   --socket <path>   drain builds, then exit
                      daemon ping   --socket <path>
    client          Talk to a running space-server
                      client resolve --socket <path> --workload <n>|--spec <f>
                                     [--method <m>] [--prune]
                                     get-or-build via the daemon, mmap-attach
                      client ping    --socket <path>
    trace-lint      Structurally validate a --trace export: top-level array,
                    required event fields, per-thread timestamp monotonicity
                      atss trace-lint <trace.json>
    capabilities    Print a machine-readable atss.capabilities.v1 JSON object
                    (methods, solvers, strategies, workloads, store features)
    spec-template   Print an example JSON space specification
    help            Show this message

OBSERVABILITY (construct, check, compare, tune, cache):
    --trace <file>   record spans across the whole pipeline (parse -> check ->
                     solve -> encode -> store -> eval, with per-thread solver
                     chunks and eval workers) and write a Chrome trace-event
                     JSON array; open it at https://ui.perfetto.dev
    --metrics        emit a one-line atss.metrics.v1 envelope: per-phase
                     timers, peak transient heap bytes, and the solver /
                     store / eval counters of the run. `tune --json` and
                     `construct/compare --json` embed it as `observability`;
                     everywhere else it is the last output line. Recording
                     never changes what the pipeline computes.

EXIT CODES (every subcommand):
    0   success
    1   any failure: bad flags, unknown names, I/O errors, or a failed
        construction / tuning run. Additionally, in human (non --json) mode:
        `check` exits 1 when an error-severity diagnostic is found,
        `cache verify` exits 1 when any entry is damaged, and `trace-lint`
        exits 1 on a malformed trace. With --json, findings are reported
        in-band and the exit code stays 0 unless the command itself fails.

Built-in workloads: dedispersion, expdist, hotspot, gemm, microhh,
prl-2x2, prl-4x4, prl-8x8.
"
    .to_string()
}

/// An example specification file.
pub fn spec_template() -> String {
    r#"{
  "name": "example",
  "parameters": [
    {"name": "block_size_x", "values": [1, 2, 4, 8, 16, 32, 64, 128, 256]},
    {"name": "block_size_y", "values": [1, 2, 4, 8, 16, 32]},
    {"name": "work_per_thread", "values": [1, 2, 4, 8]},
    {"name": "use_shared_memory", "values": [0, 1]}
  ],
  "restrictions": [
    "32 <= block_size_x * block_size_y <= 1024",
    "work_per_thread <= block_size_y",
    "use_shared_memory == 0 or block_size_x * work_per_thread * 4 <= 4096"
  ]
}
"#
    .to_string()
}

/// Resolve the search space specification selected by `--workload` or `--spec`.
pub(crate) fn resolve_spec(args: &ParsedArgs) -> Result<SearchSpaceSpec, CliError> {
    let span = at_obs::span("parse-spec", "parse");
    let spec = match (args.get("workload"), args.get("spec")) {
        (Some(name), None) => real_world_by_name(name).map(|w| w.spec).ok_or_else(|| {
            CliError::Run(format!(
                "unknown workload `{name}` (available: {})",
                real_world_names().join(", ")
            ))
        })?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
            spec_from_json(&text)
                .map_err(|e| CliError::Run(format!("cannot parse `{path}`: {e}")))?
        }
        (Some(_), Some(_)) => {
            return Err(CliError::Run(
                "pass either --workload or --spec, not both".to_string(),
            ))
        }
        (None, None) => {
            return Err(CliError::Run(
                "pass --workload <name> or --spec <file.json>".to_string(),
            ))
        }
    };
    drop(
        span.arg("params", spec.num_params() as u64)
            .arg("restrictions", spec.num_restrictions() as u64),
    );
    Ok(spec)
}

pub(crate) fn resolve_method(args: &ParsedArgs) -> Result<Method, CliError> {
    match args.get("method") {
        None => Ok(Method::Optimized),
        Some(label) => Method::from_label(label).ok_or_else(|| {
            CliError::Run(format!(
                "unknown method `{label}` (available: {})",
                Method::all()
                    .iter()
                    .map(|m| m.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }),
    }
}

/// `atss workloads`
pub fn workloads(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&[])?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:>16} {:>8} {:>12} {:>18}",
        "name", "cartesian", "params", "constraints", "paper valid"
    )
    .expect("write to string");
    for w in all_real_world() {
        writeln!(
            out,
            "{:<14} {:>16} {:>8} {:>12} {:>18}",
            w.spec.name,
            w.spec.cartesian_size(),
            w.spec.num_params(),
            w.spec.num_restrictions(),
            w.paper.num_valid,
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "\nshort names for --workload: {}",
        real_world_names().join(", ")
    )
    .expect("write to string");
    Ok(out)
}

/// What [`obtain_space`] hands back: the space, the build report when
/// solving happened, the cache outcome + store when a cache was
/// involved (the store carries the metrics for the summary), and the
/// daemon reply when `--daemon` resolved the space through a running
/// space-server.
type ObtainedSpace = (
    SearchSpace,
    Option<BuildReport>,
    Option<(StoreOutcome, SpaceStore)>,
    Option<DaemonServed>,
);

/// Resolve the space for `spec`: through a running space-server when
/// `--daemon <socket>` is passed (transparently falling back to local
/// construction when it is unreachable), through a [`SpaceStore`] when
/// `--cache-dir` is (zero-copy when `--mmap` is), by plain construction
/// otherwise.
///
/// With `analyze`, the analyzer's findings go to stderr in three cases:
/// before a build without `--cache-dir`; before the store call when no
/// entry for the spec exists on disk (so a failing construction still
/// shows them first); and after a resolve the daemon answered by running
/// the solver for this request (`built` or `coalesced`). Nothing prints
/// when an entry already exists, even if the store then rebuilds it, so
/// an entry first built by another process or by `tune --json` never
/// shows its findings here; `atss check` prints them on demand.
fn obtain_space(
    args: &ParsedArgs,
    spec: &SearchSpaceSpec,
    method: Method,
    analyze: bool,
) -> Result<ObtainedSpace, CliError> {
    let options = BuildOptions {
        prune: args.switch("prune"),
        ..Default::default()
    };
    let emit_findings_if = |builds: bool| {
        if analyze && builds {
            emit_check_warnings(spec);
        }
    };
    if let Some(socket) = args.get("daemon") {
        // The daemon path: ship the spec, wait through any build, attach
        // O(header). A dead or unreachable daemon must never fail a
        // tuner, so every error falls back to local construction with a
        // note on stderr.
        match try_daemon_obtain(socket, spec, method, options.prune) {
            Ok((space, served)) => {
                emit_findings_if(served.built());
                return Ok((space, None, None, Some(served)));
            }
            Err(e) => {
                eprintln!("atss: daemon at `{socket}` unavailable ({e}); constructing locally")
            }
        }
    }
    match args.get("cache-dir") {
        None => {
            if args.switch("mmap") {
                return Err(CliError::Run(
                    "--mmap loads from an ATSS cache; pass --cache-dir <dir> with it".to_string(),
                ));
            }
            emit_findings_if(true);
            let (space, report) = build_search_space_with(spec, method, options)
                .map_err(|e| CliError::Run(format!("construction failed: {e}")))?;
            Ok((space, Some(report), None, None))
        }
        Some(dir) => {
            let store = SpaceStore::new(dir)
                .map_err(|e| CliError::Run(format!("cache at `{dir}`: {e}")))?;
            // Analyze unless an entry exists on disk, even one the store
            // then finds stale and rebuilds.
            emit_findings_if(
                store
                    .entry_for(spec, method.default_lowering())
                    .map_or(true, |entry| !entry.exists),
            );
            let load = if args.switch("mmap") {
                LoadOptions::mmap_trusted()
            } else {
                LoadOptions::default()
            };
            let (space, outcome) = store
                .get_or_build_with_options(spec, method, options, load)
                .map_err(|e| CliError::Run(format!("cache at `{dir}`: {e}")))?;
            Ok((space, outcome.report.clone(), Some((outcome, store)), None))
        }
    }
}

/// Implicit analyzer run for `construct`/`tune` (see [`obtain_space`]):
/// findings go to stderr and never block the command (use `atss check`
/// for gating).
fn emit_check_warnings(spec: &SearchSpaceSpec) {
    let report = at_check::check_spec(spec);
    if !report.is_clean() {
        eprint!("{}", report.render());
    }
}

/// Render the `cache:` lines of the summary format.
fn cache_summary_lines(out: &mut String, outcome: &StoreOutcome, store: &SpaceStore) {
    let status = match &outcome.status {
        CacheStatus::Hit => format!("hit (warm load in {:.3?})", outcome.duration),
        CacheStatus::Miss => format!(
            "miss (constructed and persisted in {:.3?})",
            outcome.duration
        ),
        CacheStatus::Uncacheable(reason) => format!("uncacheable ({reason})"),
    };
    writeln!(out, "cache:                {status}").expect("write to string");
    if let Some(load) = &outcome.load {
        writeln!(out, "cache load:           {}", load.describe()).expect("write to string");
    }
    writeln!(
        out,
        "cache fingerprint:    {}",
        outcome
            .fingerprint
            .map_or_else(|| "-".to_string(), |fp| fp.to_hex())
    )
    .expect("write to string");
    match &outcome.path {
        Some(path) => writeln!(
            out,
            "cache file:           {} ({} bytes on disk)",
            path.display(),
            outcome.file_bytes
        )
        .expect("write to string"),
        None => writeln!(out, "cache file:           -").expect("write to string"),
    }
    writeln!(
        out,
        "cache stats:          {}",
        store.metrics().summary_line()
    )
    .expect("write to string");
}

/// How the space reached the command, as a stable label for the JSON
/// envelopes: `cold` (no cache), `miss`, `hit`, `hit-zero-copy`,
/// `uncacheable`, or `daemon-warm` / `daemon-validated` / `daemon-built`
/// / `daemon-coalesced` when a space-server resolved it.
fn cache_source_label(
    outcome: &Option<(StoreOutcome, SpaceStore)>,
    daemon: &Option<DaemonServed>,
) -> &'static str {
    if let Some(served) = daemon {
        return served.source_label();
    }
    match outcome {
        Some((o, _)) if o.status.is_hit() => {
            if o.load.as_ref().is_some_and(|l| l.is_zero_copy()) {
                "hit-zero-copy"
            } else {
                "hit"
            }
        }
        Some((o, _)) if matches!(o.status, CacheStatus::Miss) => "miss",
        Some(_) => "uncacheable",
        None => "cold",
    }
}

/// The output of a one-line `--json` command: `doc` on one line, with the
/// `atss.metrics.v1` envelope (when `--metrics` was passed) as its last
/// field, `observability`.
fn json_line(mut doc: Json, envelope: Option<Json>) -> String {
    if let Some(env) = envelope {
        doc.push("observability", env);
    }
    format!("{doc}\n")
}

/// Append the `atss.metrics.v1` envelope as the final output line (the
/// `--metrics` contract for human-format and JSONL commands).
pub(crate) fn append_metrics(mut out: String, envelope: Option<Json>) -> String {
    if let Some(env) = envelope {
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        writeln!(out, "{env}").expect("write to string");
    }
    out
}

/// The `construct --json` DTO, schema `atss.construct.v1`.
fn construct_json(
    spec: &SearchSpaceSpec,
    method: Method,
    space: &SearchSpace,
    report: &Option<BuildReport>,
    outcome: &Option<(StoreOutcome, SpaceStore)>,
    daemon: &Option<DaemonServed>,
) -> Json {
    let arena_bytes = std::mem::size_of_val(space.arena());
    Json::obj()
        .with("schema", "atss.construct.v1")
        .with("space", spec.name.as_str())
        .with("method", method.label())
        .with(
            "cartesian",
            u64::try_from(spec.cartesian_size()).unwrap_or(u64::MAX),
        )
        .with("valid", space.len())
        .with(
            "construction_ms",
            report.as_ref().map(|r| r.duration.as_secs_f64() * 1_000.0),
        )
        .with(
            "constraint_checks",
            report.as_ref().map(|r| r.stats.constraint_checks),
        )
        .with("arena_bytes", arena_bytes)
        .with("cache_source", cache_source_label(outcome, daemon))
}

/// `atss construct`
pub fn construct(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&[
        "workload",
        "spec",
        "method",
        "format",
        "out",
        "cache-dir",
        "daemon",
        "trace",
        "mmap",
        "prune",
        "json",
        "metrics",
    ])?;
    let obs = ObsSession::begin(args);
    let spec = resolve_spec(args)?;
    let method = resolve_method(args)?;
    let (space, report, outcome, served) = obtain_space(args, &spec, method, true)?;

    // The traced window is the pipeline itself (parse -> check -> lower ->
    // solve -> encode -> store); rendering and export are outside it.
    let mut sections: Vec<(&'static str, Json)> = Vec::new();
    if let Some(report) = &report {
        sections.push(("solve", solve_section(report)));
    }
    if let Some((_, store)) = &outcome {
        sections.push(("store", store.metrics().to_json()));
    }
    let envelope = obs.finish("construct", sections)?;

    let format = args.get("format").unwrap_or("summary");

    // Space-proportional exports going to a file stream through the
    // `io::Write` writers — the file never exists as one in-memory String.
    if let (Some(path), "csv" | "json") = (args.get("out"), format) {
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
        let mut out = std::io::BufWriter::new(file);
        let result = match format {
            "csv" => at_searchspace::write_csv(&space, &mut out),
            _ => at_searchspace::write_json_cache(&space, &mut out),
        }
        .and_then(|()| std::io::Write::flush(&mut out));
        result.map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
        if args.switch("json") {
            let doc = construct_json(&spec, method, &space, &report, &outcome, &served);
            return Ok(json_line(doc, envelope));
        }
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        return Ok(append_metrics(
            format!(
                "wrote {bytes} bytes ({} configurations) to {path}\n",
                space.len()
            ),
            envelope,
        ));
    }

    // Robot mode: the one-line envelope replaces the stdout rendering.
    if args.switch("json") {
        let doc = construct_json(&spec, method, &space, &report, &outcome, &served);
        return Ok(json_line(doc, envelope));
    }

    let rendered = match format {
        "count" => format!("{}\n", space.len()),
        "csv" => to_csv(&space),
        "json" => to_json_cache(&space),
        "summary" => {
            let characteristics = SpaceCharacteristics::compute(&spec, &space);
            let mut out = String::new();
            writeln!(out, "space:                {}", spec.name).expect("write to string");
            writeln!(out, "method:               {}", method.label()).expect("write to string");
            match &report {
                Some(report) => {
                    writeln!(out, "construction time:    {:?}", report.duration)
                        .expect("write to string");
                }
                None => writeln!(out, "construction time:    none (cache hit)")
                    .expect("write to string"),
            }
            writeln!(out, "cartesian size:       {}", spec.cartesian_size())
                .expect("write to string");
            writeln!(out, "valid configurations: {}", space.len()).expect("write to string");
            writeln!(
                out,
                "valid fraction:       {:.3} %",
                characteristics.percent_valid
            )
            .expect("write to string");
            if let Some(report) = &report {
                writeln!(
                    out,
                    "constraints (as written / after lowering): {} / {}",
                    spec.num_restrictions(),
                    report.num_constraints
                )
                .expect("write to string");
                writeln!(
                    out,
                    "constraint checks:    {}",
                    report.stats.constraint_checks
                )
                .expect("write to string");
            }
            // The resolved arena footprint; construction streams solver
            // rows straight into it, so no decoded copy of the space is
            // ever held alongside.
            writeln!(
                out,
                "rank arena:           {} bytes ({} configs x one u64 rank)",
                std::mem::size_of_val(space.arena()),
                space.len(),
            )
            .expect("write to string");
            if let Some((outcome, store)) = &outcome {
                cache_summary_lines(&mut out, outcome, store);
            }
            if let Some(served) = &served {
                served.summary_lines(&mut out);
            }
            out
        }
        other => {
            return Err(CliError::Run(format!(
                "unknown format `{other}` (count, summary, csv, json)"
            )))
        }
    };

    match args.get("out") {
        None => Ok(append_metrics(rendered, envelope)),
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
            Ok(append_metrics(
                format!(
                    "wrote {} bytes ({} configurations) to {path}\n",
                    rendered.len(),
                    space.len()
                ),
                envelope,
            ))
        }
    }
}

/// One JSONL line for `check --json`.
fn check_json(d: &at_check::Diagnostic) -> Json {
    Json::obj()
        .with("code", d.code.as_str())
        .with("severity", d.severity().label())
        .with("message", d.message.as_str())
        .with("restriction", d.restriction)
        .with("source", d.source.as_deref())
        .with(
            "span",
            d.span
                .map(|s| Json::obj().with("start", s.start).with("end", s.end)),
        )
        .with("help", d.help.as_deref())
}

/// `doc` with the report's counts appended: the envelope's `check`
/// section, and the tail of the `atss.check.v1` summary line.
fn with_check_counts(doc: Json, report: &at_check::CheckReport) -> Json {
    doc.with("restrictions", report.verdicts.len())
        .with("errors", report.num_errors())
        .with("warnings", report.num_warnings())
        .with("prunable_values", report.num_prunable_values())
}

/// `atss check`
pub fn check(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&["workload", "spec", "trace", "json", "metrics"])?;
    let obs = ObsSession::begin(args);
    let spec = resolve_spec(args)?;
    let report = at_check::check_spec(&spec);
    let section = with_check_counts(Json::obj(), &report);
    let envelope = obs.finish("check", vec![("check", section)])?;

    if args.switch("json") {
        // Machine output mirrors `cache verify --json`: one object per
        // diagnostic plus a summary line, problems reported in-band so
        // every line stays parseable JSON — consumers check `errors`,
        // not the exit code.
        let mut out = String::new();
        for d in &report.diagnostics {
            writeln!(out, "{}", check_json(d)).expect("write to string");
        }
        let summary = Json::obj()
            .with("schema", "atss.check.v1")
            .with("summary", true)
            .with("spec", report.spec_name.as_str());
        writeln!(out, "{}", with_check_counts(summary, &report)).expect("write to string");
        return Ok(append_metrics(out, envelope));
    }
    // Human mode: error-severity findings fail the command (exit 1) so
    // the self-check gates can rely on the exit code.
    let rendered = report.render();
    if report.has_errors() {
        Err(CliError::Run(rendered))
    } else {
        Ok(append_metrics(rendered, envelope))
    }
}

/// `atss compare`
pub fn compare(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&["workload", "spec", "methods", "trace", "json", "metrics"])?;
    let obs = ObsSession::begin(args);
    let spec = resolve_spec(args)?;
    let methods: Vec<Method> = match args.get("methods") {
        None => vec![Method::Optimized, Method::ChainOfTrees, Method::Original],
        Some(list) => list
            .split(',')
            .map(|label| {
                Method::from_label(label.trim())
                    .ok_or_else(|| CliError::Run(format!("unknown method `{label}`")))
            })
            .collect::<Result<_, _>>()?,
    };

    let mut reports: Vec<BuildReport> = Vec::with_capacity(methods.len());
    let mut reference: Option<usize> = None;
    for method in &methods {
        let (space, report) = build_search_space(&spec, *method)
            .map_err(|e| CliError::Run(format!("{}: {e}", method.label())))?;
        if let Some(expected) = reference {
            if expected != space.len() {
                return Err(CliError::Run(format!(
                    "{} produced {} configurations, expected {expected}",
                    method.label(),
                    space.len()
                )));
            }
        } else {
            reference = Some(space.len());
        }
        reports.push(report);
    }

    let per_method: Vec<Json> = reports.iter().map(solve_section).collect();
    let envelope = obs.finish("compare", vec![("methods", Json::Arr(per_method.clone()))])?;

    if args.switch("json") {
        let doc = Json::obj()
            .with("schema", "atss.compare.v1")
            .with("space", spec.name.as_str())
            .with(
                "cartesian",
                u64::try_from(spec.cartesian_size()).unwrap_or(u64::MAX),
            )
            .with("valid", reference.unwrap_or(0))
            .with("methods", per_method);
        return Ok(json_line(doc, envelope));
    }

    let mut out = String::new();
    writeln!(out, "space: {}", spec.name).expect("write to string");
    writeln!(
        out,
        "{:<20} {:>14} {:>12} {:>18}",
        "method", "time", "valid", "constraint checks"
    )
    .expect("write to string");
    for report in &reports {
        writeln!(
            out,
            "{:<20} {:>14} {:>12} {:>18}",
            report.method.label(),
            format!("{:.3?}", report.duration),
            report.num_valid,
            report.stats.constraint_checks
        )
        .expect("write to string");
    }
    Ok(append_metrics(out, envelope))
}

/// `atss tune`
pub fn tune(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&[
        "workload",
        "strategy",
        "budget-ms",
        "method",
        "seed",
        "cache-dir",
        "daemon",
        "eval-threads",
        "construction-ms",
        "trace",
        "mmap",
        "prune",
        "json",
        "metrics",
    ])?;
    let obs = ObsSession::begin(args);
    let name = args.require("workload")?;
    let workload = real_world_by_name(name)
        .ok_or_else(|| CliError::Run(format!("unknown workload `{name}`")))?;
    let strategy_name = args.get("strategy").unwrap_or("random");
    let strategy = strategy_by_name(strategy_name)
        .ok_or_else(|| CliError::Run(format!("unknown strategy `{strategy_name}`")))?;
    let budget_ms: u64 = args
        .number("budget-ms", 30_000u64)
        .map_err(CliError::Args)?;
    let seed: u64 = args.number("seed", 42u64).map_err(CliError::Args)?;
    let eval_threads: usize = args
        .number("eval-threads", 1usize)
        .map_err(CliError::Args)?;
    if eval_threads == 0 {
        return Err(CliError::Run(
            "--eval-threads must be at least 1".to_string(),
        ));
    }
    let method = resolve_method(args)?;

    // The end-to-end loop accepts a pre-loaded space: with --cache-dir, a
    // warm load charges milliseconds (not a full construction) to the
    // virtual tuning budget — the production deployment the ROADMAP aims at.
    let (space, report, outcome, served) =
        obtain_space(args, &workload.spec, method, !args.switch("json"))?;
    // --construction-ms overrides the measured construction time with a
    // fixed virtual charge, making whole runs reproducible across process
    // invocations (the tune-smoke gate diffs two of them).
    let construction: Duration = match args.get("construction-ms") {
        Some(_) => {
            let ms: u64 = args
                .number("construction-ms", 0u64)
                .map_err(CliError::Args)?;
            Duration::from_millis(ms)
        }
        None => match (&outcome, &served) {
            (Some((outcome, _)), _) => outcome.duration,
            // Daemon-served: the budget is charged what acquisition
            // actually cost this process — resolve (including any build
            // wait) plus the O(header) attach.
            (None, Some(s)) => s.resolve_time + s.attach_time,
            (None, None) => report.as_ref().expect("built without cache").duration,
        },
    };
    let model = performance_model_for(&workload.spec.name, &space, seed);
    let run = tune_with_options(
        &space,
        &model,
        strategy.as_ref(),
        Duration::from_millis(budget_ms),
        construction,
        seed,
        EvalOptions::with_threads(eval_threads),
    );

    let cache_source = cache_source_label(&outcome, &served);

    let mut sections: Vec<(&'static str, Json)> = Vec::new();
    if let Some(report) = &report {
        sections.push(("solve", solve_section(report)));
    }
    if let Some((_, store)) = &outcome {
        sections.push(("store", store.metrics().to_json()));
    }
    sections.push(("eval", run.metrics.to_json()));
    let envelope = obs.finish("tune", sections)?;

    if args.switch("json") {
        let doc = tune_json(
            &workload.spec.name,
            method,
            seed,
            budget_ms,
            cache_source,
            &space,
            &run,
        );
        return Ok(json_line(doc, envelope));
    }

    let mut out = String::new();
    writeln!(out, "workload:           {}", workload.spec.name).expect("write to string");
    let source = match cache_source {
        "hit-zero-copy" => " [cache hit, zero-copy]",
        "hit" => " [cache hit]",
        "miss" => " [cache miss]",
        "daemon-warm" => " [daemon, warm]",
        "daemon-validated" => " [daemon, validated]",
        "daemon-built" => " [daemon, built]",
        "daemon-coalesced" => " [daemon, coalesced]",
        _ => "",
    };
    writeln!(
        out,
        "construction:       {} ({:?}){}",
        method.label(),
        construction,
        source
    )
    .expect("write to string");
    writeln!(out, "strategy:           {}", run.strategy).expect("write to string");
    writeln!(out, "budget:             {budget_ms} ms (virtual)").expect("write to string");
    writeln!(out, "eval threads:       {}", run.metrics.threads).expect("write to string");
    writeln!(out, "evaluations:        {}", run.num_evaluations()).expect("write to string");
    writeln!(out, "eval pipeline:      {}", run.metrics.summary_line()).expect("write to string");
    if run.metrics.rejected > 0 {
        writeln!(
            out,
            "rejected proposals: {} (ids outside the space)",
            run.metrics.rejected
        )
        .expect("write to string");
    }
    match run.best_evaluation() {
        Some(best) => {
            writeln!(
                out,
                "best runtime:       {:.3} ms (simulated)",
                best.runtime_ms
            )
            .expect("write to string");
            let rendered = space
                .view(best.config_index)
                .map(|v| {
                    v.to_vec()
                        .iter()
                        .zip(space.params())
                        .map(|(value, p)| format!("{}={}", p.name(), value))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_default();
            writeln!(
                out,
                "best configuration: #{} ({rendered})",
                best.config_index.index()
            )
            .expect("write to string");
        }
        None => writeln!(
            out,
            "best runtime:       none (budget exhausted by construction)"
        )
        .expect("write to string"),
    }
    Ok(append_metrics(out, envelope))
}

/// The `tune --json` DTO, schema `atss.tune.v1`. Everything a robot
/// consumer needs is in-band; for a fixed seed and construction charge the
/// object is identical across `--eval-threads` values except for the
/// `threads`/`fanout_*` metrics fields. Without `--metrics` the object
/// carries no wall-clock-dependent keys beyond `total_ms`.
fn tune_json(
    workload: &str,
    method: Method,
    seed: u64,
    budget_ms: u64,
    cache_source: &str,
    space: &SearchSpace,
    run: &TuningRun,
) -> Json {
    let best = run.best_evaluation();
    let best_config = best.and_then(|b| space.view(b.config_index)).map(|view| {
        view.values()
            .zip(space.params())
            .fold(Json::obj(), |doc, (value, p)| {
                doc.with(p.name(), json_value(value))
            })
    });
    let m = &run.metrics;
    let metrics = m
        .to_json()
        .with("cache_hit_ratio", m.cache_hit_ratio())
        .with("dedup_ratio", m.dedup_ratio())
        .with("fanout_utilization", m.fanout_utilization());
    Json::obj()
        .with("schema", "atss.tune.v1")
        .with("workload", workload)
        .with("strategy", run.strategy.as_str())
        .with("method", method.label())
        .with("seed", seed)
        .with("budget_ms", budget_ms)
        .with("construction_ms", run.construction_ms)
        .with("total_ms", run.total_ms)
        .with("evaluations", run.num_evaluations())
        .with("best_runtime_ms", best.map(|b| b.runtime_ms))
        .with("best_config_id", best.map(|b| b.config_index.index()))
        .with("best_config", best_config)
        .with("cache_source", cache_source)
        .with("metrics", metrics)
}

/// `atss capabilities`: machine-readable introspection of what this build
/// supports — one JSON object, schema `atss.capabilities.v1`. Robots use it
/// to discover methods, solvers, strategies, workloads, store features and
/// which commands speak `--json` without parsing help text.
pub fn capabilities(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&[])?;
    let methods: Vec<&str> = Method::all().iter().map(|m| m.label()).collect();
    let diagnostics: Json = at_check::Code::ALL
        .iter()
        .map(|c| {
            Json::obj()
                .with("code", c.as_str())
                .with("severity", c.severity().label())
        })
        .collect();
    let eval = Json::obj()
        .with("backends", ["performance-model"])
        .with("batched", true)
        .with("threads_flag", "--eval-threads");
    // The store reads exactly the version it writes; `min_read_version`
    // stays so the schema does not change.
    let store = Json::obj()
        .with("format_version", at_store::FORMAT_VERSION)
        .with("min_read_version", at_store::FORMAT_VERSION)
        .with(
            "features",
            [
                "content-addressed-cache",
                "mmap-zero-copy",
                "sorted-ranks",
                "crc-framing",
                "verify",
                "gc",
                "entry-pinning",
            ],
        );
    let daemon = Json::obj()
        .with("protocol", "ATSD")
        .with("protocol_version", u32::from(at_daemon::PROTOCOL_VERSION))
        .with("socket_flag", "--daemon")
        .with("subcommands", ["run", "status", "stop", "ping"])
        .with("client_subcommands", ["resolve", "ping"])
        .with("status_schema", "atss.daemon-status.v1");
    let observability = Json::obj()
        .with("trace_flag", "--trace")
        .with("metrics_flag", "--metrics")
        .with("trace_format", "chrome-trace-event")
        .with("metrics_schema", "atss.metrics.v1")
        .with(
            "commands",
            ["construct", "check", "compare", "tune", "cache"],
        );
    let doc = Json::obj()
        .with("schema", "atss.capabilities.v1")
        .with("name", "atss")
        .with("version", env!("CARGO_PKG_VERSION"))
        .with(
            "commands",
            [
                "workloads",
                "check",
                "construct",
                "compare",
                "tune",
                "cache",
                "trace-lint",
                "daemon",
                "client",
                "capabilities",
                "spec-template",
                "help",
            ],
        )
        .with("methods", methods)
        .with(
            "solvers",
            [
                "brute-force",
                "original",
                "optimized",
                "parallel",
                "blocking-clause",
            ],
        )
        .with("strategies", all_strategy_names().to_vec())
        .with("workloads", real_world_names().to_vec())
        .with(
            "neighbor_methods",
            ["hamming", "adjacent", "strictly-adjacent"],
        )
        .with("eval", eval)
        .with("store", store)
        .with("daemon", daemon)
        .with("check", Json::obj().with("diagnostics", diagnostics))
        .with("observability", observability)
        .with(
            "schemas",
            [
                "atss.capabilities.v1",
                "atss.construct.v1",
                "atss.compare.v1",
                "atss.check.v1",
                "atss.tune.v1",
                "atss.cache-verify.v1",
                "atss.daemon-status.v1",
                "atss.metrics.v1",
            ],
        )
        .with(
            "json_commands",
            [
                "check",
                "construct",
                "compare",
                "cache verify",
                "tune",
                "capabilities",
            ],
        );
    Ok(format!("{doc}\n"))
}

/// Open the store named by the required `--cache-dir` flag.
fn resolve_store(args: &ParsedArgs) -> Result<SpaceStore, CliError> {
    let dir = args.require("cache-dir")?;
    SpaceStore::new(dir).map_err(|e| CliError::Run(format!("cache at `{dir}`: {e}")))
}

/// `atss cache <ls|info|verify|gc>`
pub fn cache(args: &ParsedArgs) -> Result<String, CliError> {
    let action = args.positional.first().map(|s| s.as_str()).ok_or_else(|| {
        CliError::Run("usage: atss cache <ls|info|verify|gc> --cache-dir <dir>".to_string())
    })?;
    let obs = ObsSession::begin(args);
    let (out, store, command) = match action {
        "ls" => {
            let (out, store) = cache_ls(args)?;
            (out, store, "cache ls")
        }
        "info" => {
            let (out, store) = cache_info(args)?;
            (out, store, "cache info")
        }
        "verify" => {
            let (out, store) = cache_verify(args)?;
            (out, store, "cache verify")
        }
        "gc" => {
            let (out, store) = cache_gc(args)?;
            (out, store, "cache gc")
        }
        other => {
            return Err(CliError::Run(format!(
                "unknown cache action `{other}` (ls, info, verify, gc)"
            )))
        }
    };
    let envelope = obs.finish(command, vec![("store", store.metrics().to_json())])?;
    Ok(append_metrics(out, envelope))
}

fn cache_ls(args: &ParsedArgs) -> Result<(String, SpaceStore), CliError> {
    args.ensure_known_flags(&["cache-dir", "trace", "metrics"])?;
    let store = resolve_store(args)?;
    let entries = store.entries().map_err(|e| CliError::Run(e.to_string()))?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<32} {:<16} {:>10} {:>8} {:>12} {:>4}",
        "fingerprint", "space", "configs", "params", "bytes", "ver"
    )
    .expect("write to string");
    let mut total: u64 = 0;
    for entry in &entries {
        let (name, rows, params, version) = match &entry.info {
            Some(info) => (
                info.name.clone(),
                info.num_rows.to_string(),
                info.num_params.to_string(),
                info.version.to_string(),
            ),
            None => (
                "<unreadable>".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ),
        };
        writeln!(
            out,
            "{:<32} {:<16} {:>10} {:>8} {:>12} {:>4}",
            entry.fingerprint.to_hex(),
            name,
            rows,
            params,
            entry.bytes,
            version
        )
        .expect("write to string");
        total += entry.bytes;
    }
    writeln!(out, "\n{} entries, {} bytes", entries.len(), total).expect("write to string");
    Ok((out, store))
}

fn cache_info(args: &ParsedArgs) -> Result<(String, SpaceStore), CliError> {
    args.ensure_known_flags(&[
        "cache-dir",
        "workload",
        "spec",
        "method",
        "trace",
        "mmap",
        "metrics",
    ])?;
    let store = resolve_store(args)?;
    let spec = resolve_spec(args)?;
    let method = resolve_method(args)?;
    let entry = store
        .entry_for(&spec, method.default_lowering())
        .map_err(|e| CliError::Run(e.to_string()))?;
    let (fingerprint, path) = (entry.fingerprint, entry.path);

    let mut out = String::new();
    writeln!(out, "space:        {}", spec.name).expect("write to string");
    writeln!(out, "method:       {}", method.label()).expect("write to string");
    writeln!(out, "fingerprint:  {}", fingerprint.to_hex()).expect("write to string");
    writeln!(out, "entry:        {}", path.display()).expect("write to string");
    // Pins are per-process (a space-server pins entries it has handed
    // out); in a one-shot CLI invocation this is almost always "no",
    // but the line keeps the daemon's `status` and this view congruent.
    writeln!(
        out,
        "pinned:       {}",
        if store.is_pinned(&fingerprint) {
            "yes (gc will skip this entry)"
        } else {
            "no"
        }
    )
    .expect("write to string");
    if entry.exists {
        match at_store::peek_info(&path) {
            Ok(info) => {
                writeln!(out, "cached:       yes (format v{})", info.version)
                    .expect("write to string");
                writeln!(
                    out,
                    "contents:     {} configs x {} params, {} bytes on disk",
                    info.num_rows, info.num_params, info.file_bytes
                )
                .expect("write to string");
                if args.switch("mmap") {
                    let start = std::time::Instant::now();
                    let loaded = at_store::load_space_from_path(&path, LoadOptions::mmap_trusted())
                        .map_err(|e| CliError::Run(e.to_string()))?;
                    writeln!(
                        out,
                        "mmap load:    {} configs in {:.3?} ({})",
                        loaded.space.len(),
                        start.elapsed(),
                        loaded.report.describe()
                    )
                    .expect("write to string");
                }
            }
            Err(e) => {
                writeln!(out, "cached:       damaged ({e})").expect("write to string");
            }
        }
    } else {
        writeln!(out, "cached:       no").expect("write to string");
    }
    Ok((out, store))
}

/// One JSONL line for `cache verify --json`.
fn verify_json(entry: &StoreEntry, error: Option<&StoreError>) -> Json {
    Json::obj()
        .with("fingerprint", entry.fingerprint.to_hex())
        .with("path", entry.path.display().to_string())
        .with("bytes", entry.bytes)
        .with("rows", entry.info.as_ref().map(|info| info.num_rows))
        .with("status", if error.is_none() { "ok" } else { "damaged" })
        .with("error", error.map(|e| e.to_string()))
}

fn cache_verify(args: &ParsedArgs) -> Result<(String, SpaceStore), CliError> {
    args.ensure_known_flags(&["cache-dir", "trace", "json", "metrics"])?;
    let store = resolve_store(args)?;
    let results = store.verify().map_err(|e| CliError::Run(e.to_string()))?;
    if args.switch("json") {
        // Machine output: one object per entry, then a summary object.
        // Damage is reported in-band (status/error fields and the summary
        // count) so every line stays parseable JSON; consumers check
        // `damaged`, not the exit code.
        let mut out = String::new();
        let damaged = results.iter().filter(|(_, e)| e.is_some()).count();
        for (entry, error) in &results {
            writeln!(out, "{}", verify_json(entry, error.as_ref())).expect("write to string");
        }
        let summary = Json::obj()
            .with("schema", "atss.cache-verify.v1")
            .with("summary", true)
            .with("checked", results.len())
            .with("damaged", damaged);
        writeln!(out, "{summary}").expect("write to string");
        return Ok((out, store));
    }
    let mut out = String::new();
    let mut damaged = 0usize;
    for (entry, error) in &results {
        match error {
            None => writeln!(out, "OK      {}", entry.fingerprint.to_hex()),
            Some(e) => {
                damaged += 1;
                writeln!(out, "DAMAGED {}: {e}", entry.fingerprint.to_hex())
            }
        }
        .expect("write to string");
    }
    if damaged > 0 {
        return Err(CliError::Run(format!(
            "{out}{damaged} of {} cache entries are damaged (a rebuild will repair them on \
             next use, or `cache gc` can evict them)",
            results.len()
        )));
    }
    writeln!(out, "all {} entries verified", results.len()).expect("write to string");
    Ok((out, store))
}

fn cache_gc(args: &ParsedArgs) -> Result<(String, SpaceStore), CliError> {
    args.ensure_known_flags(&["cache-dir", "max-bytes", "max-entries", "trace", "metrics"])?;
    let store = resolve_store(args)?;
    let max_bytes: u64 = args.number("max-bytes", u64::MAX).map_err(CliError::Args)?;
    let max_entries: usize = args
        .number("max-entries", usize::MAX)
        .map_err(CliError::Args)?;
    let report = store
        .gc_with(GcOptions {
            max_bytes,
            max_entries,
        })
        .map_err(|e| CliError::Run(e.to_string()))?;
    // The summary line carries the store's lifetime counters — including
    // the gc evictions this run just performed.
    let out = format!(
        "evicted {} entries ({} -> {} bytes), {} kept, {} pinned (skipped)\ncache stats: {}\n",
        report.evicted,
        report.bytes_before,
        report.bytes_after,
        report.kept,
        report.pinned_skipped,
        store.metrics().summary_line()
    );
    Ok((out, store))
}

/// `atss trace-lint <file>`: structural validation of a `--trace` export.
///
/// Checks the contract the Chrome trace-event exporter promises (and the
/// obs-smoke gate and schema tests rely on): the file is a JSON array;
/// every event carries `ph`/`pid`/`tid`/`name`; complete events (`X`)
/// carry `cat`, a numeric `ts` and `dur`, with `ts` monotonically
/// non-decreasing per thread; instants (`i`) carry thread scope
/// (`"s":"t"`); metadata (`M`) events carry an `args.name`, and exactly
/// the process itself is named. Exit code 1 on any violation.
pub fn trace_lint(args: &ParsedArgs) -> Result<String, CliError> {
    args.ensure_known_flags(&[])?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Run("usage: atss trace-lint <trace.json>".to_string()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
    let doc: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| CliError::Run(format!("trace-lint: `{path}` is not valid JSON: {e}")))?;
    let events = doc
        .as_array()
        .ok_or_else(|| CliError::Run("trace-lint: top level must be a JSON array".to_string()))?;

    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut metadata = 0usize;
    let mut process_named = false;
    let mut threads = std::collections::BTreeSet::new();
    let mut last_ts: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| {
            event
                .get(key)
                .ok_or_else(|| CliError::Run(format!("trace-lint: event {i}: missing `{key}`")))
        };
        let str_field = |key: &str| {
            field(key)?.as_str().map(str::to_string).ok_or_else(|| {
                CliError::Run(format!("trace-lint: event {i}: `{key}` must be a string"))
            })
        };
        let num_field = |key: &str| {
            field(key)?.as_f64().ok_or_else(|| {
                CliError::Run(format!("trace-lint: event {i}: `{key}` must be a number"))
            })
        };
        let ph = str_field("ph")?;
        let name = str_field("name")?;
        field("pid")?;
        let tid = field("tid")?.as_i64().ok_or_else(|| {
            CliError::Run(format!("trace-lint: event {i}: `tid` must be an integer"))
        })?;
        match ph.as_str() {
            "M" => {
                metadata += 1;
                let labeled = event.get("args").and_then(|a| a.get("name"));
                if labeled.and_then(|n| n.as_str()).is_none() {
                    return Err(CliError::Run(format!(
                        "trace-lint: event {i}: metadata without args.name"
                    )));
                }
                if name == "process_name" {
                    process_named = true;
                }
            }
            "X" => {
                spans += 1;
                threads.insert(tid);
                str_field("cat")?;
                let ts = num_field("ts")?;
                num_field("dur")?;
                if let Some(prev) = last_ts.get(&tid) {
                    if ts < *prev {
                        return Err(CliError::Run(format!(
                            "trace-lint: event {i}: timestamps not monotone on tid {tid} \
                             ({ts} after {prev})"
                        )));
                    }
                }
                last_ts.insert(tid, ts);
            }
            "i" => {
                instants += 1;
                threads.insert(tid);
                str_field("cat")?;
                num_field("ts")?;
                if str_field("s")? != "t" {
                    return Err(CliError::Run(format!(
                        "trace-lint: event {i}: instant without thread scope"
                    )));
                }
            }
            other => {
                return Err(CliError::Run(format!(
                    "trace-lint: event {i}: unknown phase `{other}`"
                )))
            }
        }
    }
    if !process_named {
        return Err(CliError::Run(
            "trace-lint: no process_name metadata event".to_string(),
        ));
    }
    Ok(format!(
        "trace OK: {path}: {} events ({spans} spans, {instants} instants, {metadata} metadata) \
         across {} thread(s)\n",
        events.len(),
        threads.len().max(1)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn parsed(args: &[&str]) -> ParsedArgs {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn resolve_spec_requires_a_source() {
        assert!(resolve_spec(&parsed(&["construct"])).is_err());
        assert!(resolve_spec(&parsed(&[
            "construct",
            "--workload",
            "gemm",
            "--spec",
            "x.json"
        ]))
        .is_err());
        let spec = resolve_spec(&parsed(&["construct", "--workload", "gemm"])).unwrap();
        assert_eq!(spec.name, "GEMM");
    }

    #[test]
    fn resolve_spec_reads_files() {
        let dir = std::env::temp_dir().join("at-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("space.json");
        std::fs::write(&path, spec_template()).unwrap();
        let spec = resolve_spec(&parsed(&["construct", "--spec", path.to_str().unwrap()])).unwrap();
        assert_eq!(spec.name, "example");
        assert!(resolve_spec(&parsed(&["construct", "--spec", "/no/such/file.json"])).is_err());
    }

    #[test]
    fn resolve_method_defaults_to_optimized() {
        assert_eq!(
            resolve_method(&parsed(&["construct"])).unwrap(),
            Method::Optimized
        );
        assert_eq!(
            resolve_method(&parsed(&["construct", "--method", "chain-of-trees"])).unwrap(),
            Method::ChainOfTrees
        );
        assert!(resolve_method(&parsed(&["construct", "--method", "nope"])).is_err());
    }

    #[test]
    fn construct_csv_and_count_formats() {
        let count = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "count",
        ]))
        .unwrap();
        let n: usize = count.trim().parse().unwrap();
        assert!(n > 1000);
        let csv = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
        ]))
        .unwrap();
        assert_eq!(csv.lines().count(), n + 1); // header + one line per config
        assert!(csv.lines().next().unwrap().contains("block_size_x"));
    }

    #[test]
    fn construct_writes_output_files() {
        let dir = std::env::temp_dir().join("at-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dedispersion.json");
        let msg = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "json",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("wrote"));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("configurations"));
    }

    #[test]
    fn compare_rejects_unknown_methods() {
        assert!(compare(&parsed(&[
            "compare",
            "--workload",
            "dedispersion",
            "--methods",
            "optimized,warp-drive"
        ]))
        .is_err());
    }

    #[test]
    fn unknown_flag_is_caught_per_command() {
        assert!(construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--formt",
            "count"
        ]))
        .is_err());
        // A switch the command does not read is an error, not a no-op.
        let rejects = |result: Result<String, CliError>, flag: &str| match result {
            Err(CliError::Args(crate::args::ArgError::UnknownFlag(f))) => assert_eq!(f, flag),
            other => panic!("--{flag} was accepted: {other:?}"),
        };
        rejects(workloads(&parsed(&["workloads", "--json"])), "json");
        rejects(
            cache(&parsed(&[
                "cache",
                "ls",
                "--cache-dir",
                "/nonexistent",
                "--json",
            ])),
            "json",
        );
        rejects(
            check(&parsed(&["check", "--workload", "gemm", "--mmap"])),
            "mmap",
        );
    }

    fn fresh_cache_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("at-cli-cache-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn construct_with_cache_dir_misses_then_hits() {
        let dir = fresh_cache_dir("construct");
        let cold = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        assert!(cold.contains("cache:"), "{cold}");
        assert!(cold.contains("miss"), "{cold}");
        assert!(cold.contains("cache fingerprint:"), "{cold}");

        let warm = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        assert!(warm.contains("hit"), "{warm}");
        assert!(warm.contains("bytes on disk"), "{warm}");

        // The served space is identical either way.
        let direct = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
        ]))
        .unwrap();
        let cached = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        assert_eq!(direct, cached);
    }

    #[test]
    fn cache_subcommands_cover_the_lifecycle() {
        let dir = fresh_cache_dir("lifecycle");
        construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();

        let ls = cache(&parsed(&["cache", "ls", "--cache-dir", &dir])).unwrap();
        assert!(ls.contains("Dedispersion"), "{ls}");
        assert!(ls.contains("1 entries"), "{ls}");

        let info = cache(&parsed(&[
            "cache",
            "info",
            "--cache-dir",
            &dir,
            "--workload",
            "dedispersion",
        ]))
        .unwrap();
        assert!(info.contains("cached:       yes"), "{info}");

        let verify = cache(&parsed(&["cache", "verify", "--cache-dir", &dir])).unwrap();
        assert!(verify.contains("all 1 entries verified"), "{verify}");

        let gc = cache(&parsed(&[
            "cache",
            "gc",
            "--cache-dir",
            &dir,
            "--max-bytes",
            "0",
        ]))
        .unwrap();
        assert!(gc.contains("evicted 1"), "{gc}");
        let ls = cache(&parsed(&["cache", "ls", "--cache-dir", &dir])).unwrap();
        assert!(ls.contains("0 entries"), "{ls}");
    }

    /// `cache verify --json` must emit one parseable JSON object per entry
    /// with the documented fields, plus a trailing summary object — for
    /// both clean and damaged caches (damage is reported in-band so every
    /// line stays valid JSONL).
    #[test]
    fn cache_verify_json_schema() {
        let dir = fresh_cache_dir("verify-json");
        construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();

        let check_schema = |output: &str, status: &str, has_error: bool| {
            let lines: Vec<&str> = output.lines().collect();
            assert_eq!(lines.len(), 2, "one entry + summary: {output}");
            let entry: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
            let fp = entry.get("fingerprint").unwrap().as_str().unwrap();
            assert_eq!(fp.len(), 32, "fingerprint is 32 hex chars: {fp}");
            let path = entry.get("path").unwrap().as_str().unwrap();
            assert!(path.ends_with(".atss"), "{path}");
            assert!(entry.get("bytes").unwrap().as_i64().unwrap() > 0);
            assert!(entry.get("rows").unwrap().as_i64().unwrap() > 0);
            assert_eq!(entry.get("status").unwrap().as_str().unwrap(), status);
            let error = entry.get("error").unwrap();
            assert_eq!(error.as_str().is_some(), has_error, "{error:?}");
            let summary: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
            assert_eq!(summary.get("checked").unwrap().as_i64().unwrap(), 1);
            assert_eq!(
                summary.get("damaged").unwrap().as_i64().unwrap(),
                i64::from(has_error)
            );
        };

        let clean = cache(&parsed(&["cache", "verify", "--cache-dir", &dir, "--json"])).unwrap();
        check_schema(&clean, "ok", false);

        // Damage the arena; the entry must flip to "damaged" with the
        // store error quoted, while the output stays line-by-line JSON.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&entry, &bytes).unwrap();
        let damaged = cache(&parsed(&["cache", "verify", "--cache-dir", &dir, "--json"])).unwrap();
        check_schema(&damaged, "damaged", true);
    }

    #[test]
    fn cache_verify_flags_damage() {
        let dir = fresh_cache_dir("verify-damage");
        construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        // Damage the single entry.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&entry, &bytes).unwrap();
        let err = cache(&parsed(&["cache", "verify", "--cache-dir", &dir])).unwrap_err();
        assert!(err.to_string().contains("DAMAGED"), "{err}");
    }

    /// This build reads only the store format version it writes: a cache
    /// entry in an older version is listed as unreadable, verified as
    /// damaged, and evicted like any other entry.
    #[test]
    fn a_v1_entry_is_unreadable_damaged_and_evictable() {
        let dir = fresh_cache_dir("v1-entry");
        std::fs::create_dir_all(&dir).unwrap();
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/v1-small.atss");
        let entry = std::path::Path::new(&dir).join("0123456789abcdef0123456789abcdef.atss");
        std::fs::copy(fixture, &entry).unwrap();

        let ls = cache(&parsed(&["cache", "ls", "--cache-dir", &dir])).unwrap();
        assert!(ls.contains("<unreadable>"), "{ls}");
        assert!(ls.contains("1 entries"), "{ls}");

        let verify = cache(&parsed(&["cache", "verify", "--cache-dir", &dir, "--json"])).unwrap();
        let line: serde_json::Value = serde_json::from_str(verify.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("status").unwrap().as_str(), Some("damaged"));
        let error = line.get("error").unwrap().as_str().unwrap();
        assert!(
            error.contains("unsupported ATSS format version 1"),
            "{error}"
        );

        let gc = cache(&parsed(&[
            "cache",
            "gc",
            "--cache-dir",
            &dir,
            "--max-entries",
            "0",
        ]))
        .unwrap();
        assert!(gc.contains("evicted 1"), "{gc}");
        assert!(!entry.exists());

        let out = capabilities(&parsed(&["capabilities"])).unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        let store = doc.get("store").unwrap();
        assert_eq!(
            store.get("min_read_version").unwrap().as_i64(),
            store.get("format_version").unwrap().as_i64()
        );
    }

    #[test]
    fn cache_requires_an_action_and_a_dir() {
        assert!(cache(&parsed(&["cache"])).is_err());
        assert!(cache(&parsed(&["cache", "frob", "--cache-dir", "/tmp/x"])).is_err());
        assert!(cache(&parsed(&["cache", "ls"])).is_err());
    }

    #[test]
    fn tune_json_schema() {
        let out = tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--strategy",
            "genetic",
            "--budget-ms",
            "2000",
            "--seed",
            "7",
            "--construction-ms",
            "0",
            "--json",
        ]))
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), "atss.tune.v1");
        assert_eq!(
            doc.get("workload").unwrap().as_str().unwrap(),
            "Dedispersion"
        );
        assert_eq!(
            doc.get("strategy").unwrap().as_str().unwrap(),
            "genetic-algorithm"
        );
        assert_eq!(doc.get("seed").unwrap().as_i64().unwrap(), 7);
        assert_eq!(doc.get("budget_ms").unwrap().as_i64().unwrap(), 2000);
        assert_eq!(doc.get("construction_ms").unwrap().as_f64().unwrap(), 0.0);
        assert!(doc.get("evaluations").unwrap().as_i64().unwrap() > 0);
        assert!(doc.get("best_runtime_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(doc.get("best_config_id").unwrap().as_i64().unwrap() >= 0);
        let config = doc.get("best_config").unwrap().as_object().unwrap();
        assert!(
            config.iter().any(|(k, _)| k == "block_size_x"),
            "{config:?}"
        );
        assert_eq!(doc.get("cache_source").unwrap().as_str().unwrap(), "cold");
        let metrics = doc.get("metrics").unwrap();
        for field in [
            "batches",
            "proposed",
            "measured",
            "cache_hits",
            "deduped",
            "rejected",
            "out_of_budget",
            "largest_batch",
            "threads",
            "fanout_batches",
            "fanout_thread_slots",
            "cache_hit_ratio",
            "dedup_ratio",
            "fanout_utilization",
        ] {
            assert!(metrics.get(field).is_some(), "missing metrics.{field}");
        }
        assert_eq!(metrics.get("rejected").unwrap().as_i64().unwrap(), 0);
        assert_eq!(metrics.get("threads").unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn tune_json_is_identical_across_eval_threads() {
        let run_with = |threads: &str| {
            tune(&parsed(&[
                "tune",
                "--workload",
                "dedispersion",
                "--strategy",
                "particle-swarm",
                "--budget-ms",
                "3000",
                "--seed",
                "13",
                "--construction-ms",
                "0",
                "--eval-threads",
                threads,
                "--json",
            ]))
            .unwrap()
        };
        let serial: serde_json::Value = serde_json::from_str(run_with("1").trim()).unwrap();
        let parallel: serde_json::Value = serde_json::from_str(run_with("4").trim()).unwrap();
        for field in [
            "evaluations",
            "best_runtime_ms",
            "best_config_id",
            "best_config",
            "total_ms",
        ] {
            assert_eq!(serial.get(field), parallel.get(field), "{field}");
        }
        // The work counters match too; only the fan-out bookkeeping differs.
        for field in ["proposed", "measured", "cache_hits", "deduped", "rejected"] {
            assert_eq!(
                serial.get("metrics").unwrap().get(field),
                parallel.get("metrics").unwrap().get(field),
                "metrics.{field}"
            );
        }
    }

    #[test]
    fn tune_rejects_zero_eval_threads() {
        let err = tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--eval-threads",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("eval-threads"), "{err}");
    }

    #[test]
    fn tune_human_summary_reports_the_eval_pipeline() {
        let out = tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--strategy",
            "genetic",
            "--budget-ms",
            "2000",
            "--seed",
            "3",
            "--eval-threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("eval threads:       2"), "{out}");
        assert!(out.contains("eval pipeline:"), "{out}");
        assert!(out.contains("best configuration: #"), "{out}");
    }

    #[test]
    fn capabilities_json_schema() {
        let out = capabilities(&parsed(&["capabilities"])).unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            "atss.capabilities.v1"
        );
        assert_eq!(doc.get("methods").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(doc.get("solvers").unwrap().as_array().unwrap().len(), 5);
        let strategies = doc.get("strategies").unwrap().as_array().unwrap();
        assert!(strategies.iter().any(|s| s.as_str() == Some("genetic")));
        assert_eq!(doc.get("workloads").unwrap().as_array().unwrap().len(), 8);
        let store = doc.get("store").unwrap();
        assert_eq!(
            store.get("format_version").unwrap().as_i64().unwrap(),
            i64::from(at_store::FORMAT_VERSION)
        );
        let diags = doc
            .get("check")
            .unwrap()
            .get("diagnostics")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(diags.len(), at_check::Code::ALL.len());
        assert_eq!(
            doc.get("eval")
                .unwrap()
                .get("threads_flag")
                .unwrap()
                .as_str()
                .unwrap(),
            "--eval-threads"
        );
        let json_commands = doc.get("json_commands").unwrap().as_array().unwrap();
        assert!(json_commands.iter().any(|c| c.as_str() == Some("tune")));
        assert!(json_commands
            .iter()
            .any(|c| c.as_str() == Some("construct")));
        assert!(json_commands.iter().any(|c| c.as_str() == Some("compare")));
        let obs = doc.get("observability").unwrap();
        assert_eq!(obs.get("trace_flag").unwrap().as_str(), Some("--trace"));
        assert_eq!(
            obs.get("metrics_schema").unwrap().as_str(),
            Some("atss.metrics.v1")
        );
        let schemas = doc.get("schemas").unwrap().as_array().unwrap();
        assert!(schemas
            .iter()
            .any(|s| s.as_str() == Some("atss.metrics.v1")));
        assert!(schemas
            .iter()
            .any(|s| s.as_str() == Some("atss.daemon-status.v1")));
        let commands = doc.get("commands").unwrap().as_array().unwrap();
        assert!(commands.iter().any(|c| c.as_str() == Some("daemon")));
        assert!(commands.iter().any(|c| c.as_str() == Some("client")));
        let daemon = doc.get("daemon").unwrap();
        assert_eq!(daemon.get("protocol").unwrap().as_str(), Some("ATSD"));
        assert_eq!(
            daemon.get("protocol_version").unwrap().as_i64().unwrap(),
            i64::from(at_daemon::PROTOCOL_VERSION)
        );
        assert_eq!(
            daemon.get("status_schema").unwrap().as_str(),
            Some("atss.daemon-status.v1")
        );
        let subcommands = daemon.get("subcommands").unwrap().as_array().unwrap();
        assert!(subcommands.iter().any(|s| s.as_str() == Some("run")));
        assert!(subcommands.iter().any(|s| s.as_str() == Some("status")));
        let features = doc
            .get("store")
            .unwrap()
            .get("features")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(features.iter().any(|f| f.as_str() == Some("entry-pinning")));
    }

    #[test]
    fn construct_with_mmap_reports_a_zero_copy_load() {
        let dir = fresh_cache_dir("mmap");
        construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        let warm = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
            "--mmap",
        ]))
        .unwrap();
        assert!(warm.contains("hit"), "{warm}");
        assert!(warm.contains("cache stats:"), "{warm}");
        if cfg!(target_os = "linux") {
            assert!(warm.contains("zero-copy (mmap)"), "{warm}");
            assert!(warm.contains("ranks trusted"), "{warm}");
        }

        // The zero-copy space exports byte-identically to the direct build.
        let direct = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
        ]))
        .unwrap();
        let mapped = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
            "--cache-dir",
            &dir,
            "--mmap",
        ]))
        .unwrap();
        assert_eq!(direct, mapped);
    }

    #[test]
    fn mmap_without_a_cache_dir_is_an_error() {
        let err = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--mmap",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--cache-dir"), "{err}");
    }

    #[test]
    fn cache_info_reports_the_persisted_entry() {
        let dir = fresh_cache_dir("info-idx");
        construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        let info = cache(&parsed(&[
            "cache",
            "info",
            "--cache-dir",
            &dir,
            "--workload",
            "dedispersion",
            "--mmap",
        ]))
        .unwrap();
        assert!(info.contains("format v3"), "{info}");
        assert!(info.contains("2793 configs x 8 params"), "{info}");
        assert!(info.contains("mmap load:"), "{info}");
        let ls = cache(&parsed(&["cache", "ls", "--cache-dir", &dir])).unwrap();
        assert!(ls.contains("Dedispersion"), "{ls}");
        assert!(!ls.contains("idx"), "{ls}");
    }

    #[test]
    fn cache_gc_enforces_max_entries() {
        let dir = fresh_cache_dir("gc-entries");
        for workload in ["dedispersion", "hotspot"] {
            construct(&parsed(&[
                "construct",
                "--workload",
                workload,
                "--cache-dir",
                &dir,
            ]))
            .unwrap();
        }
        let gc = cache(&parsed(&[
            "cache",
            "gc",
            "--cache-dir",
            &dir,
            "--max-entries",
            "1",
        ]))
        .unwrap();
        assert!(gc.contains("evicted 1"), "{gc}");
        assert!(gc.contains("1 kept"), "{gc}");
    }

    #[test]
    fn tune_with_cache_dir_reports_the_source() {
        let dir = fresh_cache_dir("tune");
        let first = tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--budget-ms",
            "1000",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        assert!(first.contains("[cache miss]"), "{first}");
        let second = tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--budget-ms",
            "1000",
            "--cache-dir",
            &dir,
        ]))
        .unwrap();
        assert!(second.contains("[cache hit]"), "{second}");
        assert!(second.contains("best runtime"), "{second}");
    }

    #[test]
    fn tune_with_unknown_strategy_fails() {
        assert!(tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--strategy",
            "astrology"
        ]))
        .is_err());
    }

    #[test]
    fn check_reports_clean_and_warning_workloads() {
        let clean = check(&parsed(&["check", "--workload", "dedispersion"])).unwrap();
        assert!(clean.contains("0 error(s), 0 warning(s)"), "{clean}");

        // GEMM's paper-verbatim restrictions carry known benign warnings;
        // warnings alone must not fail the command.
        let gemm = check(&parsed(&["check", "--workload", "gemm"])).unwrap();
        assert!(gemm.contains("AT0003"), "{gemm}");
        assert!(gemm.contains("AT0006"), "{gemm}");
        assert!(gemm.contains("0 error(s), 4 warning(s)"), "{gemm}");
    }

    #[test]
    fn check_exits_nonzero_on_error_diagnostics() {
        // A restriction referencing a misspelled parameter is an AT0001
        // error; human mode must fail so gates can use the exit code.
        let dir = std::env::temp_dir().join("at-cli-check-typo");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("typo.json");
        let json = spec_template().replace("work_per_thread <=", "work_per_thrd <=");
        std::fs::write(&path, json).unwrap();

        let err = check(&parsed(&["check", "--spec", path.to_str().unwrap()])).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("AT0001"), "{text}");
        assert!(text.contains("work_per_thread"), "did-you-mean: {text}");

        // JSON mode reports the same problem in-band and succeeds.
        let json_out = check(&parsed(&[
            "check",
            "--spec",
            path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        assert!(json_out.contains("\"code\":\"AT0001\""), "{json_out}");
    }

    /// `check --json` must emit one parseable JSON object per diagnostic
    /// with the documented fields, plus a trailing summary object.
    #[test]
    fn check_json_schema() {
        let out = check(&parsed(&["check", "--workload", "gemm", "--json"])).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() >= 2, "diagnostics + summary: {out}");

        let is_null = |v: &serde_json::Value| *v == serde_json::Value::Null;
        for line in &lines[..lines.len() - 1] {
            let d: serde_json::Value = serde_json::from_str(line).unwrap();
            let code = d.get("code").unwrap().as_str().unwrap();
            assert!(
                code.starts_with("AT") && code.len() == 6,
                "stable code: {code}"
            );
            let severity = d.get("severity").unwrap().as_str().unwrap();
            assert!(matches!(severity, "error" | "warning"), "{severity}");
            assert!(d.get("message").unwrap().as_str().is_some());
            let restriction = d.get("restriction").unwrap();
            assert!(restriction.as_i64().is_some() || is_null(restriction));
            let source = d.get("source").unwrap();
            assert!(source.as_str().is_some() || is_null(source));
            let span = d.get("span").unwrap();
            if !is_null(span) {
                let start = span.get("start").unwrap().as_i64().unwrap();
                let end = span.get("end").unwrap().as_i64().unwrap();
                assert!(0 <= start && start <= end);
            }
            let help = d.get("help").unwrap();
            assert!(help.as_str().is_some() || is_null(help));
        }

        let summary: serde_json::Value = serde_json::from_str(lines[lines.len() - 1]).unwrap();
        assert_eq!(
            summary.get("schema").unwrap().as_str(),
            Some("atss.check.v1")
        );
        assert_eq!(
            summary.get("summary").unwrap(),
            &serde_json::Value::Bool(true)
        );
        assert_eq!(summary.get("spec").unwrap().as_str(), Some("GEMM"));
        assert_eq!(summary.get("restrictions").unwrap().as_i64(), Some(8));
        assert_eq!(summary.get("errors").unwrap().as_i64(), Some(0));
        assert_eq!(summary.get("warnings").unwrap().as_i64(), Some(4));
        assert!(summary.get("prunable_values").unwrap().as_i64().is_some());
    }

    /// Tests that flip the process-global recorder on serialize here, so
    /// concurrently running tests never drain each other's spans.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn construct_json_schema() {
        let out = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--json",
        ]))
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            "atss.construct.v1"
        );
        assert_eq!(doc.get("space").unwrap().as_str().unwrap(), "Dedispersion");
        assert_eq!(doc.get("method").unwrap().as_str().unwrap(), "optimized");
        assert!(doc.get("valid").unwrap().as_i64().unwrap() > 1000);
        assert!(doc.get("cartesian").unwrap().as_i64().unwrap() > 0);
        assert!(doc.get("construction_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(doc.get("constraint_checks").unwrap().as_i64().unwrap() > 0);
        assert!(doc.get("arena_bytes").unwrap().as_i64().unwrap() > 0);
        assert_eq!(doc.get("cache_source").unwrap().as_str().unwrap(), "cold");
        // The envelope only rides along when --metrics is passed.
        assert!(doc.get("observability").is_none());
    }

    #[test]
    fn compare_json_schema() {
        let out = compare(&parsed(&[
            "compare",
            "--workload",
            "dedispersion",
            "--methods",
            "optimized,chain-of-trees",
            "--json",
        ]))
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            "atss.compare.v1"
        );
        assert_eq!(doc.get("space").unwrap().as_str().unwrap(), "Dedispersion");
        let methods = doc.get("methods").unwrap().as_array().unwrap();
        assert_eq!(methods.len(), 2);
        for entry in methods {
            assert!(entry.get("method").unwrap().as_str().is_some());
            assert!(entry.get("duration_ms").unwrap().as_f64().unwrap() > 0.0);
            assert!(entry.get("valid").unwrap().as_i64().unwrap() > 1000);
        }
    }

    #[test]
    fn construct_metrics_envelope_and_trace_roundtrip() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("at-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("construct-trace.json");
        let out = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--metrics",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();

        // The envelope is the final output line.
        let envelope = out.lines().last().unwrap();
        let doc: serde_json::Value = serde_json::from_str(envelope).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str().unwrap(),
            "atss.metrics.v1"
        );
        assert_eq!(doc.get("command").unwrap().as_str().unwrap(), "construct");
        assert!(doc.get("spans").unwrap().as_i64().unwrap() > 0);
        let phases = doc.get("phases").unwrap().as_array().unwrap();
        let names: Vec<&str> = phases
            .iter()
            .map(|p| p.get("name").unwrap().as_str().unwrap())
            .collect();
        for expected in ["parse-spec", "check", "lower", "solve", "encode-finish"] {
            assert!(names.contains(&expected), "{expected} missing in {names:?}");
        }
        let solve = doc.get("solve").unwrap();
        assert!(solve.get("constraint_checks").unwrap().as_i64().unwrap() > 0);
        assert!(solve.get("valid").unwrap().as_i64().unwrap() > 1000);
        // The test binary does not install the counting allocator, and the
        // envelope says so rather than reporting a bogus zero peak.
        let alloc = doc.get("alloc").unwrap();
        assert_eq!(
            alloc.get("installed").unwrap(),
            &serde_json::Value::Bool(false)
        );

        // The trace file passes the tool's own structural linter.
        let lint = trace_lint(&parsed(&["trace-lint", trace.to_str().unwrap()])).unwrap();
        assert!(lint.contains("trace OK"), "{lint}");
    }

    #[test]
    fn tune_json_with_metrics_embeds_the_envelope() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = tune(&parsed(&[
            "tune",
            "--workload",
            "dedispersion",
            "--budget-ms",
            "1000",
            "--seed",
            "3",
            "--construction-ms",
            "0",
            "--json",
            "--metrics",
        ]))
        .unwrap();
        let doc: serde_json::Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), "atss.tune.v1");
        let obs = doc.get("observability").unwrap();
        assert_eq!(
            obs.get("schema").unwrap().as_str().unwrap(),
            "atss.metrics.v1"
        );
        assert_eq!(obs.get("command").unwrap().as_str().unwrap(), "tune");
        let eval = obs.get("eval").unwrap();
        assert!(eval.get("proposed").unwrap().as_i64().unwrap() > 0);
    }

    #[test]
    fn trace_lint_rejects_malformed_traces() {
        let dir = std::env::temp_dir().join("at-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();

        let not_array = dir.join("not-array.json");
        std::fs::write(&not_array, "{}").unwrap();
        let err = trace_lint(&parsed(&["trace-lint", not_array.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("array"), "{err}");

        let missing_ph = dir.join("missing-ph.json");
        std::fs::write(&missing_ph, r#"[{"name":"a","pid":1,"tid":0}]"#).unwrap();
        let err = trace_lint(&parsed(&["trace-lint", missing_ph.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("event 0"), "{err}");

        let non_monotone = dir.join("non-monotone.json");
        std::fs::write(
            &non_monotone,
            r#"[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"atss"}},
{"name":"a","cat":"c","ph":"X","ts":5.0,"dur":1.0,"pid":1,"tid":0},
{"name":"b","cat":"c","ph":"X","ts":3.0,"dur":1.0,"pid":1,"tid":0}]"#,
        )
        .unwrap();
        let err = trace_lint(&parsed(&["trace-lint", non_monotone.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("monotone"), "{err}");

        assert!(trace_lint(&parsed(&["trace-lint"])).is_err());
        assert!(trace_lint(&parsed(&["trace-lint", "/no/such/trace.json"])).is_err());
    }

    #[test]
    fn tracing_does_not_change_the_export() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("at-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("identity-trace.json");
        let plain = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
        ]))
        .unwrap();
        let traced = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(plain, traced, "--trace must not change the export");
    }

    #[test]
    fn construct_with_prune_matches_plain_construction() {
        let plain = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
        ]))
        .unwrap();
        let pruned = construct(&parsed(&[
            "construct",
            "--workload",
            "dedispersion",
            "--format",
            "csv",
            "--prune",
        ]))
        .unwrap();
        assert_eq!(plain, pruned, "--prune must not change the space");
    }
}
