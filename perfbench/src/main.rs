//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-dense|cold-sparse|warm-serve|tune-session> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` runs the end-to-end pass and
//! prints the end-to-end metrics; `--trace 1` runs it too, then the traced
//! pass, and prints the per-layer metrics. The last line of standard
//! output is the result object; the line before it records provenance.
//! Everything the run writes stays under `.perfbench/` in the working
//! directory. See `perfbench/README.md` for the workloads and metrics.

mod e2e;
mod ops;
mod stats;
mod traced;

use std::path::PathBuf;

use at_obs::json::Json;

use crate::e2e::{Workload, SETUP_REPS};
use crate::stats::{median, quartiles, tail};

#[global_allocator]
static ALLOC: at_obs::alloc::CountingAllocator = at_obs::alloc::CountingAllocator;

/// Parsed command line.
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> Json {
    let mut m = Json::obj();
    m.push("value", Json::F64(value));
    m.push("unit", Json::Str(unit.to_string()));
    m
}

/// The first line of a file, trimmed ("unknown" if unreadable).
fn read_first(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .map(|l| l.split_once(':').map_or(l, |(_, v)| v).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-daemon") {
        let result = match (args.get(1), args.get(2)) {
            (Some(socket), Some(cache)) => ops::serve_daemon(socket, cache),
            _ => Err("usage: perfbench serve-daemon <socket> <cache-dir>".to_string()),
        };
        if let Err(e) = result {
            eprintln!("perfbench daemon: {e}");
            std::process::exit(1);
        }
        return;
    }
    let code = match parse(&args).and_then(|options| run(&options)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run(o: &Options) -> Result<(), String> {
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    let traces = root.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
    let result = measure(o, &work, &traces);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(o: &Options, work: &std::path::Path, traces: &std::path::Path) -> Result<(), String> {
    // With tracing on, the end-to-end pass only feeds `cli.unattributed_ms`,
    // so it and the traced pass share the run's seconds.
    let seconds = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let e2e = e2e::run(o.workload, o.seed, seconds, o.trace, work)?;
    let layers = if o.trace {
        let path = traces.join(format!("{}-seed{}.json", o.workload.name(), o.seed));
        Some(traced::run(o.workload, o.seed, seconds, work, &e2e, &path)?)
    } else {
        None
    };

    let mut failures = e2e.failures.clone();
    let mut attempted = e2e.attempted;
    if let Some(l) = &layers {
        failures.extend(l.failures.iter().cloned());
        attempted += l.attempted;
    }
    for f in failures.iter().take(10) {
        eprintln!("perfbench: failed: {f}");
    }
    let failed = failures.len() as u64;

    let op_tail = tail(&e2e.op_ms);
    let mut metrics = Json::obj();
    match &layers {
        None => {
            metrics.push("setup_s", metric(median(&e2e.setup_s), "s"));
            metrics.push("op_p50_ms", metric(median(&e2e.op_ms), "ms"));
            metrics.push("op_tail_ms", metric(op_tail.value, "ms"));
            metrics.push(
                "commands_per_s",
                metric(e2e.commands as f64 / e2e.wall_s, "1/s"),
            );
            metrics.push("peak_heap_mb", metric(median(&e2e.heap_bytes) / 1e6, "MB"));
        }
        Some(l) => {
            for (name, value, unit) in &l.metrics {
                metrics.push(name, metric(*value, unit));
            }
            metrics.push(
                "failed_ratio",
                metric(failed as f64 / attempted.max(1) as f64, "fraction"),
            );
        }
    }

    // Provenance: the host, the build, and the samples behind each figure.
    let mut samples = Json::obj();
    samples.push("setup_repetitions", Json::U64(SETUP_REPS as u64));
    samples.push("operations", Json::U64(e2e.op_ms.len() as u64));
    samples.push("tail_percentile", Json::F64(op_tail.percentile));
    samples.push(
        "op_ms_quartiles",
        Json::Arr(quartiles(&e2e.op_ms).map(Json::F64).to_vec()),
    );
    samples.push("heap_samples", Json::U64(e2e.heap_bytes.len() as u64));
    samples.push("commands", Json::U64(e2e.commands));
    samples.push("loop_wall_s", Json::F64(e2e.wall_s));
    if o.workload == Workload::WarmServe {
        samples.push("daemon_construct_p50_ms", Json::F64(median(&e2e.daemon_ms)));
        samples.push("mmap_construct_p50_ms", Json::F64(median(&e2e.mmap_ms)));
    }
    if let Some(l) = &layers {
        samples.push("traced_rounds", Json::U64(l.rounds as u64));
        samples.push("trace_file", Json::Str(l.trace_path.display().to_string()));
    }
    let mut prov = Json::obj();
    prov.push("workload", Json::Str(o.workload.name().to_string()));
    prov.push("space", Json::Str(o.workload.space().to_string()));
    prov.push("seed", Json::U64(o.seed));
    prov.push("seconds", Json::F64(o.seconds));
    prov.push("trace", Json::Bool(o.trace));
    prov.push(
        "nproc",
        Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    prov.push(
        "cpu_model",
        Json::Str(read_first("/proc/cpuinfo", "model name")),
    );
    prov.push(
        "kernel",
        Json::Str(read_first("/proc/sys/kernel/osrelease", "")),
    );
    prov.push("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string()));
    prov.push("git_rev", Json::Str(env!("PERFBENCH_GIT_REV").to_string()));
    prov.push("samples", samples);
    let mut line = Json::obj();
    line.push("provenance", prov);
    println!("{line}");

    let mut result = Json::obj();
    result.push("correct", Json::Bool(failed == 0));
    result.push("attempted", Json::U64(attempted));
    result.push("failed", Json::U64(failed));
    result.push("metrics", metrics);
    println!("{result}");
    Ok(())
}
