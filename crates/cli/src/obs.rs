//! Observability plumbing for the CLI: the `--trace` and `--metrics` flags.
//!
//! Every pipeline command (`construct`, `check`, `compare`, `tune`, `cache`)
//! opens an [`ObsSession`] before it starts real work. When either flag is
//! present the session turns the process-wide [`at_obs`] recorder on, and at
//! the end of the command:
//!
//! - `--trace <file>` writes the drained spans as a Chrome trace-event JSON
//!   array ([`at_obs::trace::chrome_trace`]) loadable in Perfetto /
//!   `about://tracing` as-is;
//! - `--metrics` assembles the one-line `atss.metrics.v1` envelope: phase
//!   timers aggregated from the same spans, the peak-allocation probe, and
//!   whichever of the solver / store / eval counter sections the command
//!   produced.
//!
//! Without either flag the session is inert and the recorder stays disabled,
//! so the instrumented pipeline pays only the documented one-atomic-load
//! cost per span site. Enabling the recorder never changes what the pipeline
//! computes — only that its timing is written down (the `proptest_obs`
//! integration tests pin this down as byte-identity of exports and
//! trajectory-identity of tuning runs).

use at_obs::json::Json;
use at_searchspace::BuildReport;

use crate::args::ParsedArgs;
use crate::CliError;

/// One command's observability window: created first thing, finished (or
/// dropped) last. Owns the recorder while active so an early `?` return
/// cannot leave tracing enabled for the next command in a long-lived
/// process (the test harness, notably).
pub struct ObsSession {
    trace_path: Option<String>,
    metrics: bool,
    active: bool,
    /// The allocation window of a `--metrics` command; closing it (when
    /// the session drops) gives the host its outer high-water mark back.
    peak_window: Option<at_obs::alloc::PeakWindow>,
}

impl ObsSession {
    /// Start a session from a command's parsed flags. Enables the recorder
    /// (and clears any stale records) iff `--trace` or `--metrics` was
    /// passed.
    ///
    /// A `--metrics` command measures its own allocation peak in a nested
    /// [`at_obs::alloc::PeakWindow`]: the envelope reports only this
    /// command's peak, and when the session ends the process-wide
    /// high-water mark rises back to what it was before, if that was
    /// higher. So a host that measures the peak heap of several in-process
    /// commands in a row (a benchmark around `at_cli::run`) reads the peak
    /// of all of them, `--metrics` or not.
    pub fn begin(args: &ParsedArgs) -> ObsSession {
        let trace_path = args.get("trace").map(str::to_string);
        let metrics = args.switch("metrics");
        let active = trace_path.is_some() || metrics;
        if active {
            at_obs::enable();
            let _ = at_obs::drain();
        }
        ObsSession {
            trace_path,
            metrics,
            active,
            peak_window: metrics.then(at_obs::alloc::PeakWindow::open),
        }
    }

    /// Whether this session owns the recorder (either flag was passed).
    pub fn active(&self) -> bool {
        self.active
    }

    /// Close the session: disable the recorder, write the trace file when
    /// `--trace` was passed, and return the `atss.metrics.v1` envelope
    /// when `--metrics` was. A one-line `--json` command (`construct`,
    /// `compare`, `tune`) pushes it onto its object as the last field,
    /// `observability`; every other command prints it as its last line.
    ///
    /// `sections` are per-command counter objects (see [`solve_section`],
    /// `StoreMetrics::to_json`, `EvalMetrics::to_json`) appended to the
    /// envelope in order.
    pub fn finish(
        mut self,
        command: &str,
        sections: Vec<(&'static str, Json)>,
    ) -> Result<Option<Json>, CliError> {
        if !self.active {
            return Ok(None);
        }
        self.active = false;
        at_obs::disable();
        let records = at_obs::drain();
        if let Some(path) = &self.trace_path {
            std::fs::write(path, at_obs::trace::chrome_trace(&records))
                .map_err(|e| CliError::Run(format!("cannot write trace `{path}`: {e}")))?;
        }
        if !self.metrics {
            return Ok(None);
        }
        let mut doc = Json::obj();
        doc.push("schema", Json::Str("atss.metrics.v1".to_string()));
        doc.push("command", Json::Str(command.to_string()));
        doc.push("spans", Json::U64(records.len() as u64));
        let mut phases = Vec::new();
        for p in at_obs::phase_totals(&records) {
            let mut entry = Json::obj();
            entry.push("cat", Json::Str(p.cat.to_string()));
            entry.push("name", Json::Str(p.name.to_string()));
            entry.push("count", Json::U64(p.count));
            entry.push("total_us", Json::F64(p.total_ns as f64 / 1_000.0));
            entry.push("max_us", Json::F64(p.max_ns as f64 / 1_000.0));
            phases.push(entry);
        }
        doc.push("phases", Json::Arr(phases));
        let mut alloc = Json::obj();
        alloc.push("installed", Json::Bool(at_obs::alloc::installed()));
        alloc.push(
            "peak_bytes",
            Json::U64(
                self.peak_window
                    .as_ref()
                    .map_or(0, at_obs::alloc::PeakWindow::peak) as u64,
            ),
        );
        doc.push("alloc", alloc);
        for (name, section) in sections {
            doc.push(name, section);
        }
        Ok(Some(doc))
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if self.active {
            at_obs::disable();
            let _ = at_obs::drain();
        }
    }
}

/// The `solve` section of the envelope: the construction counters of one
/// [`BuildReport`].
pub fn solve_section(report: &BuildReport) -> Json {
    let mut solve = Json::obj();
    solve.push("method", Json::Str(report.method.label().to_string()));
    solve.push(
        "duration_ms",
        Json::F64(report.duration.as_secs_f64() * 1_000.0),
    );
    solve.push("constraints", Json::U64(report.num_constraints as u64));
    solve.push("nodes", Json::U64(report.stats.nodes));
    solve.push(
        "constraint_checks",
        Json::U64(report.stats.constraint_checks),
    );
    solve.push("solutions", Json::U64(report.stats.solutions));
    solve.push("backtracks", Json::U64(report.stats.backtracks));
    solve.push(
        "preprocess_removed",
        Json::U64(report.stats.preprocess_removed),
    );
    solve.push("valid", Json::U64(report.num_valid as u64));
    solve
}
