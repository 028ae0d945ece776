//! # at-cli — the `atss` command-line tool
//!
//! A small front end over the library crates, the Rust counterpart of using
//! Kernel Tuner's `SearchSpace` from a script (the integration surface the
//! paper contributes in Section 4.4, exercised on the Section 5.3 workloads):
//!
//! ```text
//! atss workloads                                  list the built-in spaces
//! atss construct --workload gemm --method optimized --format summary
//! atss construct --spec space.json --format csv --out space.csv
//! atss compare   --workload microhh --methods optimized,chain-of-trees,original
//! atss tune      --workload hotspot --strategy random --budget-ms 10000
//! atss spec-template                              print an example JSON spec
//! ```
//!
//! Every pipeline command additionally accepts `--trace <file>` (Chrome
//! trace-event export of the run, via [`at_obs`]) and `--metrics` (a
//! one-line `atss.metrics.v1` envelope); `atss trace-lint` validates the
//! trace files the tool itself writes. See `atss help` for the contract.
//!
//! Every command returns its report as a string (printed by `main`), which is
//! what the unit tests assert on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod daemon_cmd;
pub mod obs;

use args::{parse, ArgError};

/// Top-level error type of the tool.
#[derive(Debug)]
pub enum CliError {
    /// Command-line syntax error.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Error from the underlying libraries (construction, parsing, I/O).
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(cmd) => {
                write!(f, "unknown command `{cmd}` (run `atss help`)")
            }
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Run the tool on raw command-line arguments and return its output text.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let parsed = parse(raw_args)?;
    let command = parsed.command.clone().unwrap_or_else(|| "help".to_string());
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(commands::help()),
        "workloads" => commands::workloads(&parsed),
        "check" => commands::check(&parsed),
        "construct" => commands::construct(&parsed),
        "compare" => commands::compare(&parsed),
        "tune" => commands::tune(&parsed),
        "cache" => commands::cache(&parsed),
        "daemon" => daemon_cmd::daemon(&parsed),
        "client" => daemon_cmd::client(&parsed),
        "trace-lint" => commands::trace_lint(&parsed),
        "capabilities" => commands::capabilities(&parsed),
        "spec-template" => {
            parsed.ensure_known_flags(&[])?;
            Ok(commands::spec_template())
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_prints_help() {
        let out = run(&[]).unwrap();
        assert!(out.contains("construct"));
        assert!(out.contains("workloads"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&to_args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn workloads_lists_table2_spaces() {
        let out = run(&to_args(&["workloads"])).unwrap();
        for name in ["Dedispersion", "GEMM", "MicroHH", "ATF PRL 8x8"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn construct_summary_for_a_small_workload() {
        let out = run(&to_args(&[
            "construct",
            "--workload",
            "dedispersion",
            "--method",
            "optimized",
            "--format",
            "summary",
        ]))
        .unwrap();
        assert!(out.contains("Dedispersion"));
        assert!(out.contains("valid configurations"));
    }

    #[test]
    fn construct_rejects_unknown_method_and_workload() {
        assert!(run(&to_args(&["construct", "--workload", "nope"])).is_err());
        assert!(run(&to_args(&[
            "construct",
            "--workload",
            "dedispersion",
            "--method",
            "magic"
        ]))
        .is_err());
    }

    #[test]
    fn spec_template_is_valid_json_and_constructible() {
        let out = run(&to_args(&["spec-template"])).unwrap();
        let spec = at_searchspace::spec_from_json(&out).unwrap();
        assert!(spec.num_params() >= 2);
        assert!(run(&to_args(&["spec-template", "--json"])).is_err());
    }

    #[test]
    fn compare_reports_every_requested_method() {
        let out = run(&to_args(&[
            "compare",
            "--workload",
            "dedispersion",
            "--methods",
            "optimized,chain-of-trees",
        ]))
        .unwrap();
        assert!(out.contains("optimized"));
        assert!(out.contains("chain-of-trees"));
    }

    #[test]
    fn tune_runs_with_a_tiny_budget() {
        let out = run(&to_args(&[
            "tune",
            "--workload",
            "dedispersion",
            "--strategy",
            "random",
            "--budget-ms",
            "2000",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("best runtime"));
    }
}
