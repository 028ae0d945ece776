//! A small `--flag value` argument parser.
//!
//! The tool has a handful of flags per subcommand; a hand-rolled parser keeps
//! the dependency set to the crates the library itself needs.

use std::collections::BTreeMap;

/// Parsed command-line arguments: a subcommand, positional arguments and
/// `--key value` / `--switch` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument), if any.
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` pairs; switches (no value) map to `"true"`.
    pub options: BTreeMap<String, String>,
}

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// A flag that requires a value appeared without one.
    MissingValue(String),
    /// A flag was passed that the subcommand does not understand.
    UnknownFlag(String),
    /// A flag value could not be parsed (wrong type or unknown name).
    InvalidValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// The required flag is missing.
    MissingFlag(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} requires a value"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value `{value}` for --{flag} (expected {expected})"
                )
            }
            ArgError::MissingFlag(flag) => write!(f, "missing required flag --{flag}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that do not take a value.
const SWITCHES: &[&str] = &["help", "mmap", "json", "prune", "metrics"];

/// Parse raw arguments into a [`ParsedArgs`].
pub fn parse(args: &[String]) -> Result<ParsedArgs, ArgError> {
    let mut parsed = ParsedArgs::default();
    let mut i = 0usize;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            if SWITCHES.contains(&name) {
                parsed.options.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                if value.starts_with("--") {
                    return Err(ArgError::MissingValue(name.to_string()));
                }
                parsed.options.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else if parsed.command.is_none() {
            parsed.command = Some(arg.clone());
            i += 1;
        } else {
            parsed.positional.push(arg.clone());
            i += 1;
        }
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// The value of `--flag`, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(|s| s.as_str())
    }

    /// The value of a required `--flag`.
    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag)
            .ok_or_else(|| ArgError::MissingFlag(flag.to_string()))
    }

    /// Whether a boolean switch was passed.
    pub fn switch(&self, flag: &str) -> bool {
        self.get(flag) == Some("true")
    }

    /// Parse a numeric flag with a default.
    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| ArgError::InvalidValue {
                flag: flag.to_string(),
                value: text.to_string(),
                expected: "a number".to_string(),
            }),
        }
    }

    /// Reject flags outside the allowed set, switches included: a command
    /// names every flag it reads, so a typo or a flag it would ignore is an
    /// error rather than a silent no-op.
    pub fn ensure_known_flags(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::UnknownFlag(key.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_flags_and_positionals() {
        let parsed = parse(&to_args(&[
            "construct",
            "--workload",
            "hotspot",
            "--method",
            "optimized",
            "extra",
        ]))
        .unwrap();
        assert_eq!(parsed.command.as_deref(), Some("construct"));
        assert_eq!(parsed.get("workload"), Some("hotspot"));
        assert_eq!(parsed.get("method"), Some("optimized"));
        assert_eq!(parsed.positional, vec!["extra".to_string()]);
    }

    #[test]
    fn switches_do_not_consume_values() {
        let parsed = parse(&to_args(&["table2", "--json", "--method", "optimized"])).unwrap();
        assert!(parsed.switch("json"));
        assert_eq!(parsed.get("method"), Some("optimized"));
    }

    #[test]
    fn missing_value_is_reported() {
        assert_eq!(
            parse(&to_args(&["construct", "--workload"])),
            Err(ArgError::MissingValue("workload".to_string()))
        );
        assert_eq!(
            parse(&to_args(&["construct", "--workload", "--method"])),
            Err(ArgError::MissingValue("workload".to_string()))
        );
    }

    #[test]
    fn require_and_number_helpers() {
        let parsed = parse(&to_args(&["tune", "--budget-ms", "1500"])).unwrap();
        assert_eq!(parsed.number("budget-ms", 0u64).unwrap(), 1500);
        assert_eq!(parsed.number("seed", 42u64).unwrap(), 42);
        assert!(parsed.require("strategy").is_err());
        let bad = parse(&to_args(&["tune", "--budget-ms", "abc"])).unwrap();
        assert!(bad.number("budget-ms", 0u64).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_ensure() {
        let parsed = parse(&to_args(&["construct", "--wrkload", "hotspot"])).unwrap();
        assert_eq!(
            parsed.ensure_known_flags(&["workload", "method"]),
            Err(ArgError::UnknownFlag("wrkload".to_string()))
        );
        let ok = parse(&to_args(&["construct", "--workload", "hotspot"])).unwrap();
        assert!(ok.ensure_known_flags(&["workload", "method"]).is_ok());
    }

    #[test]
    fn error_messages_mention_the_flag() {
        assert!(ArgError::MissingFlag("spec".into())
            .to_string()
            .contains("spec"));
        assert!(ArgError::UnknownFlag("x".into()).to_string().contains("x"));
        assert!(ArgError::MissingValue("y".into()).to_string().contains("y"));
        let e = ArgError::InvalidValue {
            flag: "budget-ms".into(),
            value: "abc".into(),
            expected: "a number".into(),
        };
        assert!(e.to_string().contains("budget-ms") && e.to_string().contains("abc"));
    }
}
