//! Output formats for the resolved search space (Section 4.3.4).
//!
//! The paper notes that rearranging solver output into a different structure
//! per consumer can cost as much as the construction itself, and therefore
//! provides output formats close to the internal representation. The resolved
//! [`SearchSpace`] stores a flat index-encoded arena; this module renders it
//! as CSV and as a JSON cache format compatible in spirit with Kernel
//! Tuner's cache files — both as `String` builders ([`to_csv`],
//! [`to_json_cache`]) and as streaming [`std::io::Write`] variants
//! ([`write_csv`], [`write_json_cache`]) whose memory use is O(row), not
//! O(space).
//!
//! For a durable format that needs no decoding at all, see the `at_store`
//! crate: it persists the `u32` code arena verbatim.

use std::io::{self, Write};

use at_csp::Value;
use at_obs::json::{quote, Json};

use crate::space::SearchSpace;

/// CSV rendering with a header row of parameter names.
///
/// Convenience wrapper over [`write_csv`] that renders into one `String`
/// proportional to the whole space; prefer the streaming variant for large
/// spaces or when writing to a file.
pub fn to_csv(space: &SearchSpace) -> String {
    let mut out = Vec::new();
    write_csv(space, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV output is UTF-8")
}

/// Stream the CSV rendering (header row of parameter names, one line per
/// configuration) into any [`io::Write`], one configuration at a time —
/// memory use is O(row), not O(space).
pub fn write_csv<W: Write>(space: &SearchSpace, out: &mut W) -> io::Result<()> {
    for (d, p) in space.params().iter().enumerate() {
        if d > 0 {
            out.write_all(b",")?;
        }
        // Parameter names are arbitrary user strings: quote them with the
        // same rules as data cells or a `,` in a name adds a column.
        write_csv_str(p.name(), out)?;
    }
    out.write_all(b"\n")?;
    for view in space.iter() {
        for (d, value) in view.values().enumerate() {
            if d > 0 {
                out.write_all(b",")?;
            }
            write_csv_cell(value, out)?;
        }
        out.write_all(b"\n")?;
    }
    Ok(())
}

fn write_csv_cell<W: Write>(value: &Value, out: &mut W) -> io::Result<()> {
    match value {
        Value::Str(s) => write_csv_str(s, out),
        other => write!(out, "{other}"),
    }
}

/// Write one string field, quoted when it contains a separator, a quote,
/// or an embedded line break (an unquoted line break splits the record and
/// corrupts the whole file).
fn write_csv_str<W: Write>(s: &str, out: &mut W) -> io::Result<()> {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        out.write_all(b"\"")?;
        out.write_all(s.replace('"', "\"\"").as_bytes())?;
        out.write_all(b"\"")
    } else {
        out.write_all(s.as_bytes())
    }
}

/// A JSON document in the spirit of Kernel Tuner's cache files: the parameter
/// names, their declared values, and the list of valid configurations.
///
/// Convenience wrapper over [`write_json_cache`] that renders into one
/// `String` proportional to the whole space; prefer the streaming variant
/// for large spaces or when writing to a file.
pub fn to_json_cache(space: &SearchSpace) -> String {
    let mut out = Vec::new();
    write_json_cache(space, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("JSON output is UTF-8")
}

/// Stream the JSON cache document into any [`io::Write`], one configuration
/// at a time — memory use is O(row), not O(space).
pub fn write_json_cache<W: Write>(space: &SearchSpace, out: &mut W) -> io::Result<()> {
    out.write_all(b"{\n")?;
    writeln!(out, "  \"space\": {},", quote(space.name()))?;
    out.write_all(b"  \"tune_params_keys\": [")?;
    for (d, p) in space.params().iter().enumerate() {
        if d > 0 {
            out.write_all(b", ")?;
        }
        out.write_all(quote(p.name()).as_bytes())?;
    }
    out.write_all(b"],\n  \"tune_params\": {\n")?;
    for (d, p) in space.params().iter().enumerate() {
        if d > 0 {
            out.write_all(b",\n")?;
        }
        write!(out, "    {}: [", quote(p.name()))?;
        for (i, v) in p.values().iter().enumerate() {
            if i > 0 {
                out.write_all(b", ")?;
            }
            write!(out, "{}", json_value(v))?;
        }
        out.write_all(b"]")?;
    }
    out.write_all(b"\n  },\n  \"configurations\": [\n")?;
    for (row, view) in space.iter().enumerate() {
        if row > 0 {
            out.write_all(b",\n")?;
        }
        out.write_all(b"    [")?;
        for (d, v) in view.values().enumerate() {
            if d > 0 {
                out.write_all(b", ")?;
            }
            write!(out, "{}", json_value(v))?;
        }
        out.write_all(b"]")?;
    }
    out.write_all(b"\n  ]\n}\n")
}

/// One parameter value as JSON: numbers and booleans bare, strings
/// quoted, non-finite floats as `null` (see [`Json`]'s writer). The
/// streaming export and `tune --json`'s `best_config` both render values
/// through it.
pub fn json_value(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::I64(*i),
        Value::Float(f) => Json::F64(*f),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::TunableParameter;

    fn space() -> SearchSpace {
        let params = vec![
            TunableParameter::ints("x", [1, 2]),
            TunableParameter::strings("mode", &["row", "a,b"]),
        ];
        let configs = vec![
            vec![Value::Int(1), Value::str("row")],
            vec![Value::Int(2), Value::str("a,b")],
        ];
        SearchSpace::from_configs("out", params, configs).unwrap()
    }

    #[test]
    fn csv_escapes_commas() {
        let s = space();
        let csv = to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,mode");
        assert_eq!(lines[1], "1,row");
        assert_eq!(lines[2], "2,\"a,b\"");
    }

    #[test]
    fn json_cache_is_structurally_sound() {
        let s = space();
        let json = to_json_cache(&s);
        assert!(json.contains("\"tune_params_keys\": [\"x\", \"mode\"]"));
        assert!(json.contains("\"configurations\""));
        assert!(json.contains("[1, \"row\"]"));
        // balanced braces/brackets as a cheap well-formedness check
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_quotes_header_names_too() {
        let params = vec![
            TunableParameter::ints("a,b", [1, 2]),
            TunableParameter::ints("plain", [3]),
        ];
        let configs = vec![vec![Value::Int(1), Value::Int(3)]];
        let s = SearchSpace::from_configs("hdr", params, configs).unwrap();
        let csv = to_csv(&s);
        assert_eq!(csv.lines().next().unwrap(), "\"a,b\",plain");
    }

    #[test]
    fn csv_quotes_newlines_and_carriage_returns() {
        let params = vec![
            TunableParameter::ints("x", [1, 2]),
            TunableParameter::strings("mode", &["a\nb", "c\rd"]),
        ];
        let configs = vec![
            vec![Value::Int(1), Value::str("a\nb")],
            vec![Value::Int(2), Value::str("c\rd")],
        ];
        let s = SearchSpace::from_configs("nl", params, configs).unwrap();
        let csv = to_csv(&s);
        // Embedded line breaks must be quoted, or the rows split apart.
        assert!(csv.contains("1,\"a\nb\"\n"), "{csv:?}");
        assert!(csv.contains("2,\"c\rd\"\n"), "{csv:?}");
    }

    #[test]
    fn streaming_writers_match_string_builders() {
        let s = space();
        let mut csv = Vec::new();
        write_csv(&s, &mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap(), to_csv(&s));
        let mut json = Vec::new();
        write_json_cache(&s, &mut json).unwrap();
        assert_eq!(String::from_utf8(json).unwrap(), to_json_cache(&s));
    }

    #[test]
    fn streaming_writers_propagate_io_errors() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(write_csv(&space(), &mut Full).is_err());
        assert!(write_json_cache(&space(), &mut Full).is_err());
    }

    #[test]
    fn json_value_rendering() {
        assert_eq!(json_value(&Value::str("a\"b")).to_string(), "\"a\\\"b\"");
        assert_eq!(json_value(&Value::Float(f64::NAN)).to_string(), "null");
        assert_eq!(json_value(&Value::Bool(true)).to_string(), "true");
    }
}
