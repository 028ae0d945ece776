//! A tiny hand-rolled JSON value + writer: no serde, stable key order
//! (insertion order), one-line output.
//!
//! Every machine-readable line the workspace writes is one [`Json`]
//! value: the CLI's `--json` lines and their summaries, the
//! `atss.metrics.v1` envelope, the daemon status, and the Chrome trace
//! export. The exceptions are the streaming space export, which writes
//! its text row by row and quotes through [`quote`], and the serde-backed
//! spec writer. Floats are written with enough precision to round-trip
//! microsecond timestamps; non-finite floats become `null` (matching what
//! strict JSON parsers accept).

use std::fmt::Write as _;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key/value pair (builder-style; panics if not an object,
    /// which is always a programming error at an instrumentation site).
    pub fn push(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(entries) => entries.push((key.to_string(), value)),
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    /// [`Json::push`] by value, for building an object in one expression:
    /// `Json::obj().with("schema", "atss.check.v1").with("errors", 0u64)`.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value.into());
        self
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to a compact one-line JSON string (so `to_string()` renders
/// the value).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::U64(u64::from(n))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        items.into_iter().collect()
    }
}

impl<T: Into<Json>, const N: usize> From<[T; N]> for Json {
    fn from(items: [T; N]) -> Json {
        items.into_iter().collect()
    }
}

/// Collects into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// `s` as a JSON string literal (quotes, backslashes, and control
/// characters escaped) — the one escaper every JSON writer in the
/// workspace goes through.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(s, &mut out);
    out
}

/// Append `s` to `out` as a JSON string literal (see [`quote`]).
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_serialize_compactly_in_insertion_order() {
        let mut obj = Json::obj();
        obj.push("b", Json::U64(2));
        obj.push(
            "a",
            Json::Arr(vec![Json::Null, Json::Bool(true), Json::F64(1.5)]),
        );
        obj.push("s", Json::Str("x\"y\n".to_string()));
        assert_eq!(
            obj.to_string(),
            r#"{"b":2,"a":[null,true,1.5],"s":"x\"y\n"}"#
        );
    }

    #[test]
    fn builders_and_conversions_match_the_variants() {
        let built = Json::obj()
            .with("b", 2u64)
            .with("a", vec![Json::Null, true.into(), 1.5.into()])
            .with("s", "x\"y\n")
            .with("none", None::<u64>)
            .with("some", Some(3u64))
            .with("list", ["p", "q"]);
        let mut pushed = Json::obj();
        pushed.push("b", Json::U64(2));
        pushed.push(
            "a",
            Json::Arr(vec![Json::Null, Json::Bool(true), Json::F64(1.5)]),
        );
        pushed.push("s", Json::Str("x\"y\n".to_string()));
        pushed.push("none", Json::Null);
        pushed.push("some", Json::U64(3));
        pushed.push(
            "list",
            Json::Arr(vec![Json::Str("p".into()), Json::Str("q".into())]),
        );
        assert_eq!(built, pushed);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::Str("\u{1}".to_string()).to_string(), "\"\\u0001\"");
        assert_eq!(quote("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
    }

    #[test]
    fn output_parses_with_the_serde_json_shim() {
        let mut obj = Json::obj();
        obj.push("n", Json::I64(-3));
        obj.push("f", Json::F64(2.25));
        obj.push("list", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        let v: serde_json::Value = serde_json::from_str(&obj.to_string()).unwrap();
        assert_eq!(v.get("n").and_then(|n| n.as_i64()), Some(-3));
        assert_eq!(v.get("f").and_then(|f| f.as_f64()), Some(2.25));
        assert_eq!(
            v.get("list").and_then(|l| l.as_array()).map(|l| l.len()),
            Some(2)
        );
    }
}
