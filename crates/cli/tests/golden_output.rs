//! Golden bytes for the machine-readable outputs: the full stdout of
//! `capabilities`, `check --json`, `tune --json`, `construct --json` and
//! `cache verify --json`, compared byte for byte with the files under
//! `tests/golden/`.
//!
//! The schema tests check which fields exist and what types they have;
//! these pin key order, float rendering and escaping as well, so a change
//! to how a line is written shows up here. Only wall-clock values
//! (`construction_ms`) and the temporary cache directory are masked.

use std::path::{Path, PathBuf};

fn atss(args: &[&str]) -> String {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    at_cli::run(&owned).unwrap_or_else(|e| panic!("atss {args:?} failed: {e}"))
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Replace the value of every `"key":<number>` in `text` with `<masked>`.
fn mask_number(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let value_start = at + needle.len();
        out.push_str(&rest[..value_start]);
        out.push_str("<masked>");
        let value_len = rest[value_start..]
            .find([',', '}'])
            .expect("a number ends at `,` or `}`");
        rest = &rest[value_start + value_len..];
    }
    out.push_str(rest);
    out
}

/// A cache directory holding dedispersion's entry, fresh for this process.
fn cache_with_dedispersion(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("at-cli-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    atss(&[
        "construct",
        "--workload",
        "dedispersion",
        "--cache-dir",
        dir.to_str().unwrap(),
    ]);
    dir
}

fn verify_json(dir: &Path) -> String {
    let dir = dir.to_str().unwrap();
    atss(&["cache", "verify", "--json", "--cache-dir", dir]).replace(dir, "<cache-dir>")
}

#[test]
fn capabilities_bytes_are_pinned() {
    assert_eq!(atss(&["capabilities"]), golden("capabilities.json"));
}

#[test]
fn check_json_bytes_are_pinned() {
    assert_eq!(
        atss(&["check", "--json", "--workload", "gemm"]),
        golden("check-gemm.jsonl")
    );
}

#[test]
fn tune_json_bytes_are_pinned() {
    let out = atss(&[
        "tune",
        "--json",
        "--workload",
        "dedispersion",
        "--strategy",
        "genetic",
        "--seed",
        "7",
        "--budget-ms",
        "5000",
        "--construction-ms",
        "0",
    ]);
    assert_eq!(out, golden("tune-dedispersion-genetic.json"));
}

#[test]
fn construct_json_bytes_are_pinned() {
    let out = atss(&["construct", "--json", "--workload", "dedispersion"]);
    assert_eq!(
        mask_number(&out, "construction_ms"),
        golden("construct-dedispersion.json")
    );
}

#[test]
fn cache_verify_json_bytes_are_pinned_clean_and_damaged() {
    let dir = cache_with_dedispersion("verify");
    assert_eq!(verify_json(&dir), golden("cache-verify-clean.jsonl"));

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
    assert_eq!(verify_json(&dir), golden("cache-verify-damaged.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
}
