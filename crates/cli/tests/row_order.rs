//! A `ConfigId` does not depend on the method that built the space: a
//! cache entry that one method filled serves the same row order as any
//! other method's cold build, so a tuning run gives the same answer with
//! and without the cache.

fn atss(args: &[&str]) -> String {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    at_cli::run(&owned).unwrap_or_else(|e| panic!("atss {args:?} failed: {e}"))
}

/// The value of `"key":` in a one-line JSON document, as written.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {json}"))
        + needle.len();
    let len = json[start..].find([',', '}']).expect("a value ends");
    &json[start..start + len]
}

#[test]
fn a_cache_built_by_chain_of_trees_tunes_like_a_cold_build() {
    let dir = std::env::temp_dir().join(format!("at-cli-row-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().unwrap().to_string();
    // Chain-of-trees emits dedispersion's rows out of canonical order; the
    // entry it writes is the one the original method's lowering looks up.
    atss(&[
        "construct",
        "--workload",
        "dedispersion",
        "--method",
        "chain-of-trees",
        "--cache-dir",
        &dir,
    ]);
    let tune = [
        "tune",
        "--workload",
        "dedispersion",
        "--method",
        "original",
        "--strategy",
        "random",
        "--budget-ms",
        "3000",
        "--seed",
        "7",
        "--construction-ms",
        "0",
        "--json",
    ];
    let cold = atss(&tune);
    let cached = atss(&[&tune[..], &["--cache-dir", &dir]].concat());
    assert_eq!(field(&cold, "cache_source"), "\"cold\"");
    assert_eq!(field(&cached, "cache_source"), "\"hit\"");
    for key in ["best_config_id", "best_runtime_ms", "evaluations"] {
        assert_eq!(field(&cold, key), field(&cached, key), "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
