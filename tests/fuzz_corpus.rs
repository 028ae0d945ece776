//! Regression replay of the fuzzing corpus.
//!
//! Every input the fuzzer ever minimized into `tests/fuzz_corpus/` is run
//! through its target on every `cargo test`: a crash found once stays
//! fixed forever. The corpus policy is documented in the README's
//! "Fuzzing & corpus policy" section.

use std::path::Path;

use at_fuzz::{replay_corpus, run_target, Target};

fn corpus_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus")
}

#[test]
fn corpus_replays_clean() {
    match replay_corpus(&corpus_root()) {
        Ok(replayed) => {
            // The checked-in regressions from the bugs this harness found
            // plus the deterministic daemon_proto frame seeds.
            assert!(
                replayed >= 22,
                "corpus looks truncated: only {replayed} inputs found"
            );
        }
        Err(failures) => {
            for (path, failure) in &failures {
                eprintln!("{}: {failure}", path.display());
            }
            panic!("{} corpus inputs regressed", failures.len());
        }
    }
}

/// A short fixed-seed smoke run of every target, so plain `cargo test`
/// exercises the differential oracles themselves, not just the corpus.
#[test]
fn fixed_seed_smoke() {
    let config = at_fuzz::FuzzConfig {
        iters: 300,
        seed: 0x5EED,
        corpus_dir: corpus_root(),
        write_crashes: false,
    };
    for target in Target::ALL {
        let report = at_fuzz::fuzz_target(target, &config);
        assert!(
            report.is_clean(),
            "{} failed in smoke run: {:?}",
            target.name(),
            report.crash
        );
    }
}

/// The store targets' regression inputs are files of the current format:
/// an input of an older version is rejected at the version field and
/// regresses nothing past it. A format revision regenerates them
/// (`cargo test -p at_fuzz --lib dump_regression_corpus -- --ignored`).
#[test]
fn store_corpus_inputs_are_in_the_current_format() {
    let mut checked = 0;
    for dir in ["atss_reader", "atss_load_differential"] {
        for entry in std::fs::read_dir(corpus_root().join(dir)).expect("store corpus dir") {
            let path = entry.expect("readable entry").path();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(&bytes[..4], b"ATSS", "{}", path.display());
            let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            assert_eq!(
                version,
                autotuning_searchspaces::store::FORMAT_VERSION,
                "{}",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 6,
        "store corpus looks truncated: {checked} inputs"
    );
}

/// The corpus directory names must all be valid target names, so a typo'd
/// directory cannot silently skip replay.
#[test]
fn corpus_directories_match_targets() {
    for entry in std::fs::read_dir(corpus_root()).expect("corpus dir exists") {
        let entry = entry.expect("readable entry");
        if entry.path().is_dir() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            assert!(
                Target::from_name(&name).is_some(),
                "corpus directory {name:?} is not a fuzz target"
            );
        }
    }
}

/// The named historical regressions, asserted individually so a failure
/// points straight at the bug class that resurfaced.
#[test]
fn named_regressions_still_pass() {
    let cases: [(Target, &[u8]); 4] = [
        // VM `and`/`or` chains must coerce their result to Bool.
        (
            Target::ExprPipeline,
            b"-(y or 4.25 > x >= y >= block_size_x < y <= tile)",
        ),
        // `True * z` must not be recognized as a bare `z` comparison.
        (Target::ExprPipeline, b"True*z!=(0*0 )"),
        // Divides/ModuloEquals must follow Value::rem float semantics.
        (Target::ExprPipeline, b"y %y == False and ie"),
        // Zero-weight sum terms keep their variable in scope.
        (Target::ExprPipeline, b"8>y+False*z"),
    ];
    for (target, input) in cases {
        if let Err(failure) = run_target(target, input) {
            panic!(
                "regression resurfaced on {}: {failure}",
                String::from_utf8_lossy(input)
            );
        }
    }
}
