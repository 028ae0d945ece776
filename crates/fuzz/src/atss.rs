//! Fuzz targets 1 and 2: the `ATSS` store readers.
//!
//! See the crate docs for the full oracle statements. Both targets treat
//! the input bytes as a (possibly damaged) store file; the differential
//! target additionally loads under every `LoadOptions` policy and
//! cross-checks every successful load against every other.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use at_csp::Value;
use at_searchspace::{ConfigId, SearchSpace, TunableParameter};
use at_store::{
    peek_info, read_space_from_bytes, write_space, IndexOutcome, LoadOptions, StoreError,
    StoreReader,
};

use crate::harness::fnv1a;

/// Valid store files used as mutation seeds: a spread of value kinds,
/// name lengths (arena alignment paths), row counts (including zero) and
/// index sizes.
pub fn seed_files() -> Vec<Vec<u8>> {
    let mut spaces = Vec::new();

    let params = vec![
        TunableParameter::ints("x", [1, 2, 4]),
        TunableParameter::ints("y", [1, 2]),
    ];
    let configs = vec![
        vec![Value::Int(1), Value::Int(1)],
        vec![Value::Int(1), Value::Int(2)],
        vec![Value::Int(2), Value::Int(1)],
        vec![Value::Int(4), Value::Int(2)],
    ];
    spaces.push(SearchSpace::from_configs("small", params, configs).unwrap());

    let params = vec![TunableParameter::new(
        "mixed",
        vec![
            Value::Int(-7),
            Value::Float(2.5),
            Value::Bool(true),
            Value::str("a,b\nc"),
        ],
    )];
    let configs = vec![
        vec![Value::Int(-7)],
        vec![Value::str("a,b\nc")],
        vec![Value::Float(2.5)],
    ];
    spaces.push(SearchSpace::from_configs("mixed-values", params, configs).unwrap());

    let params = vec![TunableParameter::ints("only", [1, 2])];
    spaces.push(SearchSpace::from_configs("empty", params, vec![]).unwrap());

    // A larger space so the persisted index has many slots and the arena
    // spans several pages.
    let params = vec![
        TunableParameter::ints("a", (0..16).collect::<Vec<_>>()),
        TunableParameter::ints("b", (0..12).collect::<Vec<_>>()),
    ];
    let configs: Vec<Vec<Value>> = (0..16i64)
        .flat_map(|a| (0..12i64).map(move |b| vec![Value::Int(a), Value::Int(b)]))
        .filter(|row| match (&row[0], &row[1]) {
            (Value::Int(a), Value::Int(b)) => (a * b) % 3 != 1,
            _ => true,
        })
        .collect();
    spaces.push(SearchSpace::from_configs("bigger", params, configs).unwrap());

    spaces
        .iter()
        .map(|space| {
            let mut bytes = Vec::new();
            write_space(space, &mut bytes).expect("in-memory write");
            bytes
        })
        .collect()
}

/// A per-process, per-thread scratch file path: targets that need a real
/// file (peek, mmap) rewrite the same path every iteration, and parallel
/// test threads never collide.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("at-fuzz-scratch");
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!(
        "{tag}-{}-{:?}.atss",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn check_clean_error(e: &StoreError, what: &str) -> Result<(), String> {
    if e.is_content_error() {
        Ok(())
    } else {
        Err(format!(
            "{what} returned a non-content error for damaged bytes: {e}"
        ))
    }
}

/// Target 1: arbitrary bytes through the strict reader, with the
/// peek-vs-strict differential. See the crate docs for the oracle.
pub fn reader_target(input: &[u8]) -> Result<(), String> {
    let strict = read_space_from_bytes(input);
    if let Err(e) = &strict {
        check_clean_error(e, "read_space_from_bytes")?;
    }

    // Differential: the same parser reading the file at offsets must
    // classify the same bytes the same way, modulo the content checks peek
    // skips.
    let path = scratch_path("reader");
    std::fs::write(&path, input).map_err(|e| format!("scratch write failed: {e}"))?;
    match (peek_info(&path), &strict) {
        (Ok(info), Ok((_, strict_info))) => {
            if info != *strict_info {
                return Err(format!(
                    "peek_info and the strict reader disagree on accepted bytes: \
                     peek {info:?} vs strict {strict_info:?}"
                ));
            }
        }
        (Err(e), Ok(_)) => {
            return Err(format!(
                "peek_info rejected ({e}) a file the strict reader accepts"
            ));
        }
        (Err(e), Err(_)) => check_clean_error(&e, "peek_info")?,
        (Ok(_), Err(_)) => {} // peek skips content checks; laxer is fine
    }
    Ok(())
}

/// One successful load, labelled with the policy that produced it.
struct Loaded {
    label: &'static str,
    space: SearchSpace,
    /// Whether the served index was rebuilt from the arena.
    index_rebuilt: bool,
}

/// Target 2: bytes (mutated valid files) through every `LoadOptions`
/// policy. See the crate docs for the oracle.
pub fn load_differential_target(input: &[u8]) -> Result<(), String> {
    let strict = read_space_from_bytes(input).ok();

    let path = scratch_path("load-diff");
    std::fs::write(&path, input).map_err(|e| format!("scratch write failed: {e}"))?;
    let reader = match StoreReader::open(&path) {
        Ok(reader) => reader,
        Err(e) => {
            check_clean_error(&e, "StoreReader::open")?;
            if strict.is_some() {
                return Err(format!(
                    "StoreReader::open rejected ({e}) bytes the strict reader accepts"
                ));
            }
            return Ok(());
        }
    };

    let mut successes: Vec<Loaded> = Vec::new();
    for (label, options) in [
        ("verified copy", LoadOptions::default()),
        ("trusted mmap", LoadOptions::mmap_trusted()),
        ("certified mmap", LoadOptions::mmap_certified()),
    ] {
        match reader.load(options) {
            Ok(loaded) => successes.push(Loaded {
                label,
                index_rebuilt: !matches!(loaded.report.index, IndexOutcome::Adopted { .. }),
                space: loaded.space,
            }),
            Err(e) => {
                check_clean_error(&e, label)?;
                if strict.is_some() {
                    // The strict path checks strictly more than any
                    // policy; what it accepts, each must serve (possibly
                    // via a reported fallback).
                    return Err(format!(
                        "{label} failed ({e}) on bytes the strict reader accepts"
                    ));
                }
            }
        }
    }

    // All successful loads — and the strict read, when it succeeded — must
    // be code-for-code identical.
    let reference: Option<(&str, &SearchSpace)> = strict
        .as_ref()
        .map(|(space, _)| ("strict", space))
        .or_else(|| successes.first().map(|l| (l.label, &l.space)));
    if let Some((ref_label, ref_space)) = reference {
        for loaded in &successes {
            let space = &loaded.space;
            if space.name() != ref_space.name()
                || space.num_params() != ref_space.num_params()
                || space.len() != ref_space.len()
                || space.arena() != ref_space.arena()
            {
                return Err(format!(
                    "{} and {} served different spaces from the same bytes",
                    loaded.label, ref_label
                ));
            }
        }
    }

    // Membership consistency: any id returned for a probe must point back
    // at exactly the probed codes — a damaged or stale index may *miss*,
    // never misattribute. Misses of present rows are only violations when
    // the index is known-good: rebuilt from the arena (as the load report
    // says), or adopted from a file the strict reader fully validated.
    let mut rng = ChaCha8Rng::seed_from_u64(fnv1a(input) ^ 0x4c4f_4144);
    for loaded in &successes {
        let space = &loaded.space;
        let index_known_good = strict.is_some() || loaded.index_rebuilt;
        if !space.is_empty() {
            for _ in 0..8 {
                let id = ConfigId::from_index(rng.gen_range(0..space.len()));
                let codes = space
                    .codes_of(id)
                    .ok_or_else(|| format!("{}: row {id} vanished", loaded.label))?
                    .to_vec();
                match space.index_of_codes(&codes) {
                    Some(found) if space.codes_of(found) != Some(codes.as_slice()) => {
                        return Err(format!(
                            "{}: lookup of row {id} misattributed to {found}",
                            loaded.label
                        ));
                    }
                    Some(_) => {}
                    None if index_known_good => {
                        return Err(format!(
                            "{}: present row {id} not found by index_of_codes",
                            loaded.label
                        ));
                    }
                    None => {} // damaged trusted index: a miss is in-contract
                }
            }
        }
        for _ in 0..8 {
            let probe: Vec<u32> = (0..space.num_params())
                .map(|_| rng.gen_range(0u32..1024))
                .collect();
            if let Some(found) = space.index_of_codes(&probe) {
                if space.codes_of(found) != Some(probe.as_slice()) {
                    return Err(format!("{}: probe misattributed to {found}", loaded.label));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_seeds_pass_both_targets() {
        for seed in seed_files() {
            reader_target(&seed).unwrap();
            load_differential_target(&seed).unwrap();
        }
    }

    #[test]
    fn garbage_passes_the_reader_target() {
        reader_target(b"").unwrap();
        reader_target(b"ATSS").unwrap();
        reader_target(&[0xff; 64]).unwrap();
    }
}
