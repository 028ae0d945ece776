//! Fuzz targets 1 and 2: the `ATSS` store readers.
//!
//! See the crate docs for the full oracle statements. Both targets treat
//! the input bytes as a (possibly damaged) store file; the differential
//! target additionally loads under both `LoadOptions` policies and
//! cross-checks every successful load against every other.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use at_csp::Value;
use at_searchspace::{ConfigId, SearchSpace, TunableParameter};
use at_store::checksum::crc32;
use at_store::{
    peek_info, read_space_from_bytes, write_space, LoadOptions, StoreError, StoreReader,
};

use crate::harness::fnv1a;

/// Valid store files used as mutation seeds: a spread of value kinds,
/// name lengths (rank alignment paths) and row counts (including zero).
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

    // A larger space whose rank section spans more than a few cache lines.
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

/// The checked-in regression inputs of the two store targets, as
/// `(target directory, name, bytes)`. Each turns a bug class the fuzzer
/// found, or a damage the trusted mmap must survive, on a file of the
/// current format, so a format revision regenerates them rather than
/// leaving inputs that every reader rejects at the version field.
/// Regenerate with `cargo test -p at_fuzz --lib dump_regression_corpus --
/// --ignored`.
pub fn regression_files() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let seeds = seed_files();
    let (small, mixed, empty) = (&seeds[0], &seeds[1], &seeds[2]);
    // The trailer is the last 16 bytes: tag, row count, rank CRC.
    let with_rows = |bytes: &[u8], rows: u64| {
        let mut out = bytes.to_vec();
        let at = out.len() - 12;
        out[at..at + 8].copy_from_slice(&rows.to_le_bytes());
        out
    };
    // Replace the ranks and fix the trailer, so only the ranks are wrong.
    let with_ranks = |bytes: &[u8], rows: usize, ranks: &[u64]| {
        let ranks_at = bytes.len() - 16 - rows * 8;
        let body: Vec<u8> = ranks.iter().flat_map(|r| r.to_le_bytes()).collect();
        let mut out = bytes[..ranks_at].to_vec();
        out.extend_from_slice(&body);
        out.extend_from_slice(b"END\0");
        out.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    };
    // The first parameter's value count, patched under a fixed params CRC.
    let with_value_count = |bytes: &[u8], count: u32| {
        let mut out = bytes.to_vec();
        let header_len = u64::from_le_bytes(out[12..20].try_into().expect("8 bytes")) as usize;
        let params_at = 8 + 12 + header_len + 4;
        let len = u64::from_le_bytes(
            out[params_at + 4..params_at + 12]
                .try_into()
                .expect("8 bytes"),
        );
        let payload = params_at + 12..params_at + 12 + len as usize;
        let name_len = u32::from_le_bytes(
            out[payload.start..payload.start + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let count_at = payload.start + 4 + name_len as usize;
        out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        let crc = crc32(&out[payload.clone()]);
        out[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
        out
    };
    let reader = "atss_reader";
    let load = "atss_load_differential";
    vec![
        (reader, "rows-u64-max", with_rows(small, u64::MAX)),
        (
            reader,
            "rows-times-eight-overflow",
            with_rows(small, 1 << 61),
        ),
        (
            reader,
            "trailer-truncated",
            small[..small.len() - 7].to_vec(),
        ),
        (
            load,
            "value-count-forged",
            with_value_count(empty, u32::MAX),
        ),
        // `mixed-values` holds 3 rows of a 4-value parameter.
        (
            load,
            "ranks-unsorted-out-of-range",
            with_ranks(mixed, 3, &[3, 1, 9]),
        ),
        (load, "ranks-repeated", with_ranks(mixed, 3, &[1, 1, 2])),
    ]
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
}

/// Target 2: bytes (mutated valid files) through both `LoadOptions`
/// policies. See the crate docs for the oracle.
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
    ] {
        match reader.load(options) {
            Ok(loaded) => successes.push(Loaded {
                label,
                space: loaded.space,
            }),
            Err(e) => {
                check_clean_error(&e, label)?;
                if strict.is_some() {
                    // The strict path checks strictly more than either
                    // policy; what it accepts, each must serve.
                    return Err(format!(
                        "{label} failed ({e}) on bytes the strict reader accepts"
                    ));
                }
            }
        }
    }

    // When the strict read succeeded, every load must serve its space rank
    // for rank. Without it, only the trusted mmap may succeed, over ranks
    // nobody checked.
    if let Some((ref_space, _)) = &strict {
        for loaded in &successes {
            let space = &loaded.space;
            if space.name() != ref_space.name()
                || space.num_params() != ref_space.num_params()
                || space.len() != ref_space.len()
                || space.arena() != ref_space.arena()
            {
                return Err(format!(
                    "{} and the strict read served different spaces from the same bytes",
                    loaded.label
                ));
            }
        }
    }

    // Decoding and membership: every decoded code lies in its dictionary,
    // whatever the ranks, and any id a lookup returns decodes back to
    // exactly the probed codes — forged ranks may make a lookup *miss*,
    // never misattribute. Misses of present rows are violations only when
    // the strict reader validated the ranks.
    let mut rng = ChaCha8Rng::seed_from_u64(fnv1a(input) ^ 0x4c4f_4144);
    let (mut codes, mut found_codes) = (Vec::new(), Vec::new());
    for loaded in &successes {
        let space = &loaded.space;
        if !space.is_empty() {
            for _ in 0..8 {
                let id = ConfigId::from_index(rng.gen_range(0..space.len()));
                if !space.codes_into(id, &mut codes) {
                    return Err(format!("{}: row {id} vanished", loaded.label));
                }
                for (d, (&code, param)) in codes.iter().zip(space.params()).enumerate() {
                    if code as usize >= param.len() {
                        return Err(format!(
                            "{}: row {id} decodes code {code} outside parameter {d}",
                            loaded.label
                        ));
                    }
                }
                match space.index_of_codes(&codes) {
                    Some(found) => {
                        space.codes_into(found, &mut found_codes);
                        if found_codes != codes {
                            return Err(format!(
                                "{}: lookup of row {id} misattributed to {found}",
                                loaded.label
                            ));
                        }
                    }
                    None if strict.is_some() => {
                        return Err(format!(
                            "{}: present row {id} not found by index_of_codes",
                            loaded.label
                        ));
                    }
                    None => {} // unchecked ranks: a miss is in-contract
                }
            }
        }
        for _ in 0..8 {
            let probe: Vec<u32> = (0..space.num_params())
                .map(|_| rng.gen_range(0u32..1024))
                .collect();
            if let Some(found) = space.index_of_codes(&probe) {
                space.codes_into(found, &mut found_codes);
                if found_codes != probe {
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
    fn regression_files_pass_their_targets() {
        for (dir, name, bytes) in regression_files() {
            let result = match dir {
                "atss_reader" => reader_target(&bytes),
                _ => load_differential_target(&bytes),
            };
            assert!(result.is_ok(), "{dir}/{name}: {result:?}");
        }
    }

    /// Regenerates the checked-in store regression corpus. Run manually
    /// after a format revision:
    /// `cargo test -p at_fuzz --lib dump_regression_corpus -- --ignored`.
    #[test]
    #[ignore = "writes the checked-in corpus; run manually after format changes"]
    fn dump_regression_corpus() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus");
        for (dir, name, bytes) in regression_files() {
            let dir = root.join(dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(format!("seed-{name}.bin")), bytes).unwrap();
        }
    }

    #[test]
    fn garbage_passes_the_reader_target() {
        reader_target(b"").unwrap();
        reader_target(b"ATSS").unwrap();
        reader_target(&[0xff; 64]).unwrap();
    }
}
