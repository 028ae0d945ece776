//! Golden-file coverage of the v3 `ATSS` byte layout.
//!
//! `tests/fixtures/v3-small.atss` is a checked-in file written by the v3
//! writer for the space constructed by [`fixture_space`]. (The v1 and v2
//! fixtures beside it stay as rejection cases for `store_mmap`.) The tests here
//! pin the byte layout end to end: any change to the on-disk format —
//! section ordering, framing, padding, value encoding, checksums — fails
//! loudly against the golden bytes instead of silently shipping a file
//! old readers cannot open.
//!
//! After an *intentional* format change, regenerate the fixture with
//! `cargo test --test store_golden_fixture -- --ignored bless` and bump
//! `FORMAT_VERSION` / the assertions below as the change requires.

use autotuning_searchspaces::csp::Value;
use autotuning_searchspaces::searchspace::{SearchSpace, TunableParameter};
use autotuning_searchspaces::store::checksum::crc32;
use autotuning_searchspaces::store::{
    read_space_from_path, write_space, write_space_to_path, FORMAT_VERSION,
};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3-small.atss")
}

/// The space persisted in the fixture: one parameter of every persistable
/// value type, with a restriction so the row set is not a full cross
/// product (membership lookups must search the real ranks).
fn fixture_space() -> SearchSpace {
    let params = vec![
        TunableParameter::ints("block_size_x", [1, 2, 4, 8]),
        TunableParameter::new("precision", vec![Value::str("half"), Value::str("single")]),
        TunableParameter::new("scale", vec![Value::Float(0.5), Value::Float(1.0)]),
        TunableParameter::new("use_cache", vec![Value::Bool(false), Value::Bool(true)]),
    ];
    let mut configs = Vec::new();
    for &x in &[1i64, 2, 4, 8] {
        for p in ["half", "single"] {
            for &s in &[0.5f64, 1.0] {
                for cached in [false, true] {
                    // Drop a corner so membership is non-trivial.
                    if x == 8 && p == "half" && !cached {
                        continue;
                    }
                    configs.push(vec![
                        Value::Int(x),
                        Value::str(p),
                        Value::Float(s),
                        Value::Bool(cached),
                    ]);
                }
            }
        }
    }
    SearchSpace::from_configs("v3-fixture", params, configs).unwrap()
}

/// Read one framed metadata section (tag, u64 payload length, payload,
/// CRC-32 of the payload) and return the payload, advancing `pos`.
fn read_section<'a>(bytes: &'a [u8], pos: &mut usize, expect_tag: &[u8; 4]) -> &'a [u8] {
    let tag = &bytes[*pos..*pos + 4];
    assert_eq!(tag, expect_tag, "section tag at offset {}", *pos);
    let len = u64::from_le_bytes(bytes[*pos + 4..*pos + 12].try_into().unwrap()) as usize;
    let payload = &bytes[*pos + 12..*pos + 12 + len];
    let crc = u32::from_le_bytes(bytes[*pos + 12 + len..*pos + 16 + len].try_into().unwrap());
    assert_eq!(
        crc,
        crc32(payload),
        "{} section CRC",
        String::from_utf8_lossy(&expect_tag[..3])
    );
    *pos += 16 + len;
    payload
}

#[test]
fn fixture_matches_documented_byte_layout() {
    let bytes = std::fs::read(fixture_path()).expect(
        "tests/fixtures/v3-small.atss is checked in; regenerate with \
         `cargo test --test store_golden_fixture -- --ignored bless`",
    );
    let space = fixture_space();
    let (rows, num_params) = (space.len(), space.num_params());

    // Magic + version.
    assert_eq!(&bytes[0..4], b"ATSS");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        FORMAT_VERSION
    );
    let mut pos = 8;

    // HDR section: name (u32 length + bytes) then parameter count.
    let hdr = read_section(&bytes, &mut pos, b"HDR\0");
    let name_len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    assert_eq!(&hdr[4..4 + name_len], b"v3-fixture");
    assert_eq!(
        u32::from_le_bytes(hdr[4 + name_len..8 + name_len].try_into().unwrap()),
        num_params as u32
    );
    assert_eq!(hdr.len(), 8 + name_len, "HDR payload is exactly name+count");

    // PAR section: per parameter, name + value count + tagged values.
    // Spot-check the first parameter and the value-tag bytes (1=Int,
    // 2=Float, 3=Bool, 4=Str) the format guide documents.
    let par = read_section(&bytes, &mut pos, b"PAR\0");
    let p0_len = u32::from_le_bytes(par[0..4].try_into().unwrap()) as usize;
    assert_eq!(&par[4..4 + p0_len], b"block_size_x");
    let mut p = 4 + p0_len;
    assert_eq!(u32::from_le_bytes(par[p..p + 4].try_into().unwrap()), 4);
    p += 4;
    for expected in [1i64, 2, 4, 8] {
        assert_eq!(par[p], 1, "Int value tag");
        assert_eq!(
            i64::from_le_bytes(par[p + 1..p + 9].try_into().unwrap()),
            expected
        );
        p += 9;
    }
    // Second parameter starts with its name; its first value is Str-tagged.
    let p1_len = u32::from_le_bytes(par[p..p + 4].try_into().unwrap()) as usize;
    assert_eq!(&par[p + 4..p + 4 + p1_len], b"precision");
    assert_eq!(par[p + 4 + p1_len + 4], 4, "Str value tag");

    // RNK tag, u32 pad length, pad zeros; the ranks must start 8-aligned.
    assert_eq!(&bytes[pos..pos + 4], b"RNK\0");
    let pad = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
    assert!(pad <= 7, "pad is at most 7 bytes, found {pad}");
    assert!(bytes[pos + 8..pos + 8 + pad].iter().all(|&b| b == 0));
    let ranks_offset = pos + 8 + pad;
    assert_eq!(ranks_offset % 8, 0, "rank offset must be 8-byte aligned");

    // Ranks: one little-endian u64 per row, strictly ascending, verbatim.
    // A rank is the row's mixed-radix index, last parameter fastest: here
    // the strides are 2*2*2, 2*2, 2 and 1.
    let ranks_len = rows * 8;
    let ranks = &bytes[ranks_offset..ranks_offset + ranks_len];
    let decoded: Vec<u64> = ranks
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(decoded, space.arena());
    assert!(decoded.windows(2).all(|pair| pair[0] < pair[1]));
    // (1, "half", 0.5, false) is rank 0; (1, "half", 0.5, true) rank 1;
    // the dropped corner (8, "half", *, false) would be ranks 24 and 26.
    assert_eq!(&decoded[..3], &[0, 1, 2]);
    assert!(!decoded.contains(&24) && !decoded.contains(&26));
    assert_eq!(decoded.last(), Some(&31));
    pos = ranks_offset + ranks_len;

    // 16-byte trailer: END tag, u64 row count, u32 rank CRC — and nothing
    // after it.
    assert_eq!(&bytes[pos..pos + 4], b"END\0");
    assert_eq!(
        u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()),
        rows as u64
    );
    assert_eq!(
        u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().unwrap()),
        crc32(ranks)
    );
    assert_eq!(pos + 16, bytes.len(), "trailer ends the file");
}

/// The writer must be deterministic: serializing the reconstructed space
/// reproduces the golden file byte for byte. This is what makes content
/// addressing (and this fixture) stable across builds.
#[test]
fn writer_reproduces_the_golden_bytes() {
    let golden = std::fs::read(fixture_path()).unwrap();
    let mut rewritten = Vec::new();
    write_space(&fixture_space(), &mut rewritten).unwrap();
    assert_eq!(rewritten, golden, "write_space is no longer deterministic");
}

#[test]
fn fixture_loads_back_to_the_reference_space() {
    let (loaded, info) = read_space_from_path(fixture_path()).unwrap();
    assert_eq!(info.version, FORMAT_VERSION);
    let reference = fixture_space();
    assert_eq!(loaded.name(), reference.name());
    assert_eq!(loaded.arena(), reference.arena());
    for view in reference.iter() {
        let row = view.to_vec();
        assert_eq!(loaded.index_of(&row), Some(view.id()));
    }
}

/// Regenerates the fixture. Ignored in normal runs; run explicitly after
/// an intentional format change:
/// `cargo test --test store_golden_fixture -- --ignored bless`
#[test]
#[ignore = "writes tests/fixtures/v3-small.atss; run explicitly to bless"]
fn bless_regenerate_fixture() {
    write_space_to_path(&fixture_space(), fixture_path()).unwrap();
}
