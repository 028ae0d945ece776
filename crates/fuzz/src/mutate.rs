//! The seeded mutation engine: generic byte-level mutators plus
//! section-aware `ATSS` mutations derived from the documented v2 layout.
//!
//! All mutation is driven by a caller-supplied [`ChaCha8Rng`], so a fuzzing
//! run is fully determined by `(seed, iteration count)` and any finding is
//! reproducible from the command line it was found with.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Upper bound on generated input length. Keeps single iterations fast and
/// minimized crashes small; real store files and restrictions of interest
/// are far below it.
pub const MAX_INPUT_LEN: usize = 1 << 16;

/// Apply one random generic byte-level mutation in place.
pub fn mutate_once(rng: &mut ChaCha8Rng, data: &mut Vec<u8>) {
    if data.is_empty() {
        data.extend((0..rng.gen_range(1usize..16)).map(|_| rng.gen_range(0u8..=255)));
        return;
    }
    match rng.gen_range(0u32..8) {
        // Bit flip.
        0 => {
            let at = rng.gen_range(0..data.len());
            data[at] ^= 1 << rng.gen_range(0u32..8);
        }
        // Byte overwrite.
        1 => {
            let at = rng.gen_range(0..data.len());
            data[at] = rng.gen_range(0u8..=255);
        }
        // Overwrite with an interesting boundary value.
        2 => {
            const INTERESTING: [u8; 8] = [0x00, 0x01, 0x7f, 0x80, 0xff, 0x20, 0x41, 0x04];
            let at = rng.gen_range(0..data.len());
            data[at] = INTERESTING[rng.gen_range(0..INTERESTING.len())];
        }
        // Truncate.
        3 => {
            let keep = rng.gen_range(0..data.len());
            data.truncate(keep);
        }
        // Delete a range.
        4 => {
            let start = rng.gen_range(0..data.len());
            let len = rng.gen_range(1..=(data.len() - start).min(64));
            data.drain(start..start + len);
        }
        // Insert random bytes.
        5 => {
            let at = rng.gen_range(0..=data.len());
            let insert: Vec<u8> = (0..rng.gen_range(1usize..16))
                .map(|_| rng.gen_range(0u8..=255))
                .collect();
            data.splice(at..at, insert);
        }
        // Duplicate (self-splice) a range to another position.
        6 => {
            let start = rng.gen_range(0..data.len());
            let len = rng.gen_range(1..=(data.len() - start).min(64));
            let chunk: Vec<u8> = data[start..start + len].to_vec();
            let at = rng.gen_range(0..=data.len());
            data.splice(at..at, chunk);
        }
        // Overwrite a little-endian integer-sized window with a boundary
        // integer — lengths, counts and offsets in binary formats.
        _ => {
            const VALUES: [u64; 8] = [
                0,
                1,
                3,
                u32::MAX as u64,
                u32::MAX as u64 + 1,
                u64::MAX,
                u64::MAX / 8,
                0x4141_4141_4141_4141,
            ];
            let width = *[1usize, 2, 4, 8]
                .get(rng.gen_range(0usize..4))
                .expect("fixed list");
            if data.len() >= width {
                let at = rng.gen_range(0..=data.len() - width);
                let value = VALUES[rng.gen_range(0..VALUES.len())];
                data[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
    }
    data.truncate(MAX_INPUT_LEN);
}

/// Apply `count` generic mutations.
pub fn mutate(rng: &mut ChaCha8Rng, data: &mut Vec<u8>, count: usize) {
    for _ in 0..count {
        mutate_once(rng, data);
    }
}

/// Splice a random chunk of `other` into `data` at a random position.
pub fn splice(rng: &mut ChaCha8Rng, data: &mut Vec<u8>, other: &[u8]) {
    if other.is_empty() {
        return;
    }
    let start = rng.gen_range(0..other.len());
    let len = rng.gen_range(1..=(other.len() - start).min(256));
    let at = rng.gen_range(0..=data.len());
    if rng.gen_bool(0.5) {
        // Insert.
        data.splice(at..at, other[start..start + len].iter().copied());
    } else {
        // Overwrite.
        let end = (at + len).min(data.len());
        let n = end - at;
        data[at..end].copy_from_slice(&other[start..start + n]);
    }
    data.truncate(MAX_INPUT_LEN);
}

// ---------------------------------------------------------------------------
// ATSS section awareness
// ---------------------------------------------------------------------------

/// A named byte region of an `ATSS` file.
#[derive(Debug, Clone)]
pub struct Section {
    /// Human-readable region name (for crash labelling).
    pub name: &'static str,
    /// Byte range within the file.
    pub range: std::ops::Range<usize>,
}

/// Map the section layout of a well-formed `ATSS` file, mirroring the
/// documented format: magic+version, CRC-framed `HDR\0` and `PAR\0`
/// sections, `RNK\0` tag + alignment pad, the verbatim ranks (8 bytes per
/// row, filling the file up to the trailer), and the 16-byte trailer.
/// Returns `None` for files this simple walker cannot account for — the
/// fuzzer then falls back to generic mutations.
pub fn map_sections(bytes: &[u8]) -> Option<Vec<Section>> {
    const TRAILER_LEN: usize = 16;
    let mut sections = Vec::new();
    if bytes.len() < 8 + TRAILER_LEN || &bytes[0..4] != b"ATSS" {
        return None;
    }
    sections.push(Section {
        name: "magic+version",
        range: 0..8,
    });
    let trailer_at = bytes.len() - TRAILER_LEN;

    // The two framed metadata sections: tag, u64 payload length, payload,
    // u32 CRC.
    let mut pos = 8usize;
    for name in ["header", "params"] {
        let len_at = pos.checked_add(4)?;
        let payload_at = len_at.checked_add(8)?;
        if payload_at > trailer_at {
            return None;
        }
        let len = u64::from_le_bytes(bytes.get(len_at..payload_at)?.try_into().ok()?) as usize;
        let end = payload_at.checked_add(len)?.checked_add(4)?;
        if end > trailer_at {
            return None;
        }
        sections.push(Section {
            name,
            range: pos..end,
        });
        pos = end;
    }

    // Rank tag + pad, then the ranks: one u64 per row the trailer
    // declares, ending exactly at the trailer.
    let pad = u32::from_le_bytes(bytes.get(pos + 4..pos + 8)?.try_into().ok()?) as usize;
    if pad > 7 {
        return None;
    }
    let ranks_at = pos.checked_add(8 + pad)?;
    if ranks_at > trailer_at {
        return None;
    }
    sections.push(Section {
        name: "ranks-frame",
        range: pos..ranks_at,
    });
    let num_rows = u64::from_le_bytes(
        bytes
            .get(trailer_at + 4..trailer_at + 12)?
            .try_into()
            .ok()?,
    ) as usize;
    if ranks_at.checked_add(num_rows.checked_mul(8)?)? != trailer_at {
        return None;
    }
    sections.push(Section {
        name: "ranks",
        range: ranks_at..trailer_at,
    });
    sections.push(Section {
        name: "trailer",
        range: trailer_at..bytes.len(),
    });
    Some(sections)
}

/// Apply one `ATSS`-aware mutation: pick a section and damage it in a way
/// that exercises that section's validation (byte flips inside the region,
/// CRC-field damage, boundary truncation, trailer row-count tweaks, and
/// forged ranks under a recomputed CRC, which only the rank-order pass can
/// catch and the trusted mmap must serve without panicking). Falls back to
/// a generic mutation when the input has no recognizable layout.
pub fn mutate_atss(rng: &mut ChaCha8Rng, data: &mut Vec<u8>) {
    let Some(sections) = map_sections(data) else {
        mutate_once(rng, data);
        return;
    };
    let section = &sections[rng.gen_range(0..sections.len())];
    let range = section.range.clone();
    if range.is_empty() {
        mutate_once(rng, data);
        return;
    }
    match rng.gen_range(0u32..7) {
        // Flip a byte inside the section.
        0 | 1 => {
            let at = rng.gen_range(range.start..range.end);
            data[at] ^= 1 << rng.gen_range(0u32..8);
        }
        // Truncate at (or just inside) the section boundary.
        2 => {
            let back = rng.gen_range(0..=range.len().min(8));
            data.truncate(range.end - back);
        }
        // Trailer row-count tweak: off-by-one and hostile extremes.
        3 => {
            let trailer = sections.last().expect("trailer present");
            if trailer.name == "trailer" && trailer.range.len() == 16 {
                let rows_at = trailer.range.start + 4;
                let rows =
                    u64::from_le_bytes(data[rows_at..rows_at + 8].try_into().expect("8 bytes"));
                let new = match rng.gen_range(0u32..5) {
                    0 => rows.wrapping_add(1),
                    1 => rows.wrapping_sub(1),
                    2 => 0,
                    // The first count whose rank bytes overflow a u64.
                    3 => (u64::MAX >> 3) + 1,
                    _ => u64::MAX,
                };
                data[rows_at..rows_at + 8].copy_from_slice(&new.to_le_bytes());
            }
        }
        // Zero or max the last 4 bytes of the section — where the frame
        // CRCs and the arena CRC live.
        4 => {
            let end = range.end;
            if end >= 4 {
                let fill = if rng.gen_bool(0.5) { 0x00 } else { 0xff };
                for b in &mut data[end - 4..end] {
                    *b ^= fill;
                }
            }
        }
        // Forge one rank — a random value, or its neighbour's — and
        // recompute the rank CRC in the trailer, so the checksum passes
        // and the rank order or range is what is wrong.
        5 if section.name == "ranks" && data.len() == range.end + 16 => {
            let rows = range.len() / 8;
            let at = range.start + 8 * rng.gen_range(0..rows);
            let forged = if rows > 1 && rng.gen_bool(0.5) {
                let other = if at == range.start { at + 8 } else { at - 8 };
                u64::from_le_bytes(data[other..other + 8].try_into().expect("8 bytes"))
            } else {
                rng.gen_range(0..u64::MAX)
            };
            data[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            let crc = at_store::checksum::crc32(&data[range.clone()]);
            let crc_at = range.end + 12;
            data[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        }
        // Duplicate the whole section in place (framing confusion).
        _ => {
            let chunk: Vec<u8> = data[range.clone()].to_vec();
            data.splice(range.end..range.end, chunk);
        }
    }
    data.truncate(MAX_INPUT_LEN);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mutations_are_deterministic_per_seed() {
        let base = b"The quick brown fox jumps over the lazy dog".to_vec();
        let mut a = base.clone();
        let mut b = base.clone();
        mutate(&mut ChaCha8Rng::seed_from_u64(7), &mut a, 10);
        mutate(&mut ChaCha8Rng::seed_from_u64(7), &mut b, 10);
        assert_eq!(a, b);
        let mut c = base;
        mutate(&mut ChaCha8Rng::seed_from_u64(8), &mut c, 10);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn maps_a_real_store_file() {
        let params = vec![at_searchspace::TunableParameter::ints("x", [1, 2, 4])];
        let configs = vec![vec![at_csp::Value::Int(1)], vec![at_csp::Value::Int(4)]];
        let space = at_searchspace::SearchSpace::from_configs("map", params, configs).unwrap();
        let mut bytes = Vec::new();
        at_store::write_space(&space, &mut bytes).unwrap();
        let sections = map_sections(&bytes).expect("valid file maps");
        let names: Vec<&str> = sections.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "magic+version",
                "header",
                "params",
                "ranks-frame",
                "ranks",
                "trailer"
            ]
        );
        // The map must tile the file exactly.
        let mut pos = 0;
        for s in &sections {
            assert_eq!(s.range.start, pos, "gap before {}", s.name);
            pos = s.range.end;
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn garbage_has_no_section_map() {
        assert!(map_sections(b"not a store file at all").is_none());
        assert!(map_sections(b"").is_none());
    }
}
