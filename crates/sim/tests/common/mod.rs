//! Helpers shared by the decoder mutation suites (`trace_mutation`,
//! `store_mutation`): walking a checksummed container's sections and
//! damaging one payload, drawn from a seeded [`StdRng`] (SplitMix64) so a
//! fixed seed gives the same mutants on every run.

use rand::rngs::StdRng;
use rand::Rng;

/// The `(tag, payload)` sections of a well-formed container, in order.
pub fn sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut at = 16;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + 20; // tag (4) + len (8) + checksum (8)
        out.push((tag, bytes[payload..payload + len].to_vec()));
        at = payload + len;
    }
    assert_eq!(at, bytes.len(), "the section walk covers the container");
    out
}

/// One mutation of `payload`, described for the failure report: a bit
/// flipped, a cut, or up to 8 bytes spliced in.
pub fn mutate(payload: &mut Vec<u8>, rng: &mut StdRng) -> String {
    match rng.gen_range(0..3usize) {
        0 if !payload.is_empty() => {
            let (at, bit) = (rng.gen_range(0..payload.len()), rng.gen_range(0..8usize));
            payload[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        }
        1 if !payload.is_empty() => {
            let len = rng.gen_range(0..payload.len());
            payload.truncate(len);
            format!("cut to {len} bytes")
        }
        _ => {
            let at = rng.gen_range(0..payload.len() + 1);
            let removed = rng.gen_range(0..9usize).min(payload.len() - at);
            let inserted: Vec<u8> =
                (0..=rng.gen_range(0..8usize)).map(|_| rng.next_u64() as u8).collect();
            let description = format!("{removed} bytes at {at} replaced by {inserted:02x?}");
            payload.splice(at..at + removed, inserted);
            description
        }
    }
}
