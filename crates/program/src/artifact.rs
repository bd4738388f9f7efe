//! Durable, integrity-checked binary artifacts.
//!
//! Captured traces (and the sim crate's sweep checkpoints and shard jobs,
//! which reuse this module) are written to disk as
//! **artifact containers**: a fixed header followed by independently
//! checksummed sections. The format is deliberately dumb — no compression,
//! no schema evolution machinery — because its one job is to make every
//! failure mode *loud and typed*: a file from a different tool is
//! [`ArtifactError::BadMagic`], a file from a newer writer is
//! [`ArtifactError::VersionSkew`], a file cut short by a dying process is
//! [`ArtifactError::TruncatedArtifact`], and a file with even one flipped
//! bit in any payload is [`ArtifactError::ChecksumMismatch`]. A corrupted
//! artifact must never load into a trace that silently produces wrong
//! figures.
//!
//! # Layout
//!
//! ```text
//! magic      [u8; 8]   writer-chosen tag, e.g. b"DVITRAC1"
//! version    u32 LE    format version of the writer
//! sections   u32 LE    number of sections
//! then per section:
//!   tag      u32 LE    section identifier (writer-chosen namespace)
//!   len      u64 LE    payload length in bytes
//!   checksum u64 LE    XXH64(payload, seed = tag)
//!   payload  [u8; len]
//! ```
//!
//! All integers are little-endian. Checksums are seeded with the section
//! tag, so a corrupted *tag* also surfaces as a checksum mismatch instead
//! of silently relabelling one section as another. Every checksum is
//! verified eagerly at [`ArtifactReader::parse`] time.
//!
//! Writes go through [`ArtifactWriter::write_atomic`]: the bytes land in a
//! temporary sibling file first and are renamed into place, so a reader
//! never observes a half-written artifact under the final name.
//!
//! The checksum is **XXH64** implemented in plain Rust below (no new
//! dependencies; the vendor policy is unchanged) and locked against the
//! reference test vectors.

use std::error::Error;
use std::fmt;
use std::path::Path;

// --------------------------------------------------------------- xxh64 --

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn read_u64_le(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[inline]
fn read_u32_le(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

/// XXH64 of `data` under `seed` (the reference algorithm, plain Rust).
#[must_use]
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut rest = data;
    let mut h = if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = xxh_round(v1, read_u64_le(rest, 0));
            v2 = xxh_round(v2, read_u64_le(rest, 8));
            v3 = xxh_round(v3, read_u64_le(rest, 16));
            v4 = xxh_round(v4, read_u64_le(rest, 24));
            rest = &rest[32..];
        }
        let mut acc = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        acc = xxh_merge_round(acc, v1);
        acc = xxh_merge_round(acc, v2);
        acc = xxh_merge_round(acc, v3);
        xxh_merge_round(acc, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    h = h.wrapping_add(data.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, read_u64_le(rest, 0));
        h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(read_u32_le(rest, 0)).wrapping_mul(PRIME64_1);
        h = h.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h ^= u64::from(byte).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

// -------------------------------------------------------------- errors --

/// Why an artifact failed to load (or save). Every variant is a *detected*
/// failure: no path through this module returns partially-loaded data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The underlying file operation failed (message of the OS error).
    Io(String),
    /// The file does not start with the expected magic: it is not this
    /// kind of artifact at all (or the first bytes were corrupted).
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
        /// The magic the reader expected.
        expected: [u8; 8],
    },
    /// The file was written by an incompatible format version.
    VersionSkew {
        /// Version recorded in the file.
        found: u32,
        /// Newest version this reader supports.
        supported: u32,
    },
    /// The file ends before the advertised data does — a partial write or
    /// an external truncation.
    TruncatedArtifact {
        /// What the reader was in the middle of decoding.
        context: String,
    },
    /// A section's payload does not hash to its recorded checksum: the
    /// bytes were corrupted after writing.
    ChecksumMismatch {
        /// Tag of the corrupted section.
        section: u32,
    },
    /// A section the format requires is absent.
    MissingSection {
        /// Tag of the missing section.
        section: u32,
    },
    /// The artifact hashes clean but its contents violate a structural
    /// invariant of the payload being decoded (e.g. an undecodable
    /// instruction word, inconsistent record counts).
    Malformed {
        /// The violated invariant.
        context: String,
    },
    /// The artifact is internally valid but was derived from different
    /// inputs than the ones it is being loaded against (e.g. a checkpoint
    /// taken over a different captured trace).
    FingerprintMismatch {
        /// Fingerprint the loader expected.
        expected: u64,
        /// Fingerprint recorded in the artifact.
        found: u64,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(msg) => write!(f, "artifact I/O error: {msg}"),
            ArtifactError::BadMagic { found, expected } => {
                write!(f, "not a recognized artifact: magic {found:02x?}, expected {expected:02x?}")
            }
            ArtifactError::VersionSkew { found, supported } => write!(
                f,
                "artifact format version {found} is newer than the supported version {supported}"
            ),
            ArtifactError::TruncatedArtifact { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            ArtifactError::ChecksumMismatch { section } => {
                write!(f, "artifact section {section:#x} failed its checksum: file is corrupted")
            }
            ArtifactError::MissingSection { section } => {
                write!(f, "artifact is missing required section {section:#x}")
            }
            ArtifactError::Malformed { context } => write!(f, "artifact is malformed: {context}"),
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "artifact was derived from different inputs: fingerprint {found:#018x}, \
                 expected {expected:#018x}"
            ),
        }
    }
}

impl Error for ArtifactError {}

// ------------------------------------------------------- byte plumbing --

/// Append-only little-endian encoder for section payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a UTF-8 string as a `u64` byte-length prefix followed by
    /// the raw bytes (the container-wide string encoding; read back with
    /// [`ByteReader::str`]).
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.put_bytes(v.as_bytes());
    }

    /// The encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian decoder over a section payload. Every read that
/// runs off the end is a typed [`ArtifactError::TruncatedArtifact`] naming
/// the payload being decoded.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `context` names the payload in truncation
    /// errors.
    #[must_use]
    pub fn new(buf: &'a [u8], context: &'static str) -> ByteReader<'a> {
        ByteReader { buf, pos: 0, context }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end =
            self.pos.checked_add(n).filter(|&end| end <= self.buf.len()).ok_or_else(|| {
                ArtifactError::TruncatedArtifact { context: self.context.to_string() }
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }

    /// Reads a `bool` encoded as one byte; any value other than 0/1 is
    /// [`ArtifactError::Malformed`].
    pub fn bool(&mut self) -> Result<bool, ArtifactError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ArtifactError::Malformed {
                context: format!("{}: byte {other} is not a bool", self.context),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string written by
    /// [`ByteWriter::put_str`]; invalid UTF-8 is
    /// [`ArtifactError::Malformed`].
    pub fn str(&mut self) -> Result<String, ArtifactError> {
        let len = self.count()?;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::Malformed {
            context: format!("{}: non-UTF-8 string", self.context),
        })
    }

    /// Reads a `u64` count/length prefix and narrows it to `usize`.
    pub fn count(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Malformed {
            context: format!("{}: length {v} does not fit in usize", self.context),
        })
    }

    /// Number of bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ArtifactError::Malformed {
                context: format!("{}: {} trailing bytes", self.context, self.remaining()),
            })
        }
    }
}

// ----------------------------------------------------------- container --

/// Builds an artifact: header plus checksummed sections, in the order the
/// sections are added.
#[derive(Debug)]
pub struct ArtifactWriter {
    magic: [u8; 8],
    version: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// An empty artifact with the given magic and format version.
    #[must_use]
    pub fn new(magic: [u8; 8], version: u32) -> ArtifactWriter {
        ArtifactWriter { magic, version, sections: Vec::new() }
    }

    /// Appends one section. Tags are a writer-chosen namespace; duplicate
    /// tags are allowed and read back in order via
    /// [`ArtifactReader::sections_with_tag`].
    pub fn section(&mut self, tag: u32, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Serializes the artifact (header, then every section with its
    /// length and checksum).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let total: usize = 20 + self.sections.iter().map(|(_, p)| 20 + p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&xxh64(payload, u64::from(*tag)).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the artifact to `path` atomically: the bytes go to a
    /// temporary sibling first and are renamed over the destination, so a
    /// concurrent reader (or a crash mid-write) never sees a half-written
    /// file under the final name.
    pub fn write_atomic(&self, path: &Path) -> Result<(), ArtifactError> {
        let io = |e: std::io::Error| ArtifactError::Io(e.to_string());
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }
}

/// A parsed artifact: header validated, every section located and its
/// checksum verified. Borrows the raw bytes.
#[derive(Debug)]
pub struct ArtifactReader<'a> {
    version: u32,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> ArtifactReader<'a> {
    /// Parses and fully verifies an artifact: magic, version (at most
    /// `supported`), section table, and the checksum of **every** section
    /// eagerly — a reader never hands out bytes that have not hashed
    /// clean.
    pub fn parse(
        bytes: &'a [u8],
        magic: [u8; 8],
        supported: u32,
    ) -> Result<ArtifactReader<'a>, ArtifactError> {
        let truncated =
            |context: &str| ArtifactError::TruncatedArtifact { context: context.to_string() };
        if bytes.len() < 16 {
            return Err(truncated("artifact header"));
        }
        let found: [u8; 8] = bytes[0..8].try_into().expect("8 bytes");
        if found != magic {
            return Err(ArtifactError::BadMagic { found, expected: magic });
        }
        let version = read_u32_le(bytes, 8);
        if version > supported {
            return Err(ArtifactError::VersionSkew { found: version, supported });
        }
        let count = read_u32_le(bytes, 12) as usize;
        let mut sections = Vec::with_capacity(count.min(64));
        let mut pos = 16usize;
        for _ in 0..count {
            if bytes.len() - pos < 20 {
                return Err(truncated("section header"));
            }
            let tag = read_u32_le(bytes, pos);
            let len = read_u64_le(bytes, pos + 4);
            let checksum = read_u64_le(bytes, pos + 12);
            pos += 20;
            let len = usize::try_from(len).map_err(|_| ArtifactError::Malformed {
                context: format!("section {tag:#x} length does not fit in usize"),
            })?;
            if bytes.len() - pos < len {
                return Err(truncated("section payload"));
            }
            let payload = &bytes[pos..pos + len];
            pos += len;
            if xxh64(payload, u64::from(tag)) != checksum {
                return Err(ArtifactError::ChecksumMismatch { section: tag });
            }
            sections.push((tag, payload));
        }
        if pos != bytes.len() {
            return Err(ArtifactError::Malformed {
                context: format!("{} trailing bytes after the last section", bytes.len() - pos),
            });
        }
        Ok(ArtifactReader { version, sections })
    }

    /// The format version recorded in the header.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The first section with `tag`, or [`ArtifactError::MissingSection`].
    pub fn section(&self, tag: u32) -> Result<&'a [u8], ArtifactError> {
        self.section_opt(tag).ok_or(ArtifactError::MissingSection { section: tag })
    }

    /// The first section with `tag`, if present.
    #[must_use]
    pub fn section_opt(&self, tag: u32) -> Option<&'a [u8]> {
        self.sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p)
    }

    /// Every section with `tag`, in file order (for repeated sections such
    /// as one-per-member checkpoint entries).
    pub fn sections_with_tag(&self, tag: u32) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.sections.iter().filter(move |(t, _)| *t == tag).map(|(_, p)| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference test vectors from the xxHash specification.
    #[test]
    fn xxh64_matches_the_reference_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
        // The 39-byte vector above exercises the wide 32-byte loop; a
        // seeded vector (python-xxhash's README example) locks the seed
        // plumbing too.
        assert_eq!(xxh64(b"xxhash", 20141025), 13067679811253438005);
    }

    #[test]
    fn container_roundtrips() {
        let mut w = ArtifactWriter::new(*b"TESTMAGC", 3);
        w.section(1, vec![1, 2, 3]);
        w.section(2, Vec::new());
        w.section(1, vec![9]);
        let bytes = w.to_bytes();
        let r = ArtifactReader::parse(&bytes, *b"TESTMAGC", 3).unwrap();
        assert_eq!(r.version(), 3);
        assert_eq!(r.section(1).unwrap(), &[1, 2, 3]);
        assert_eq!(r.section(2).unwrap(), &[] as &[u8]);
        let ones: Vec<&[u8]> = r.sections_with_tag(1).collect();
        assert_eq!(ones, vec![&[1u8, 2, 3] as &[u8], &[9u8]]);
        assert_eq!(r.section(7), Err(ArtifactError::MissingSection { section: 7 }));
    }

    #[test]
    fn wrong_magic_and_newer_version_are_typed() {
        let bytes = ArtifactWriter::new(*b"TESTMAGC", 1).to_bytes();
        assert!(matches!(
            ArtifactReader::parse(&bytes, *b"OTHERMAG", 1),
            Err(ArtifactError::BadMagic { .. })
        ));
        assert_eq!(
            ArtifactReader::parse(&bytes, *b"TESTMAGC", 0).unwrap_err(),
            ArtifactError::VersionSkew { found: 1, supported: 0 }
        );
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let mut w = ArtifactWriter::new(*b"TESTMAGC", 1);
        w.section(5, (0u8..100).collect());
        let bytes = w.to_bytes();
        for cut in 0..bytes.len() {
            let err = ArtifactReader::parse(&bytes[..cut], *b"TESTMAGC", 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::TruncatedArtifact { .. } | ArtifactError::BadMagic { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn any_flipped_payload_bit_fails_the_checksum() {
        let mut w = ArtifactWriter::new(*b"TESTMAGC", 1);
        w.section(5, (0u8..64).collect());
        let clean = w.to_bytes();
        let payload_start = clean.len() - 64;
        for i in payload_start..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x10;
            assert_eq!(
                ArtifactReader::parse(&corrupt, *b"TESTMAGC", 1).unwrap_err(),
                ArtifactError::ChecksumMismatch { section: 5 },
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn byte_reader_reports_truncation_with_context() {
        let mut r = ByteReader::new(&[1, 2], "unit payload");
        assert_eq!(r.u8().unwrap(), 1);
        let err = r.u32().unwrap_err();
        assert_eq!(err, ArtifactError::TruncatedArtifact { context: "unit payload".into() });
    }

    #[test]
    fn byte_writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_bool(true);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "roundtrip");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn strings_roundtrip_and_bad_utf8_is_typed() {
        let mut w = ByteWriter::new();
        w.put_str("");
        w.put_str("memoized sweep results — keyed by fingerprints");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "strings");
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "memoized sweep results — keyed by fingerprints");
        r.finish().unwrap();

        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "bad utf8");
        assert!(matches!(r.str(), Err(ArtifactError::Malformed { .. })));
    }

    #[test]
    fn atomic_write_then_parse_from_disk() {
        let dir = std::env::temp_dir().join("dvi-artifact-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.bin");
        let mut w = ArtifactWriter::new(*b"TESTMAGC", 1);
        w.section(1, vec![42; 17]);
        w.write_atomic(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let r = ArtifactReader::parse(&bytes, *b"TESTMAGC", 1).unwrap();
        assert_eq!(r.section(1).unwrap(), &[42u8; 17]);
        std::fs::remove_file(&path).ok();
    }
}
