//! The result store: the one place a member's outcome is kept on disk.
//!
//! A completed sweep member's statistics are a **pure function** of
//! (configuration, trace) — the invariant every runner and resume
//! path in this crate is locked against. That purity is what makes the
//! store sound: the pair
//!
//! ```text
//! (CapturedTrace::fingerprint, checkpoint::config_fingerprint)
//! ```
//!
//! *is* the member's identity, so a [`MemberOutcome::Ok`] stored under it
//! can be served to any later run asking for the same pair, bit-identical
//! to re-simulating. The same entries serve three readers: the sweep
//! service's memo cache (`<data_dir>/memo`), the figure drivers'
//! `DVI_RESULT_CACHE`, and resume — a [`crate::MatrixRunner`] given a
//! store skips every member already stored, so a killed run picks up
//! where it died.
//!
//! Entries live one-per-file in the checksummed artifact container
//! (magic [`MEMO_MAGIC`]) written atomically through a temporary file
//! unique to each write, so a crash mid-store leaves either no entry or a
//! whole one, and concurrent stores of one key never tear it. Every
//! failure on the read side — missing file, foreign magic, version skew,
//! truncation, checksum mismatch, key mismatch after a hash-name
//! collision, a malformed payload — degrades to a **miss** (the member
//! simulates live, the entry is rewritten): a damaged store can cost time,
//! never correctness.
//!
//! Only fully healthy outcomes are stored. `Degraded` statistics are
//! bit-identical to `Ok` by contract but their reasons describe the run
//! that produced them (an injected fault, a retried panic); deadlocks
//! are deterministic but cheap to reproduce and worth re-observing; a
//! `Panicked` member has no statistics at all. Skipping all three keeps
//! every entry unambiguous: stored once, correct forever. A resumed run
//! therefore re-runs such members from record 0, which is bit-identical
//! by the purity contract.

use crate::batch::MemberOutcome;
use crate::checkpoint::{read_outcome, write_outcome};
use dvi_program::artifact::{ArtifactReader, ArtifactWriter, ByteReader, ByteWriter};
use dvi_program::ArtifactError;
use std::path::{Path, PathBuf};

/// Artifact container identity of one memoized member result.
pub const MEMO_MAGIC: [u8; 8] = *b"DVIMEMO1";
/// Current memo artifact version. Bump on any layout change, and whenever
/// the meaning of a stored counter changes; a reader rejects every other
/// version with [`ArtifactError::VersionSkew`], which the cache treats as
/// damage and re-runs. Version 2: memory references and seen
/// saves/restores are counted once per record (version 1 counted every
/// dispatch retry).
pub const MEMO_VERSION: u32 = 2;

/// Section tags inside a memo artifact.
mod section {
    /// The memoization key: trace fingerprint, config fingerprint.
    pub const KEY: u32 = 1;
    /// The stored outcome, in the outcome encoding
    /// ([`crate::checkpoint::write_outcome`]).
    pub const OUTCOME: u32 = 2;
}

/// What a store probe found (the service's hit-rate metrics count each
/// variant separately).
#[derive(Debug, Clone, PartialEq)]
pub enum CacheProbe {
    /// A healthy entry: serve these statistics, simulate nothing.
    Hit(Box<MemberOutcome>),
    /// No entry under this key.
    Miss,
    /// An entry exists but failed to load (corruption, truncation, version
    /// skew, key mismatch); the member runs live and the entry is
    /// rewritten from the fresh result.
    Damaged(ArtifactError),
}

/// An on-disk store of member outcomes (see the module docs).
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, ArtifactError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ArtifactError::Io(format!("creating cache dir {}: {e}", dir.display())))?;
        Ok(ResultCache { dir })
    }

    /// The directory the cache stores entries in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for a key (content-addressed: both fingerprints are
    /// in the name, so distinct keys never contend for one file).
    #[must_use]
    pub fn entry_path(&self, trace_fingerprint: u64, config_fingerprint: u64) -> PathBuf {
        self.dir.join(format!("memo-{trace_fingerprint:016x}-{config_fingerprint:016x}.dvimemo"))
    }

    /// Probes the cache for a key. Never fails: every defect is reported
    /// as [`CacheProbe::Damaged`] and the caller runs the member live.
    #[must_use]
    pub fn probe(&self, trace_fingerprint: u64, config_fingerprint: u64) -> CacheProbe {
        let path = self.entry_path(trace_fingerprint, config_fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheProbe::Miss,
            Err(e) => {
                return CacheProbe::Damaged(ArtifactError::Io(format!(
                    "reading {}: {e}",
                    path.display()
                )))
            }
        };
        match decode(&bytes, trace_fingerprint, config_fingerprint) {
            Ok(outcome) => CacheProbe::Hit(Box::new(outcome)),
            Err(e) => CacheProbe::Damaged(e),
        }
    }

    /// Memoizes a member's outcome under its key. Only
    /// [`MemberOutcome::Ok`] is stored (see the module docs); anything
    /// else is ignored so callers can feed every outcome through without
    /// filtering.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the atomic write fails.
    pub fn store(
        &self,
        trace_fingerprint: u64,
        config_fingerprint: u64,
        outcome: &MemberOutcome,
    ) -> Result<(), ArtifactError> {
        if !matches!(outcome, MemberOutcome::Ok(_)) {
            return Ok(());
        }
        let mut key = ByteWriter::new();
        key.put_u64(trace_fingerprint);
        key.put_u64(config_fingerprint);
        let mut body = ByteWriter::new();
        write_outcome(&mut body, outcome);
        let mut w = ArtifactWriter::new(MEMO_MAGIC, MEMO_VERSION);
        w.section(section::KEY, key.into_bytes());
        w.section(section::OUTCOME, body.into_bytes());
        w.write_atomic(&self.entry_path(trace_fingerprint, config_fingerprint))
    }

    /// Deletes every entry (used by benches to re-measure the miss path).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be traversed.
    pub fn clear(&self) -> Result<(), ArtifactError> {
        let io = |e: std::io::Error| ArtifactError::Io(format!("clearing result cache: {e}"));
        for entry in std::fs::read_dir(&self.dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            if path.extension().is_some_and(|e| e == "dvimemo") {
                std::fs::remove_file(&path).map_err(io)?;
            }
        }
        Ok(())
    }
}

fn decode(
    bytes: &[u8],
    trace_fingerprint: u64,
    config_fingerprint: u64,
) -> Result<MemberOutcome, ArtifactError> {
    let reader = ArtifactReader::parse(bytes, MEMO_MAGIC, MEMO_VERSION)?;
    // The container accepts older versions, but an older memo entry holds
    // counters with another meaning: anything but this version is damage.
    if reader.version() != MEMO_VERSION {
        return Err(ArtifactError::VersionSkew {
            found: reader.version(),
            supported: MEMO_VERSION,
        });
    }
    let mut key = ByteReader::new(reader.section(section::KEY)?, "memo key");
    let stored_trace = key.u64()?;
    let stored_config = key.u64()?;
    key.finish()?;
    if stored_trace != trace_fingerprint {
        return Err(ArtifactError::FingerprintMismatch {
            expected: trace_fingerprint,
            found: stored_trace,
        });
    }
    if stored_config != config_fingerprint {
        return Err(ArtifactError::FingerprintMismatch {
            expected: config_fingerprint,
            found: stored_config,
        });
    }
    let mut body = ByteReader::new(reader.section(section::OUTCOME)?, "memo outcome");
    let outcome = read_outcome(&mut body)?;
    body.finish()?;
    match &outcome {
        MemberOutcome::Ok(stats) if !stats.deadlocked && stats.deadlock.is_none() => Ok(outcome),
        // A well-formed entry holding anything else violates the store
        // policy — treat it as damage rather than serving it.
        _ => Err(ArtifactError::Malformed { context: "memo entry holds a non-Ok outcome".into() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{DeadlockReport, ProgressStage, SimStats};

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("dvi-memo-unit-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ResultCache::open(dir).expect("cache opens")
    }

    fn ok_outcome(seed: u64) -> MemberOutcome {
        MemberOutcome::Ok(SimStats {
            cycles: seed * 31 + 1,
            program_instrs: seed + 500,
            ..SimStats::default()
        })
    }

    #[test]
    fn store_then_probe_hits_bit_identically() {
        let cache = temp_cache("roundtrip");
        let outcome = ok_outcome(3);
        cache.store(0xAAAA, 0xBBBB, &outcome).expect("stores");
        match cache.probe(0xAAAA, 0xBBBB) {
            CacheProbe::Hit(found) => assert_eq!(*found, outcome),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(cache.probe(0xAAAA, 0xCCCC), CacheProbe::Miss);
        assert_eq!(cache.probe(0xDDDD, 0xBBBB), CacheProbe::Miss);
    }

    /// Statistics of a watchdog abort (`head_seq` as given).
    fn deadlocked_stats(head_seq: Option<u64>) -> SimStats {
        let report = DeadlockReport {
            stall_cycle: 120,
            detected_cycle: 100_121,
            window_occupancy: 5,
            head_seq,
            last_stage: ProgressStage::Fetch,
        };
        SimStats { deadlocked: true, deadlock: Some(report), ..SimStats::default() }
    }

    /// One outcome of each kind.
    fn every_outcome_kind() -> [MemberOutcome; 4] {
        let partial = deadlocked_stats(Some(99));
        let report = partial.deadlock.expect("just set");
        [
            ok_outcome(3),
            MemberOutcome::Degraded { stats: SimStats::default(), reason: "injected fault".into() },
            MemberOutcome::Deadlocked { partial, report },
            MemberOutcome::Panicked { payload: "worker died".into() },
        ]
    }

    #[test]
    fn non_ok_outcomes_are_never_memoized() {
        let cache = temp_cache("policy");
        for (config, outcome) in (0u64..).zip(every_outcome_kind()).skip(1) {
            cache.store(1, config, &outcome).expect("store is a no-op");
            assert!(!cache.entry_path(1, config).exists(), "{outcome} wrote an entry");
            assert_eq!(cache.probe(1, config), CacheProbe::Miss);
        }
    }

    #[test]
    fn corruption_and_truncation_degrade_to_damaged() {
        let cache = temp_cache("damage");
        cache.store(7, 9, &ok_outcome(7)).expect("stores");
        let path = cache.entry_path(7, 9);
        let clean = std::fs::read(&path).expect("entry exists");

        std::fs::write(&path, &clean[..clean.len() - 3]).expect("truncates");
        assert!(matches!(
            cache.probe(7, 9),
            CacheProbe::Damaged(ArtifactError::TruncatedArtifact { .. })
        ));

        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).expect("corrupts");
        assert!(matches!(
            cache.probe(7, 9),
            CacheProbe::Damaged(ArtifactError::ChecksumMismatch { .. })
        ));

        // A rewrite from a fresh live run heals the entry.
        cache.store(7, 9, &ok_outcome(7)).expect("re-stores");
        assert!(matches!(cache.probe(7, 9), CacheProbe::Hit(_)));
    }

    #[test]
    fn key_mismatch_under_a_renamed_file_is_damaged_not_served() {
        let cache = temp_cache("rename");
        cache.store(10, 20, &ok_outcome(1)).expect("stores");
        // Simulate an operator mv-ing an entry onto another key's name.
        std::fs::rename(cache.entry_path(10, 20), cache.entry_path(10, 21)).expect("renames");
        assert!(matches!(
            cache.probe(10, 21),
            CacheProbe::Damaged(ArtifactError::FingerprintMismatch { .. })
        ));
    }

    /// A version-1 entry — counters from before each record was counted
    /// once — stored under a current key is damage, never served as a hit.
    #[test]
    fn a_version_one_entry_probes_damaged_not_hit() {
        let cache = temp_cache("v1");
        let mut key = ByteWriter::new();
        key.put_u64(3);
        key.put_u64(4);
        let mut w = ArtifactWriter::new(MEMO_MAGIC, 1);
        w.section(section::KEY, key.into_bytes());
        w.section(section::OUTCOME, encoded(&ok_outcome(2)));
        std::fs::write(cache.entry_path(3, 4), w.to_bytes()).expect("entry writes");
        assert_eq!(
            cache.probe(3, 4),
            CacheProbe::Damaged(ArtifactError::VersionSkew { found: 1, supported: MEMO_VERSION })
        );
        // The re-run's store replaces it with a current entry.
        cache.store(3, 4, &ok_outcome(2)).expect("re-stores");
        assert_eq!(cache.probe(3, 4), CacheProbe::Hit(Box::new(ok_outcome(2))));
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = temp_cache("clear");
        cache.store(1, 1, &ok_outcome(1)).expect("stores");
        cache.store(1, 2, &ok_outcome(2)).expect("stores");
        cache.clear().expect("clears");
        assert_eq!(cache.probe(1, 1), CacheProbe::Miss);
        assert_eq!(cache.probe(1, 2), CacheProbe::Miss);
    }

    /// Two service turns can finish the same shared member at once: every
    /// concurrent store of one key succeeds, and a reader probing meanwhile
    /// sees a miss or the whole entry, never a torn one.
    #[test]
    fn concurrent_stores_of_one_key_never_tear_the_entry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const WRITERS: usize = 4;
        let cache = temp_cache("concurrent");
        let outcome = ok_outcome(11);
        let done = AtomicBool::new(false);
        // Every thread starts at once, so the stores overlap each other and
        // the reader's probes.
        let start = Barrier::new(WRITERS + 1);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let mut damaged = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    if let CacheProbe::Damaged(e) = cache.probe(5, 6) {
                        damaged.push(e);
                    }
                }
                damaged
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..200).map(|_| cache.store(5, 6, &outcome)).collect::<Vec<_>>()
                    })
                })
                .collect();
            let stores: Vec<_> =
                writers.into_iter().flat_map(|w| w.join().expect("writer thread")).collect();
            done.store(true, Ordering::Relaxed);
            let damaged = reader.join().expect("reader thread");
            let failed: Vec<_> = stores.iter().filter_map(|r| r.as_ref().err()).collect();
            assert_eq!(failed, Vec::<&ArtifactError>::new(), "concurrent stores failed");
            assert_eq!(damaged, vec![], "a probe saw a torn entry");
        });
        assert_eq!(cache.probe(5, 6), CacheProbe::Hit(Box::new(outcome)));
    }

    /// An entry file under key (1, 2) whose outcome section is `payload`.
    fn entry_with(payload: Vec<u8>) -> Vec<u8> {
        let mut key = ByteWriter::new();
        key.put_u64(1);
        key.put_u64(2);
        let mut w = ArtifactWriter::new(MEMO_MAGIC, MEMO_VERSION);
        w.section(section::KEY, key.into_bytes());
        w.section(section::OUTCOME, payload);
        w.to_bytes()
    }

    fn encoded(outcome: &MemberOutcome) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_outcome(&mut w, outcome);
        w.into_bytes()
    }

    /// The decoder fails closed: an entry of any outcome kind cut at every
    /// length or with any byte flipped, and checksum-valid entries whose
    /// outcome payload carries a bad tag or a short string, all probe as
    /// `Damaged` — never a hit, never a panic. Only the intact `Ok` entry
    /// hits.
    #[test]
    fn the_decoder_fails_closed_on_every_damaged_entry() {
        let cache = temp_cache("fail-closed");
        let path = cache.entry_path(1, 2);
        let probe = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("entry writes");
            cache.probe(1, 2)
        };
        let assert_damaged = |bytes: &[u8], what: &str| {
            let found = probe(bytes);
            assert!(matches!(found, CacheProbe::Damaged(_)), "{what}: probe returned {found:?}");
        };
        for outcome in every_outcome_kind() {
            let clean = entry_with(encoded(&outcome));
            if matches!(outcome, MemberOutcome::Ok(_)) {
                assert_eq!(probe(&clean), CacheProbe::Hit(Box::new(outcome.clone())));
            } else {
                assert_damaged(&clean, &format!("intact {outcome}"));
            }
            for len in 0..clean.len() {
                assert_damaged(&clean[..len], &format!("{outcome} cut at {len}"));
            }
            for at in 0..clean.len() {
                for mask in [0x01u8, 0xFF] {
                    let mut flipped = clean.clone();
                    flipped[at] ^= mask;
                    assert_damaged(&flipped, &format!("{outcome} byte {at} ^ {mask:#x}"));
                }
            }
        }

        let set = |mut bytes: Vec<u8>, from_end: usize, value: u8| {
            let at = bytes.len() - from_end;
            bytes[at] = value;
            bytes
        };
        // `Ok` statistics end in the deadlock-report tag; with a report
        // whose `head_seq` is absent they end in the head_seq and stage tags.
        let ok = encoded(&ok_outcome(3));
        let with_report = encoded(&MemberOutcome::Ok(deadlocked_stats(None)));
        // Strings are a u64 length then the bytes.
        let panicked = encoded(&MemberOutcome::Panicked { payload: "worker died".into() });
        let mut trailing = ok.clone();
        trailing.push(0);
        for (what, payload) in [
            ("outcome tag", set(ok.clone(), ok.len(), 4)),
            ("deadlock-report tag", set(ok.clone(), 1, 2)),
            ("head_seq tag", set(with_report.clone(), 2, 2)),
            ("progress stage tag", set(with_report.clone(), 1, 2)),
            ("ok outcome carrying a deadlock report", with_report),
            ("trailing byte", trailing),
            ("string shorter than its length", panicked[..panicked.len() - 1].to_vec()),
            ("string length past the payload", set(panicked.clone(), panicked.len() - 8, 0xFF)),
            ("non-UTF-8 string", set(panicked, 1, 0xFF)),
        ] {
            assert_damaged(&entry_with(payload), what);
        }
    }
}
