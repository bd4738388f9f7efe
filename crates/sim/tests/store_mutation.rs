//! The result store's decoder fails closed on checksum-valid damage.
//!
//! A store entry is a checksummed container, so a cut or a flipped byte is
//! refused before the outcome codec runs (the store's unit tests try every
//! cut and every flipped byte). This loop reaches the codec itself: each
//! mutant takes an entry of one [`MemberOutcome`] kind, flips a bit of its
//! outcome payload, cuts it short, or splices up to 8 bytes into it, and
//! re-encodes the container with fresh checksums. The probe must then
//! report the entry `Damaged`, or serve a `Hit` that is an `Ok` outcome
//! whose encoding is exactly the mutated payload; a panic fails the test.
//!
//! The loop is deterministic (a fixed SplitMix64 seed) and hand-rolled:
//! the vendored proptest runs a fixed 64 cases without shrinking. CI also
//! runs it in release.

use dvi_program::artifact::{ArtifactWriter, ByteWriter};
use dvi_sim::checkpoint::write_outcome;
use dvi_sim::store::{CacheProbe, ResultCache, MEMO_MAGIC, MEMO_VERSION};
use dvi_sim::{DeadlockReport, MemberOutcome, ProgressStage, SimStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;
use common::{mutate, sections};

/// Checksum-valid mutants per run.
const MUTANTS: usize = 12_000;

/// The key every entry of the loop is stored and probed under.
const KEY: (u64, u64) = (0x7EAC, 0xC0F1);

/// The outcome's variant name, for the report.
fn kind_name(outcome: &MemberOutcome) -> &'static str {
    match outcome {
        MemberOutcome::Ok(_) => "Ok",
        MemberOutcome::Degraded { .. } => "Degraded",
        MemberOutcome::Deadlocked { .. } => "Deadlocked",
        MemberOutcome::Panicked { .. } => "Panicked",
    }
}

fn encoded(outcome: &MemberOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_outcome(&mut w, outcome);
    w.into_bytes()
}

/// One outcome of each kind, with every optional field present somewhere
/// so the mutants reach each branch of the codec.
fn every_outcome_kind() -> Vec<MemberOutcome> {
    let stats = SimStats { cycles: 9_001, program_instrs: 7_000, ..SimStats::default() };
    let report = DeadlockReport {
        stall_cycle: 120,
        detected_cycle: 100_121,
        window_occupancy: 5,
        head_seq: Some(99),
        last_stage: ProgressStage::Fetch,
    };
    let partial = SimStats { deadlocked: true, deadlock: Some(report), ..stats };
    vec![
        MemberOutcome::Ok(stats),
        MemberOutcome::Degraded { stats, reason: "injected fault".into() },
        MemberOutcome::Deadlocked { partial, report },
        MemberOutcome::Panicked { payload: "worker died".into() },
    ]
}

#[test]
fn checksum_valid_outcome_mutants_probe_damaged_or_a_decodable_hit() {
    let dir = std::env::temp_dir().join(format!("dvi-store-mutation-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ResultCache::open(&dir).expect("cache opens");
    let kinds = every_outcome_kind();

    // The container layout comes from a real stored entry: its key section
    // is kept as is, and its outcome section is replaced by each kind's
    // encoding (the store itself writes only `Ok`).
    cache.store(KEY.0, KEY.1, &kinds[0]).expect("stores");
    let path = cache.entry_path(KEY.0, KEY.1);
    let layout = sections(&std::fs::read(&path).expect("entry exists"));
    let outcome_section = layout
        .iter()
        .position(|(_, payload)| *payload == encoded(&kinds[0]))
        .expect("one section holds the outcome");
    let entry = |outcome_payload: &[u8]| {
        let mut w = ArtifactWriter::new(MEMO_MAGIC, MEMO_VERSION);
        for (i, (tag, payload)) in layout.iter().enumerate() {
            let payload = if i == outcome_section { outcome_payload } else { payload };
            w.section(*tag, payload.to_vec());
        }
        w.to_bytes()
    };

    let mut rng = StdRng::seed_from_u64(0x5704_E5EED);
    let (mut damaged, mut hits) = (vec![0usize; kinds.len()], vec![0usize; kinds.len()]);
    let mut failures = Vec::new();
    for mutant in 0..MUTANTS {
        let kind = mutant % kinds.len();
        let mut payload = encoded(&kinds[kind]);
        let description =
            format!("{}: {}", kind_name(&kinds[kind]), mutate(&mut payload, &mut rng));
        std::fs::write(&path, entry(&payload)).expect("entry writes");
        match catch_unwind(AssertUnwindSafe(|| cache.probe(KEY.0, KEY.1))) {
            Ok(CacheProbe::Damaged(_)) => damaged[kind] += 1,
            Ok(CacheProbe::Hit(outcome)) => {
                hits[kind] += 1;
                if !matches!(*outcome, MemberOutcome::Ok(_)) || encoded(&outcome) != payload {
                    failures.push(format!("mutant {mutant} ({description}): served {outcome:?}"));
                }
            }
            Ok(CacheProbe::Miss) => failures.push(format!("mutant {mutant} ({description}): miss")),
            Err(_) => failures.push(format!("mutant {mutant} ({description}): probe panicked")),
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    for (kind, outcome) in kinds.iter().enumerate() {
        println!("{}: {} damaged, {} hits", kind_name(outcome), damaged[kind], hits[kind]);
    }
    assert!(
        failures.is_empty(),
        "{} bad probes, first: {:#?}",
        failures.len(),
        &failures[..3.min(failures.len())]
    );
    assert!(damaged.iter().all(|&n| n > 0), "every kind's mutants reach the refusal paths");
    assert!(hits[0] > 0, "some `Ok` mutants stay decodable");
}
