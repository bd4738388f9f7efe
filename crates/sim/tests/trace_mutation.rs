//! The trace-artifact decoder fails closed.
//!
//! A trace artifact is the sweeps' durable input, and the service accepts
//! one from any client (`POST /traces`). Whatever the bytes,
//! [`CapturedTrace::from_bytes`] must either refuse them with a typed
//! [`ArtifactError`] or return a trace that the timing core runs to the
//! end without panicking: damage is a refused upload, never a sweep whose
//! members all come back `Panicked`.
//!
//! Two deterministic, seeded loops (hand-rolled: the vendored proptest
//! runs a fixed 64 cases without shrinking):
//!
//! * **container** — every prefix of a small artifact, and every byte of it
//!   flipped with XOR `0x01` and with XOR `0xFF`, is refused;
//! * **decoder** — [`MUTANTS`] checksum-valid mutants: one section's
//!   payload gets a bit flipped, is cut short, or has up to 8 bytes
//!   spliced in, and the container is re-encoded with fresh checksums so
//!   the damage reaches the decoder. Each mutant is refused, or it loads
//!   and the DVI machine simulates it to completion; a panic in either
//!   step fails the test.
//!
//! The decoder also seeds each trace's fingerprint from the section
//! checksums it verified. Every loaded mutant, and every preset trace,
//! must carry the fingerprint its re-encoded sections hash to, and every
//! preset trace must re-encode to the bytes it was decoded from.
//!
//! The trace is about 300 records, so the debug build runs the loop in
//! seconds; CI also runs it in release.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::artifact::{xxh64, ArtifactWriter};
use dvi_program::captured::{section, TRACE_MAGIC, TRACE_VERSION};
use dvi_program::{ArtifactError, CapturedTrace};
use dvi_sim::{SimConfig, Simulator};
use dvi_workloads::{presets, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;
use common::{mutate, sections};

/// Checksum-valid mutants per run of the decoder loop.
const MUTANTS: usize = 10_000;

/// How many of the [`MUTANTS`] the decoder refuses, and an FNV-1a digest of
/// each refused mutant's index and error message. The decoder walks a run
/// of records one by one only when the run fails an O(1) check; these pins,
/// recorded with a decoder that walked every record, hold it to exactly the
/// same refusals and messages.
const REFUSED: usize = 8_563;
const REFUSAL_DIGEST: u64 = 0xd8a8_1131_40c6_47b5;

/// `spec` compiled (saves, restores, E-DVI kills, calls, loads and
/// stores) and captured for at most `records` records.
fn capture(spec: &WorkloadSpec, records: u64) -> CapturedTrace {
    let program = dvi_workloads::generate(spec);
    let compiled =
        dvi_compiler::compile(&program, &Abi::mips_like(), dvi_compiler::CompileOptions::default())
            .expect("workload compiles");
    CapturedTrace::record(&compiled.program.layout().expect("lays out"), records)
}

/// A small workload captured for 300 records.
fn small_trace() -> CapturedTrace {
    let trace = capture(&WorkloadSpec::small("mutants", 5), 300);
    assert_eq!(trace.len(), 300, "the workload runs past the capture limit");
    trace
}

/// The fingerprint computed from the trace's re-encoded artifact: the
/// record count, static length and first PC (the first 20 metadata
/// bytes), then the tag and checksum of every other section, hashed.
fn reencoded_fingerprint(trace: &CapturedTrace) -> u64 {
    let mut key = Vec::new();
    for (tag, payload) in sections(&trace.to_bytes()) {
        if tag == section::META {
            key.extend_from_slice(&payload[..20]);
        } else {
            key.extend_from_slice(&tag.to_le_bytes());
            key.extend_from_slice(&xxh64(&payload, u64::from(tag)).to_le_bytes());
        }
    }
    xxh64(&key, 0)
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Decodes `bytes` and, when they load, checks the seeded fingerprint
/// and simulates them on the DVI machine; `Err` carries the panic message
/// of whichever step panicked.
fn decode_and_run(bytes: &[u8], config: &SimConfig) -> Result<Option<ArtifactError>, String> {
    let decoded = catch_unwind(|| CapturedTrace::from_bytes(bytes))
        .map_err(|p| format!("decoder panicked: {}", panic_message(&*p)))?;
    let trace = match decoded {
        Ok(trace) => trace,
        Err(err) => return Ok(Some(err)),
    };
    assert_eq!(
        trace.fingerprint(),
        reencoded_fingerprint(&trace),
        "the seeded fingerprint differs from the re-encoded one"
    );
    catch_unwind(AssertUnwindSafe(|| Simulator::new(config.clone()).run(trace.replay())))
        .map(|_| None)
        .map_err(|p| format!("core panicked: {}", panic_message(&*p)))
}

#[test]
fn every_cut_and_every_flipped_byte_is_refused() {
    let bytes = small_trace().to_bytes();
    for cut in 0..bytes.len() {
        assert!(CapturedTrace::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} loaded");
    }
    for at in 0..bytes.len() {
        for mask in [0x01, 0xFF] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            assert!(CapturedTrace::from_bytes(&flipped).is_err(), "byte {at} ^ {mask:#04x} loaded");
        }
    }
}

#[test]
fn checksum_valid_section_mutants_are_refused_or_simulate_without_panicking() {
    let clean = sections(&small_trace().to_bytes());
    let config = SimConfig::micro97().with_dvi(DviConfig::full());
    let mut rng = StdRng::seed_from_u64(0x0DD_5EED);
    let (mut refused, mut loaded) = (0usize, 0usize);
    let mut digest = Fnv::new();
    let mut panics = Vec::new();
    for mutant in 0..MUTANTS {
        let victim = rng.gen_range(0..clean.len());
        let mut w = ArtifactWriter::new(TRACE_MAGIC, TRACE_VERSION);
        let mut description = String::new();
        for (i, (tag, payload)) in clean.iter().enumerate() {
            let mut payload = payload.clone();
            if i == victim {
                description = format!("section {tag}: {}", mutate(&mut payload, &mut rng));
            }
            w.section(*tag, payload);
        }
        match decode_and_run(&w.to_bytes(), &config) {
            Ok(Some(err)) => {
                refused += 1;
                digest.write(&(mutant as u64).to_le_bytes());
                digest.write(err.to_string().as_bytes());
            }
            Ok(None) => loaded += 1,
            Err(panic) => panics.push(format!("mutant {mutant} ({description}): {panic}")),
        }
    }
    println!(
        "{MUTANTS} mutants: {refused} refused, {loaded} loaded and simulated; \
         refusal digest {:#018x}",
        digest.0
    );
    assert!(
        panics.is_empty(),
        "{} panics, first: {:#?}",
        panics.len(),
        &panics[..3.min(panics.len())]
    );
    assert!(refused > 0 && loaded > 0, "the loop exercises both the decoder and the core");
    assert_eq!((refused, loaded), (REFUSED, MUTANTS - REFUSED), "the accept/refuse split moved");
    assert_eq!(digest.0, REFUSAL_DIGEST, "a refused mutant or its message changed");
}

#[test]
fn decoded_presets_carry_the_fingerprint_of_their_re_encoding() {
    for spec in presets::all() {
        let trace = capture(&spec, 50_000);
        assert!(trace.len() > 1000, "{}: {} records", spec.name, trace.len());
        let bytes = trace.to_bytes();
        let loaded = CapturedTrace::from_bytes(&bytes).expect("a clean trace loads");
        assert!(loaded.to_bytes() == bytes, "{}: decode then re-encode changed bytes", spec.name);
        assert_eq!(loaded.fingerprint(), reencoded_fingerprint(&loaded), "{}", spec.name);
        assert_eq!(loaded.fingerprint(), trace.fingerprint(), "{}", spec.name);
    }
}
