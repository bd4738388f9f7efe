//! End-to-end trace-artifact durability drill, runnable in CI:
//!
//! 1. record a trace, save it to a checksummed artifact and load it back —
//!    the reload must replay bit-identically;
//! 2. truncate the file and corrupt one payload byte — both damaged copies
//!    must be **rejected with typed errors**, never loaded;
//! 3. relabel the artifact's header as the retired version 6 — the loader
//!    reads one version only, so the copy must be **rejected as version skew**;
//! 4. print one `trace-artifact: ...` line per step for the CI job to grep.
//!
//! ```text
//! cargo run --release -p dvi-program --example trace_artifact
//! ```

use dvi_isa::{AluOp, ArchReg, CmpOp, Instr};
use dvi_program::captured::TRACE_VERSION;
use dvi_program::{ArtifactError, CapturedTrace, ProcBuilder, ProgramBuilder, DATA_BASE};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

fn main() {
    // A small looping program with calls, branches and memory traffic, so
    // the trace exercises every section of the artifact.
    let mut b = ProgramBuilder::new();
    let mut main_proc = ProcBuilder::new("main");
    let body = main_proc.new_block();
    main_proc.emit(Instr::load_imm(r(8), 400));
    main_proc.emit(Instr::load_imm(r(9), DATA_BASE as i32));
    main_proc.switch_to(body);
    main_proc.emit(Instr::Store { rs: r(8), base: r(9), offset: 0 });
    main_proc.emit(Instr::Load { rd: r(10), base: r(9), offset: 0 });
    main_proc.emit_call("leaf");
    main_proc.emit(Instr::AluImm { op: AluOp::Sub, rd: r(8), rs: r(8), imm: 1 });
    main_proc.emit_branch(CmpOp::Ne, r(8), ArchReg::ZERO, body);
    let exit = main_proc.new_block();
    main_proc.switch_to(exit);
    main_proc.emit(Instr::Halt);
    b.add_procedure(main_proc).expect("main adds");
    let mut leaf = ProcBuilder::new("leaf");
    leaf.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: ArchReg::A0, rt: r(8) });
    leaf.emit(Instr::Return);
    b.add_procedure(leaf).expect("leaf adds");
    let layout = b.build("main").expect("program builds").layout().expect("program lays out");

    let trace = CapturedTrace::record(&layout, 10_000);
    let dir = std::env::temp_dir().join("dvi-trace-artifact-example");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("trace.dvitrace");

    // 1. Save and reload: bit-identical replay, same fingerprint.
    trace.save(&path).expect("artifact saves");
    let loaded = CapturedTrace::load(&path).expect("clean artifact loads");
    assert_eq!(loaded.fingerprint(), trace.fingerprint(), "fingerprint drifted");
    assert_eq!(loaded.static_code(), layout.code(), "reloaded image drifted");
    assert_eq!(
        loaded.replay().collect::<Vec<_>>(),
        trace.replay().collect::<Vec<_>>(),
        "reloaded trace must replay bit-identically"
    );
    let bytes = std::fs::read(&path).expect("artifact reads back");
    println!(
        "trace-artifact: saved {} records ({} bytes), reloaded bit-identically",
        trace.len(),
        bytes.len()
    );

    // 2a. Truncation is rejected with a typed error.
    let truncated = &bytes[..bytes.len() / 2];
    match CapturedTrace::from_bytes(truncated) {
        Err(ArtifactError::TruncatedArtifact { context }) => {
            println!("trace-artifact: truncation rejected ({context})");
        }
        other => panic!("truncated artifact must be rejected as truncated, got {other:?}"),
    }

    // 2b. One flipped payload byte is rejected as a checksum mismatch.
    let mut corrupt = bytes.clone();
    let mid = bytes.len() / 2;
    corrupt[mid] ^= 0x20;
    match CapturedTrace::from_bytes(&corrupt) {
        Err(ArtifactError::ChecksumMismatch { section }) => {
            println!(
                "trace-artifact: corruption rejected (checksum mismatch in section {section})"
            );
        }
        other => panic!("corrupted artifact must be rejected by checksum, got {other:?}"),
    }

    // 3. An older header is refused, not decoded under today's layout.
    let mut relabelled = bytes.clone();
    relabelled[8..12].copy_from_slice(&6u32.to_le_bytes());
    match CapturedTrace::from_bytes(&relabelled) {
        Err(ArtifactError::VersionSkew { found: 6, supported }) if supported == TRACE_VERSION => {
            println!("trace-artifact: version-6 header rejected (version skew)");
        }
        other => panic!("a version-6 header must be rejected as version skew, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("trace-artifact: ok");
}
