//! End-to-end trace-artifact durability drill, runnable in CI:
//!
//! 1. record a trace (with its dependence graph attached), save it to a
//!    checksummed artifact and load it back — the reload must replay
//!    bit-identically;
//! 2. truncate the file and corrupt one payload byte — both damaged copies
//!    must be **rejected with typed errors**, never loaded;
//! 3. re-encode the trace as a version-3 artifact (stored PC column,
//!    absolute `u32` producer links) — the current loader must replay it
//!    bit-identically and rebuild the same dependence graph;
//! 4. print one `trace-artifact: ...` line per step for the CI job to grep.
//!
//! ```text
//! cargo run --release -p dvi-program --example trace_artifact
//! ```

use dvi_isa::{AluOp, ArchReg, CmpOp, Instr};
use dvi_program::artifact::{ArtifactReader, ArtifactWriter};
use dvi_program::captured::{section, TRACE_MAGIC, TRACE_VERSION};
use dvi_program::{ArtifactError, CapturedTrace, ProcBuilder, ProgramBuilder, DATA_BASE};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

/// Re-encodes `trace` and its attached graph in the version-3 layout: META
/// without the first PC, a PCS section with one `u32` per record, and a
/// DEPGRAPH section of absolute `u32` producer links (`u32::MAX` = none)
/// followed by one flag byte per record whose bits 0–3 are the (E-DVI,
/// I-DVI) cut pairs of operands 0 and 1.
fn version_3_bytes(trace: &CapturedTrace) -> Vec<u8> {
    let bytes = trace.to_bytes();
    let current = ArtifactReader::parse(&bytes, TRACE_MAGIC, TRACE_VERSION).expect("clean bytes");
    let copy = |tag| current.section(tag).expect("section present").to_vec();
    let graph = trace.depgraph().expect("graph attached");
    let mut links = (graph.len() as u64).to_le_bytes().to_vec();
    let mut cuts = Vec::with_capacity(graph.len());
    for record in 0..graph.len() {
        let mut f = 0u8;
        for operand in 0..2 {
            let dep = graph.source(record, operand);
            links.extend_from_slice(&dep.producer.unwrap_or(u32::MAX).to_le_bytes());
            f |= (u8::from(dep.edvi_cut) | u8::from(dep.idvi_cut) << 1) << (2 * operand);
        }
        cuts.push(f);
    }
    links.extend_from_slice(&cuts);
    let meta = copy(section::META);
    let mut w = ArtifactWriter::new(TRACE_MAGIC, 3);
    w.section(section::META, [&meta[..16], &meta[20..]].concat());
    w.section(section::STATIC_INSTRS, copy(section::STATIC_INSTRS));
    w.section(section::STATIC_PROCS, copy(section::STATIC_PROCS));
    w.section(section::PCS, trace.replay().flat_map(|d| d.pc.to_le_bytes()).collect());
    w.section(section::FLAGS, copy(section::FLAGS));
    w.section(section::MEM_ADDRS, copy(section::MEM_ADDRS));
    w.section(section::REDIRECTS, copy(section::REDIRECTS));
    w.section(section::DEPGRAPH, links);
    w.to_bytes()
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

    let mut trace = CapturedTrace::record(&layout, 10_000);
    trace.build_depgraph();
    let dir = std::env::temp_dir().join("dvi-trace-artifact-example");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("trace.dvitrace");

    // 1. Save and reload: bit-identical replay, same fingerprint.
    trace.save(&path).expect("artifact saves");
    let loaded = CapturedTrace::load(&path).expect("clean artifact loads");
    assert_eq!(loaded.fingerprint(), trace.fingerprint(), "fingerprint drifted");
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

    // 3. A version-3 artifact still loads, bit-identically.
    let v3_path = dir.join("trace-v3.dvitrace");
    std::fs::write(&v3_path, version_3_bytes(&trace)).expect("v3 artifact writes");
    let old = CapturedTrace::load(&v3_path).expect("a version-3 artifact loads");
    assert_eq!(old.fingerprint(), trace.fingerprint(), "v3 fingerprint drifted");
    assert_eq!(
        old.replay().collect::<Vec<_>>(),
        trace.replay().collect::<Vec<_>>(),
        "a version-3 artifact must replay bit-identically"
    );
    let (old_graph, graph) = (old.depgraph().expect("v3 graph"), trace.depgraph().expect("graph"));
    for record in 0..graph.len() {
        assert_eq!(old_graph.row(record), graph.row(record), "v3 graph row {record}");
    }
    println!("trace-artifact: version-3 artifact loaded and replayed bit-identically");

    std::fs::remove_dir_all(&dir).ok();
    println!("trace-artifact: ok");
}
