//! Durability of the trace artifact format.
//!
//! A saved [`CapturedTrace`] must survive the disk round trip bit-exactly —
//! same replayed stream, same summary, same fingerprint — for traces of any
//! length, with or without an attached dependence graph (which is never
//! written). And because sweeps are driven from these artifacts, a
//! *damaged* artifact must never replay garbage: every truncation has to
//! surface as [`ArtifactError::TruncatedArtifact`] (or a header error) and
//! every flipped payload byte as [`ArtifactError::ChecksumMismatch`] naming
//! the corrupted section, never as a panic or a silently different trace.
//!
//! Older versions still load: versions 2–3 (a stored PC column) and
//! version 4 (a packed DEPGRAPH section, checksummed but not decoded).

use dvi_program::artifact::{ArtifactReader, ArtifactWriter};
use dvi_program::captured::{section, TRACE_MAGIC, TRACE_VERSION};
use dvi_program::depgraph::link;
use dvi_program::{
    ArtifactError, CapturedTrace, DepGraph, LayoutProgram, ProcBuilder, ProgramBuilder, DATA_BASE,
};
use proptest::prelude::*;

use dvi_isa::{AluOp, ArchReg, CmpOp, Instr};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

/// A program exercising every record shape the codec has to carry: ALU ops,
/// loads/stores (side addresses), taken and fall-through branches, calls,
/// returns (redirects) and the final halt.
fn mixed_program(iters: i32) -> LayoutProgram {
    let mut b = ProgramBuilder::new();
    let mut main = ProcBuilder::new("main");
    let body = main.new_block();
    main.emit(Instr::load_imm(r(8), iters));
    main.emit(Instr::load_imm(r(9), DATA_BASE as i32));
    main.switch_to(body);
    main.emit(Instr::Store { rs: r(8), base: r(9), offset: 0 });
    main.emit(Instr::Load { rd: r(10), base: r(9), offset: 0 });
    main.emit_call("leaf");
    main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(8), rs: r(8), imm: 1 });
    main.emit_branch(CmpOp::Ne, r(8), ArchReg::ZERO, body);
    let exit = main.new_block();
    main.switch_to(exit);
    main.emit(Instr::Halt);
    b.add_procedure(main).unwrap();
    let mut leaf = ProcBuilder::new("leaf");
    leaf.emit(Instr::Alu { op: AluOp::Add, rd: ArchReg::RV, rs: ArchReg::A0, rt: r(8) });
    leaf.emit(Instr::Return);
    b.add_procedure(leaf).unwrap();
    b.build("main").unwrap().layout().unwrap()
}

/// A program whose registers are read more than 16383 records after their
/// last write (two far dependence links, one of them across a call).
fn far_link_program() -> LayoutProgram {
    let mut b = ProgramBuilder::new();
    let mut main = ProcBuilder::new("main");
    let body = main.new_block();
    main.emit(Instr::load_imm(r(16), 5));
    main.emit(Instr::load_imm(r(8), 3));
    main.emit(Instr::load_imm(r(9), 9_000));
    main.switch_to(body);
    main.emit(Instr::AluImm { op: AluOp::Sub, rd: r(9), rs: r(9), imm: 1 });
    main.emit_branch(CmpOp::Ne, r(9), ArchReg::ZERO, body);
    let exit = main.new_block();
    main.switch_to(exit);
    main.emit_call("leaf");
    main.emit(Instr::Alu { op: AluOp::Add, rd: r(10), rs: r(16), rt: r(8) });
    main.emit(Instr::Halt);
    b.add_procedure(main).unwrap();
    let mut leaf = ProcBuilder::new("leaf");
    leaf.emit(Instr::Nop);
    leaf.emit(Instr::Return);
    b.add_procedure(leaf).unwrap();
    b.build("main").unwrap().layout().unwrap()
}

/// Re-encodes `trace` (and its attached graph, if any) in the layout of
/// trace-artifact `version` 2, 3 or 4. Every one of them appends a
/// fusion-build time (`bool` + `u64`) to META's summary. Versions 2 and 3
/// also drop the first PC from META, add a PCS section with one `u32` per
/// record, and write the DEPGRAPH section as absolute `u32` producer links
/// (`u32::MAX` = none) followed by one flag byte per record — bits 0–3
/// the (E-DVI, I-DVI) cut pairs of operands 0 and 1, and on every third
/// record a since-removed dead-value bit. Version 2 adds a per-record
/// call-depth column. Version 4 writes the graph as packed `[u16; 2]` rows
/// followed by the far table.
fn legacy_artifact(trace: &CapturedTrace, version: u32) -> Vec<u8> {
    let bytes = trace.to_bytes();
    let current = ArtifactReader::parse(&bytes, TRACE_MAGIC, TRACE_VERSION).unwrap();
    let mut w = ArtifactWriter::new(TRACE_MAGIC, version);
    let mut meta = current.section(section::META).unwrap().to_vec();
    meta.extend_from_slice(&[1, 7, 0, 0, 0, 0, 0, 0, 0]);
    if version < 4 {
        meta.drain(16..20);
    }
    w.section(section::META, meta);
    for tag in [section::STATIC_INSTRS, section::STATIC_PROCS] {
        w.section(tag, current.section(tag).unwrap().to_vec());
    }
    if version < 4 {
        w.section(section::PCS, trace.replay().flat_map(|d| d.pc.to_le_bytes()).collect());
    }
    for tag in [section::FLAGS, section::MEM_ADDRS, section::REDIRECTS] {
        w.section(tag, current.section(tag).unwrap().to_vec());
    }
    let Some(graph) = trace.depgraph() else { return w.to_bytes() };
    let mut payload = (graph.len() as u64).to_le_bytes().to_vec();
    if version >= 4 {
        let mut far = Vec::new();
        for record in 0..graph.len() {
            for (operand, word) in graph.row(record).into_iter().enumerate() {
                payload.extend_from_slice(&word.to_le_bytes());
                if word & link::DISTANCE == link::FAR {
                    let producer = graph.source(record, operand).producer.unwrap();
                    far.push((record as u32, operand as u8, producer));
                }
            }
        }
        payload.extend_from_slice(&(far.len() as u64).to_le_bytes());
        for (record, operand, producer) in far {
            payload.extend_from_slice(&record.to_le_bytes());
            payload.push(operand);
            payload.extend_from_slice(&producer.to_le_bytes());
        }
    } else {
        for record in 0..graph.len() {
            for operand in 0..2 {
                let producer = graph.source(record, operand).producer.unwrap_or(u32::MAX);
                payload.extend_from_slice(&producer.to_le_bytes());
            }
        }
        for record in 0..graph.len() {
            let mut f = if record % 3 == 0 { 1 << 4 } else { 0 };
            for operand in 0..2 {
                let dep = graph.source(record, operand);
                f |= (u8::from(dep.edvi_cut) | u8::from(dep.idvi_cut) << 1) << (2 * operand);
            }
            payload.push(f);
        }
        if version < 3 {
            for record in 0..graph.len() {
                payload.extend_from_slice(&u32::try_from(record % 7).unwrap().to_le_bytes());
            }
        }
    }
    w.section(section::DEPGRAPH, payload);
    w.to_bytes()
}

/// Rebuilds `bytes` with `edit` applied to the payload of section `tag`
/// and every checksum recomputed, so the damage reaches the decoder
/// instead of being caught by the container.
fn with_section_edited(bytes: &[u8], tag: u32, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let reader = ArtifactReader::parse(bytes, TRACE_MAGIC, TRACE_VERSION).unwrap();
    let mut w = ArtifactWriter::new(TRACE_MAGIC, reader.version());
    for (t, start, len) in section_spans(bytes) {
        let mut payload = bytes[start..start + len].to_vec();
        if t == tag {
            edit(&mut payload);
        }
        w.section(t, payload);
    }
    w.to_bytes()
}

/// Asserts both graphs give every record the same `source()` rows.
fn assert_same_sources(got: &DepGraph, want: &DepGraph) {
    assert_eq!(got.len(), want.len());
    assert_eq!(got.far_links(), want.far_links());
    for record in 0..want.len() {
        for operand in 0..2 {
            assert_eq!(
                got.source(record, operand),
                want.source(record, operand),
                "record {record} operand {operand}"
            );
        }
    }
}

/// Walks the artifact container and yields `(tag, payload_start, payload_len)`
/// for every section, so the corruption tests can aim one byte flip at each
/// section's payload individually.
fn section_spans(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut spans = Vec::with_capacity(count);
    let mut at = 16usize;
    for _ in 0..count {
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + 20; // tag (4) + len (8) + checksum (8)
        spans.push((tag, payload, len));
        at = payload + len;
    }
    assert_eq!(at, bytes.len(), "section walk must cover the whole artifact");
    spans
}

proptest! {
    #[test]
    fn save_then_load_is_identity_for_any_recording_length(
        step_limit in 1u64..600,
        iters in 1i32..24,
        with_graph in any::<bool>(),
    ) {
        let layout = mixed_program(iters);
        let mut trace = CapturedTrace::record(&layout, step_limit);
        if with_graph {
            trace.build_depgraph();
        }
        let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("clean bytes load");
        prop_assert_eq!(loaded.len(), trace.len());
        prop_assert_eq!(loaded.summary(), trace.summary());
        prop_assert_eq!(loaded.fingerprint(), trace.fingerprint());
        prop_assert_eq!(
            loaded.replay().collect::<Vec<_>>(),
            trace.replay().collect::<Vec<_>>()
        );
        prop_assert!(loaded.depgraph().is_none(), "the graph is never written");
    }

    #[test]
    fn every_truncation_is_rejected_with_a_typed_error(cut_seed in any::<u64>()) {
        let mut trace = CapturedTrace::record(&mixed_program(6), 400);
        trace.build_depgraph();
        let bytes = trace.to_bytes();
        // One arbitrary interior cut per case, plus the boundary cuts every
        // case checks: nothing, half a header, and one missing tail byte.
        let arbitrary = 1 + (cut_seed as usize % (bytes.len() - 1));
        for cut in [0usize, 7, 15, arbitrary, bytes.len() - 1] {
            let err = CapturedTrace::from_bytes(&bytes[..cut])
                .expect_err("a truncated artifact must not load");
            prop_assert!(
                matches!(
                    err,
                    ArtifactError::TruncatedArtifact { .. } | ArtifactError::BadMagic { .. }
                ),
                "cut at {} gave {:?}",
                cut,
                err
            );
        }
    }
}

#[test]
fn one_flipped_byte_in_any_section_is_a_checksum_mismatch() {
    let mut trace = CapturedTrace::record(&mixed_program(5), 300);
    trace.build_depgraph();
    let bytes = trace.to_bytes();
    let spans = section_spans(&bytes);
    assert_eq!(spans.len(), 6, "the trace artifact carries exactly the core sections");
    for (tag, start, len) in spans {
        if len == 0 {
            continue;
        }
        // Flip one byte in the middle of this section's payload.
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x40;
        let err =
            CapturedTrace::from_bytes(&corrupt).expect_err("a corrupted artifact must not load");
        assert_eq!(
            err,
            ArtifactError::ChecksumMismatch { section: tag },
            "flip in section {tag} must be pinned to that section"
        );
    }
}

#[test]
fn header_corruption_reports_magic_and_version_errors() {
    let trace = CapturedTrace::record(&mixed_program(3), 100);
    let bytes = trace.to_bytes();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    let mut expected_found = TRACE_MAGIC;
    expected_found[0] ^= 0xff;
    assert_eq!(
        CapturedTrace::from_bytes(&wrong_magic).expect_err("bad magic must not load"),
        ArtifactError::BadMagic { found: expected_found, expected: TRACE_MAGIC }
    );

    let mut future_version = bytes.clone();
    future_version[8..12].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
    assert_eq!(
        CapturedTrace::from_bytes(&future_version).expect_err("future version must not load"),
        ArtifactError::VersionSkew { found: TRACE_VERSION + 1, supported: TRACE_VERSION }
    );
}

/// Version-2 and version-3 artifacts — a stored PC column and a DEPGRAPH
/// section of absolute `u32` producer links — load to a bit-identical
/// replay. Their graph section is not decoded; rebuilding the graph from
/// the loaded trace gives the same `source()` rows, far links included.
#[test]
fn version_3_artifact_loads_to_an_identical_replay_and_graph() {
    for layout in [mixed_program(6), far_link_program()] {
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        let graph = trace.build_depgraph();
        for version in [2, 3] {
            let mut loaded = CapturedTrace::from_bytes(&legacy_artifact(&trace, version))
                .expect("a legacy artifact loads");
            assert_eq!(loaded.summary(), trace.summary());
            assert_eq!(loaded.fingerprint(), trace.fingerprint());
            assert_eq!(loaded.replay().collect::<Vec<_>>(), trace.replay().collect::<Vec<_>>());
            assert!(loaded.depgraph().is_none(), "v{version} graph sections are not decoded");
            assert_same_sources(&loaded.build_depgraph(), &graph);
        }
    }
}

/// A version-4 artifact with a packed DEPGRAPH section loads with the same
/// fingerprint and a bit-identical replay; the section is not decoded.
#[test]
fn version_4_artifact_with_a_depgraph_loads_to_the_same_fingerprint_and_replay() {
    for layout in [mixed_program(6), far_link_program()] {
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        trace.build_depgraph();
        let v4 = legacy_artifact(&trace, 4);
        assert!(section_spans(&v4).iter().any(|&(tag, _, _)| tag == section::DEPGRAPH));
        let loaded = CapturedTrace::from_bytes(&v4).expect("a v4 artifact loads");
        assert_eq!(loaded.summary(), trace.summary());
        assert_eq!(loaded.fingerprint(), trace.fingerprint());
        assert_eq!(loaded.replay().collect::<Vec<_>>(), trace.replay().collect::<Vec<_>>());
        assert!(loaded.depgraph().is_none());
    }
}

/// The current version writes no DEPGRAPH section, attached graph or not.
#[test]
fn version_5_writes_no_depgraph_section() {
    let mut trace = CapturedTrace::record(&far_link_program(), u64::MAX);
    trace.build_depgraph();
    assert_eq!(TRACE_VERSION, 5);
    for bytes in [trace.to_bytes(), {
        let path = std::env::temp_dir().join("dvi-artifact-v5-no-depgraph.dvitrace");
        trace.save(&path).expect("save succeeds");
        let bytes = std::fs::read(&path).expect("saved artifact reads back");
        std::fs::remove_file(&path).ok();
        bytes
    }] {
        let tags: Vec<u32> = section_spans(&bytes).into_iter().map(|(tag, _, _)| tag).collect();
        assert!(!tags.contains(&section::DEPGRAPH), "sections written: {tags:?}");
    }
}

/// A byte flip inside a version-4 DEPGRAPH section is still a checksum
/// error pinned to that section, although nothing decodes the section.
#[test]
fn flipped_byte_in_a_version_4_depgraph_section_is_a_checksum_mismatch() {
    let mut trace = CapturedTrace::record(&mixed_program(5), 300);
    trace.build_depgraph();
    let v4 = legacy_artifact(&trace, 4);
    let (_, start, len) = section_spans(&v4)
        .into_iter()
        .find(|&(tag, _, _)| tag == section::DEPGRAPH)
        .expect("the v4 re-encoding carries the graph");
    for at in [start, start + len / 2, start + len - 1] {
        let mut corrupt = v4.clone();
        corrupt[at] ^= 0x40;
        assert_eq!(
            CapturedTrace::from_bytes(&corrupt).expect_err("a corrupted artifact must not load"),
            ArtifactError::ChecksumMismatch { section: section::DEPGRAPH }
        );
    }
}

/// A version-3 PC column that disagrees with the walk the flags and
/// redirect targets derive is rejected, never replayed.
#[test]
fn version_3_pcs_that_disagree_with_the_control_flow_walk_are_rejected() {
    let trace = CapturedTrace::record(&mixed_program(4), 200);
    let v3 = legacy_artifact(&trace, 3);
    for record in [0usize, 1, trace.len() / 2, trace.len() - 1] {
        let bad = with_section_edited(&v3, section::PCS, |pcs| {
            pcs[record * 4] ^= 1;
        });
        assert!(
            matches!(CapturedTrace::from_bytes(&bad), Err(ArtifactError::Malformed { .. })),
            "a wrong PC at record {record} must be malformed"
        );
    }
    let short = with_section_edited(&v3, section::PCS, |pcs| pcs.truncate(pcs.len() - 4));
    assert!(matches!(
        CapturedTrace::from_bytes(&short),
        Err(ArtifactError::TruncatedArtifact { .. })
    ));
    let long = with_section_edited(&v3, section::PCS, |pcs| pcs.extend_from_slice(&[0; 4]));
    assert!(matches!(CapturedTrace::from_bytes(&long), Err(ArtifactError::Malformed { .. })));
}

/// Internally inconsistent version-4 contents behind valid checksums are
/// typed errors, never panics: a derived PC outside the static image and a
/// truncated section. The DEPGRAPH section is not decoded, so damage
/// behind its valid checksum leaves the trace loadable and unchanged.
#[test]
fn damaged_version_4_contents_are_typed_errors() {
    let mut trace = CapturedTrace::record(&far_link_program(), u64::MAX);
    trace.build_depgraph();
    let bytes = legacy_artifact(&trace, 4);
    let malformed = |bytes: &[u8]| {
        matches!(CapturedTrace::from_bytes(bytes), Err(ArtifactError::Malformed { .. }))
    };

    // META: records u64, static length u64, then the first PC.
    let static_len = trace.static_code().len() as u32;
    let outside = with_section_edited(&bytes, section::META, |meta| {
        meta[16..20].copy_from_slice(&static_len.to_le_bytes());
    });
    assert!(malformed(&outside), "a first PC past the image");
    let outside = with_section_edited(&bytes, section::REDIRECTS, |targets| {
        targets[..4].copy_from_slice(&static_len.to_le_bytes());
    });
    assert!(malformed(&outside), "a redirect past the image");

    let early = with_section_edited(&bytes, section::DEPGRAPH, |graph| {
        graph[8..10].copy_from_slice(&1u16.to_le_bytes());
    });
    let loaded = CapturedTrace::from_bytes(&early).expect("an undecoded section cannot fail");
    assert_eq!(loaded.fingerprint(), trace.fingerprint());

    for (tag, _, len) in section_spans(&bytes) {
        if len == 0 || tag == section::DEPGRAPH {
            continue;
        }
        let truncated = with_section_edited(&bytes, tag, |payload| payload.truncate(len - 1));
        let err =
            CapturedTrace::from_bytes(&truncated).expect_err("a truncated section must not load");
        assert!(
            matches!(
                err,
                ArtifactError::TruncatedArtifact { .. } | ArtifactError::Malformed { .. }
            ),
            "section {tag} cut short gave {err:?}"
        );
    }
}

#[test]
fn save_and_load_round_trip_through_the_filesystem() {
    let dir = std::env::temp_dir().join("dvi-artifact-roundtrip-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.dvitrace");

    let mut trace = CapturedTrace::record(&mixed_program(8), 500);
    trace.build_depgraph();
    trace.save(&path).expect("save succeeds");
    let loaded = CapturedTrace::load(&path).expect("load succeeds");
    assert_eq!(loaded.fingerprint(), trace.fingerprint());
    assert_eq!(loaded.replay().collect::<Vec<_>>(), trace.replay().collect::<Vec<_>>());

    // The atomic writer must not leave its temporary file behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|n| n != "trace.dvitrace")
        .collect();
    assert!(leftovers.is_empty(), "stray files after atomic save: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}
