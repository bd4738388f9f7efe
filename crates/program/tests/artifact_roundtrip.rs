//! Durability of the trace artifact format.
//!
//! A saved [`CapturedTrace`] must survive the disk round trip bit-exactly —
//! same replayed stream, same summary, same fingerprint — for traces of any
//! length, with or without the attached dependence graph. And because
//! sweeps are driven from these artifacts, a *damaged* artifact must never
//! replay garbage: every truncation has to surface as
//! [`ArtifactError::TruncatedArtifact`] (or a header error) and every
//! flipped payload byte as [`ArtifactError::ChecksumMismatch`] naming the
//! corrupted section, never as a panic or a silently different trace.
//!
//! The same container carries the sweep runner's oracle bundle
//! (`dvi_sim::RecordedOracles`, a dev-only dependency cycle), so the tail
//! of this suite drills its tagged sections — the D-cache oracle (bundle
//! v2) and the dispatch-group fusion tables (bundle v3) — through the
//! identical gauntlet: bit-exact roundtrip, truncation, checksum
//! corruption pinned to the section tag, version skew and
//! stale-trace-fingerprint rejection.

use dvi_program::artifact::{ArtifactReader, ArtifactWriter};
use dvi_program::captured::{section, TRACE_MAGIC, TRACE_VERSION};
use dvi_program::{
    ArtifactError, CapturedTrace, DepGraph, LayoutProgram, ProcBuilder, ProgramBuilder, DATA_BASE,
};
use dvi_sim::batch::{oracle_section, ORACLES_VERSION};
use dvi_sim::{record_dcache_oracle, RecordedOracles, SimConfig};
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
/// trace-artifact `version` 2 or 3: META without the first PC, a PCS
/// section with one `u32` per record, and a DEPGRAPH section of absolute
/// `u32` producer links (`u32::MAX` = none) followed by one flag byte per
/// record — bits 0–3 the (E-DVI, I-DVI) cut pairs of operands 0 and 1, and
/// on every third record a since-removed dead-value bit the loader must
/// ignore. Version 2 adds the per-record call-depth column.
fn legacy_artifact(trace: &CapturedTrace, version: u32) -> Vec<u8> {
    let bytes = trace.to_bytes();
    let current = ArtifactReader::parse(&bytes, TRACE_MAGIC, TRACE_VERSION).unwrap();
    let mut w = ArtifactWriter::new(TRACE_MAGIC, version);
    let meta = current.section(section::META).unwrap();
    w.section(section::META, [&meta[..16], &meta[20..]].concat());
    for tag in [section::STATIC_INSTRS, section::STATIC_PROCS] {
        w.section(tag, current.section(tag).unwrap().to_vec());
    }
    w.section(section::PCS, trace.replay().flat_map(|d| d.pc.to_le_bytes()).collect());
    for tag in [section::FLAGS, section::MEM_ADDRS, section::REDIRECTS] {
        w.section(tag, current.section(tag).unwrap().to_vec());
    }
    if let Some(graph) = trace.depgraph() {
        let mut payload = (graph.len() as u64).to_le_bytes().to_vec();
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
        w.section(section::DEPGRAPH, payload);
    }
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
        prop_assert_eq!(loaded.depgraph().is_some(), with_graph);
        if let Some(graph) = loaded.depgraph() {
            prop_assert_eq!(graph.len(), trace.len());
        }
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
    assert!(spans.len() >= 6, "the trace artifact carries every core section plus the graph");
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

/// A version-2 artifact, whose DEPGRAPH section still carries the
/// per-record call-depth column that version 3 dropped, loads with the
/// column skipped: the same producer and cut rows come back.
#[test]
fn version_2_depgraph_section_decodes_to_the_same_rows() {
    let mut trace = CapturedTrace::record(&mixed_program(6), 400);
    trace.build_depgraph();
    let graph = trace.depgraph().expect("graph attached");
    let loaded =
        CapturedTrace::from_bytes(&legacy_artifact(&trace, 2)).expect("a v2 artifact loads");
    assert_eq!(loaded.fingerprint(), trace.fingerprint());
    let loaded_graph = loaded.depgraph().expect("the v2 graph section decodes");
    for record in 0..graph.len() {
        assert_eq!(loaded_graph.row(record), graph.row(record), "record {record}");
    }

    // The same section without its depth column is not a v2 section.
    let v3_bytes = legacy_artifact(&trace, 3);
    let mut short = ArtifactWriter::new(TRACE_MAGIC, 2);
    for (tag, start, len) in section_spans(&v3_bytes) {
        short.section(tag, v3_bytes[start..start + len].to_vec());
    }
    assert!(CapturedTrace::from_bytes(&short.to_bytes()).is_err());
}

/// A version-3 artifact — a stored PC column and absolute `u32` producer
/// links — loads to a bit-identical replay and identical `source()` rows,
/// far links included.
#[test]
fn version_3_artifact_loads_to_an_identical_replay_and_graph() {
    for layout in [mixed_program(6), far_link_program()] {
        let mut trace = CapturedTrace::record(&layout, u64::MAX);
        let graph = trace.build_depgraph();
        let loaded =
            CapturedTrace::from_bytes(&legacy_artifact(&trace, 3)).expect("a v3 artifact loads");
        assert_eq!(loaded.summary(), trace.summary());
        assert_eq!(loaded.fingerprint(), trace.fingerprint());
        assert_eq!(loaded.replay().collect::<Vec<_>>(), trace.replay().collect::<Vec<_>>());
        assert_same_sources(loaded.depgraph().expect("the v3 graph converts"), &graph);
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

/// A dependence graph with far links (producers 16383 or more records
/// back) round-trips through the artifact exactly.
#[test]
fn far_links_roundtrip_through_the_artifact() {
    let mut trace = CapturedTrace::record(&far_link_program(), u64::MAX);
    let graph = trace.build_depgraph();
    assert_eq!(graph.far_links(), 2, "the program reads r16 and r8 from far back");
    let loaded = CapturedTrace::from_bytes(&trace.to_bytes()).expect("clean bytes load");
    assert_same_sources(loaded.depgraph().expect("graph travels with the trace"), &graph);
}

/// Internally inconsistent version-4 contents behind valid checksums are
/// typed errors, never panics: a derived PC outside the static image, a
/// link reaching before the trace start, a damaged far table, and a
/// truncated section.
#[test]
fn damaged_version_4_contents_are_typed_errors() {
    let mut trace = CapturedTrace::record(&far_link_program(), u64::MAX);
    trace.build_depgraph();
    let bytes = trace.to_bytes();
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

    // DEPGRAPH: count u64, then one [u16; 2] row per record. Record 0 has
    // no earlier record to link to.
    let early = with_section_edited(&bytes, section::DEPGRAPH, |graph| {
        graph[8..10].copy_from_slice(&1u16.to_le_bytes());
    });
    assert!(malformed(&early), "a link before the trace start");

    // The far table closes the section: count u64, then 9-byte entries
    // (record u32, operand u8, producer u32), two of them here.
    let unsorted = with_section_edited(&bytes, section::DEPGRAPH, |graph| {
        let at = graph.len() - 18;
        let (first, second) = graph[at..].split_at_mut(9);
        first.swap_with_slice(second);
    });
    assert!(malformed(&unsorted), "an unsorted far table");
    let out_of_range = with_section_edited(&bytes, section::DEPGRAPH, |graph| {
        let at = graph.len() - 9;
        graph[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    assert!(malformed(&out_of_range), "a far entry past the last record");

    for (tag, _, len) in section_spans(&bytes) {
        if len == 0 {
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

/// An oracle bundle whose D-cache section is populated from a real
/// recording run over `trace` (the paper geometry), alongside the branch
/// and I-cache streams so the section walker sees a realistic mix.
fn dcache_bundle(trace: &CapturedTrace) -> RecordedOracles {
    let config = SimConfig::micro97();
    RecordedOracles::record(trace, Some(config.predictor), Some(config.icache), &[])
        .with_dcache(config.dmem_geometry(), record_dcache_oracle(trace, &config))
}

#[test]
fn dcache_oracle_section_roundtrips_bit_exactly() {
    let trace = CapturedTrace::record(&mixed_program(6), 400);
    let bundle = dcache_bundle(&trace);
    let bytes = bundle.to_bytes();
    let loaded = RecordedOracles::from_bytes(&bytes, Some(trace.fingerprint()))
        .expect("a clean bundle loads");

    assert_eq!(loaded.trace_fingerprint(), bundle.trace_fingerprint());
    let [(geometry, oracle)] = loaded.dcache() else {
        panic!("the bundle carries exactly one D-cache oracle");
    };
    let [(want_geometry, want)] = bundle.dcache() else { unreachable!("recorded above") };
    assert_eq!(geometry, want_geometry);
    assert!(!want.is_empty(), "the recording run produced data accesses");
    assert_eq!(oracle.geometry(), want.geometry());
    assert_eq!(oracle.len(), want.len());
    assert_eq!(oracle.totals(), want.totals());
    assert_eq!(oracle.addrs(), want.addrs());
    assert_eq!(oracle.writes(), want.writes());
    assert_eq!(oracle.hits(), want.hits());
    assert_eq!(
        oracle.stream_fingerprint(),
        want.stream_fingerprint(),
        "the replayed access stream must hash identically to the recorded one"
    );
}

#[test]
fn truncated_dcache_bundles_are_rejected_with_typed_errors() {
    let trace = CapturedTrace::record(&mixed_program(5), 300);
    let bytes = dcache_bundle(&trace).to_bytes();
    // Every cut that lands inside the D-cache section (the last one
    // written), plus the usual boundary cuts.
    let spans = section_spans(&bytes);
    let (_, dcache_start, dcache_len) =
        *spans.iter().find(|(tag, ..)| *tag == oracle_section::DCACHE).expect("dcache section");
    for cut in [0, 7, 15, dcache_start - 1, dcache_start + dcache_len / 2, bytes.len() - 1] {
        let err = RecordedOracles::from_bytes(&bytes[..cut], None)
            .expect_err("a truncated bundle must not load");
        assert!(
            matches!(err, ArtifactError::TruncatedArtifact { .. } | ArtifactError::BadMagic { .. }),
            "cut at {cut} gave {err:?}"
        );
    }
}

#[test]
fn corrupted_dcache_section_is_a_checksum_mismatch_pinned_to_its_tag() {
    let trace = CapturedTrace::record(&mixed_program(5), 300);
    let bytes = dcache_bundle(&trace).to_bytes();
    for (tag, start, len) in section_spans(&bytes) {
        if len == 0 {
            continue;
        }
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x40;
        let err = RecordedOracles::from_bytes(&corrupt, None)
            .expect_err("a corrupted bundle must not load");
        assert_eq!(
            err,
            ArtifactError::ChecksumMismatch { section: tag },
            "flip in section {tag} must be pinned to that section"
        );
    }
}

/// An oracle bundle whose FUSION sections are populated from real table
/// builds over `trace` (two decode widths), alongside the other streams so
/// the section walker sees a realistic mix.
fn fusion_bundle(trace: &CapturedTrace) -> RecordedOracles {
    let mut owned = trace.clone();
    let config = SimConfig::micro97();
    RecordedOracles::record(trace, Some(config.predictor), Some(config.icache), &[])
        .with_fusion(owned.build_fusion(4))
        .with_fusion(owned.build_fusion(8))
}

#[test]
fn fusion_sections_roundtrip_bit_exactly() {
    let trace = CapturedTrace::record(&mixed_program(6), 400);
    let bundle = fusion_bundle(&trace);
    let bytes = bundle.to_bytes();
    let loaded = RecordedOracles::from_bytes(&bytes, Some(trace.fingerprint()))
        .expect("a clean bundle loads");

    assert_eq!(loaded.fusion().len(), 2, "both width classes survive the trip");
    for (got, want) in loaded.fusion().iter().zip(bundle.fusion()) {
        assert_eq!(got.width(), want.width());
        assert_eq!(got.len(), want.len());
        assert!(want.fused_records() > 0, "the mixed program carries fusable groups");
        assert_eq!(got.group_count(), want.group_count());
        assert_eq!(got.fused_records(), want.fused_records());
        assert_eq!(
            got.to_bytes(),
            want.to_bytes(),
            "width-{} table must survive the round trip bit-exactly",
            want.width()
        );
    }
}

#[test]
fn corrupted_or_truncated_fusion_sections_are_rejected_with_typed_errors() {
    let trace = CapturedTrace::record(&mixed_program(5), 300);
    let bytes = fusion_bundle(&trace).to_bytes();
    let spans = section_spans(&bytes);
    let fusion_spans: Vec<_> =
        spans.iter().filter(|(tag, ..)| *tag == oracle_section::FUSION).collect();
    assert_eq!(fusion_spans.len(), 2, "one section per bundled width");
    for &&(tag, start, len) in &fusion_spans {
        let mut corrupt = bytes.clone();
        corrupt[start + len / 2] ^= 0x40;
        assert_eq!(
            RecordedOracles::from_bytes(&corrupt, None)
                .expect_err("a corrupted bundle must not load"),
            ArtifactError::ChecksumMismatch { section: tag },
            "flip in a fusion section must be pinned to its tag"
        );
        let err = RecordedOracles::from_bytes(&bytes[..start + len / 2], None)
            .expect_err("a truncated bundle must not load");
        assert!(
            matches!(err, ArtifactError::TruncatedArtifact { .. }),
            "cut inside a fusion section gave {err:?}"
        );
    }
}

#[test]
fn dcache_bundle_version_skew_and_stale_fingerprints_are_rejected() {
    let trace = CapturedTrace::record(&mixed_program(4), 250);
    let bytes = dcache_bundle(&trace).to_bytes();

    // A bundle from a future format version must not parse (the D-cache
    // section bumped ORACLES_VERSION to 2 and the fusion tables to 3; a
    // later reader could give its sections new meaning).
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(ORACLES_VERSION + 1).to_le_bytes());
    assert_eq!(
        RecordedOracles::from_bytes(&future, None).expect_err("future version must not load"),
        ArtifactError::VersionSkew { found: ORACLES_VERSION + 1, supported: ORACLES_VERSION }
    );

    // A bundle recorded from a different trace is rejected at load time
    // when the caller supplies the trace fingerprint it expects.
    let other = CapturedTrace::record(&mixed_program(9), 350);
    assert_ne!(other.fingerprint(), trace.fingerprint(), "distinct traces for the stale check");
    assert!(matches!(
        RecordedOracles::from_bytes(&bytes, Some(other.fingerprint())),
        Err(ArtifactError::FingerprintMismatch { .. })
    ));
}
