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
//! One version loads: [`TRACE_VERSION`]. An artifact whose header names any
//! other version is [`ArtifactError::VersionSkew`]. The dynamic columns
//! are LEB128 varint streams; a checksum-valid column that is not a whole
//! sequence of minimal 64-bit varints, or whose entries the records do not
//! consume exactly, is [`ArtifactError::Malformed`].

use dvi_program::artifact::ArtifactWriter;
use dvi_program::captured::{section, TRACE_MAGIC, TRACE_VERSION};
use dvi_program::{
    ArtifactError, CapturedTrace, LayoutProgram, ProcBuilder, ProgramBuilder, DATA_BASE,
};
use proptest::prelude::*;

use dvi_isa::{AluOp, ArchReg, CmpOp, Instr};

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

/// A program exercising every record shape the codec has to carry: ALU ops,
/// loads/stores (memory columns), taken and fall-through branches, calls,
/// returns (return targets) and the final halt.
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

/// Rebuilds `bytes` with `edit` applied to the payload of section `tag`
/// and every checksum recomputed, so the damage reaches the decoder
/// instead of being caught by the container.
fn with_section_edited(bytes: &[u8], tag: u32, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    with_sections_edited(bytes, |t, payload| {
        if t == tag {
            edit(payload);
        }
    })
}

/// [`with_section_edited`] for an edit that touches several sections:
/// `edit` sees every section's tag and payload.
fn with_sections_edited(bytes: &[u8], mut edit: impl FnMut(u32, &mut Vec<u8>)) -> Vec<u8> {
    let mut w = ArtifactWriter::new(TRACE_MAGIC, TRACE_VERSION);
    for (tag, start, len) in section_spans(bytes) {
        let mut payload = bytes[start..start + len].to_vec();
        edit(tag, &mut payload);
        w.section(tag, payload);
    }
    w.to_bytes()
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
        let bytes = trace.to_bytes();
        let loaded = CapturedTrace::from_bytes(&bytes).expect("clean bytes load");
        prop_assert_eq!(loaded.to_bytes(), bytes, "decode then re-encode is the identity");
        prop_assert_eq!(loaded.len(), trace.len());
        prop_assert_eq!(loaded.summary(), trace.summary());
        prop_assert_eq!(loaded.fingerprint(), trace.fingerprint());
        prop_assert_eq!(loaded.static_code(), layout.code());
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
    assert_eq!(spans.len(), 5, "the trace artifact carries exactly the core sections");
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

/// A current artifact relabelled with any older version in its header is
/// refused as version skew: no older layout is read.
#[test]
fn older_version_headers_are_version_skew() {
    let bytes = CapturedTrace::record(&mixed_program(3), 100).to_bytes();
    for version in 1..TRACE_VERSION {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            CapturedTrace::from_bytes(&old).expect_err("an older header must not load"),
            ArtifactError::VersionSkew { found: version, supported: TRACE_VERSION }
        );
    }
}

/// A memory column whose length disagrees with the image is malformed:
/// `MEM` missing the address of a load or store, or carrying one more
/// address than the image's data-cache records consume. Loaded, either
/// would misalign every later address or leave one unread.
#[test]
fn a_memory_column_count_mismatch_is_malformed() {
    let bytes = CapturedTrace::record(&mixed_program(4), 200).to_bytes();
    let short = with_varints_edited(&bytes, section::MEM, |mem| {
        mem.remove(0);
    });
    assert_malformed(&short, "MEM holds");
    let long = with_varints_edited(&bytes, section::MEM, |mem| mem.push(0));
    assert_malformed(&long, "MEM holds");
}

/// The current version writes exactly the five core sections — no
/// dependence graph, attached or not.
#[test]
fn the_current_version_writes_no_depgraph_section() {
    let mut trace = CapturedTrace::record(&far_link_program(), u64::MAX);
    trace.build_depgraph();
    assert_eq!(TRACE_VERSION, 7);
    for bytes in [trace.to_bytes(), {
        let path = std::env::temp_dir().join("dvi-artifact-current-no-depgraph.dvitrace");
        trace.save(&path).expect("save succeeds");
        let bytes = std::fs::read(&path).expect("saved artifact reads back");
        std::fs::remove_file(&path).ok();
        bytes
    }] {
        let tags: Vec<u32> = section_spans(&bytes).into_iter().map(|(tag, _, _)| tag).collect();
        assert_eq!(
            tags,
            [
                section::META,
                section::STATIC_INSTRS,
                section::CONTROL,
                section::RETURNS,
                section::MEM
            ]
        );
    }
}

/// Asserts `bytes` decode to [`ArtifactError::Malformed`] whose context
/// names `reason`.
#[track_caller]
fn assert_malformed(bytes: &[u8], reason: &str) {
    match CapturedTrace::from_bytes(bytes) {
        Err(ArtifactError::Malformed { context }) => {
            assert!(context.contains(reason), "expected {reason:?}, got {context:?}");
        }
        other => panic!("expected a malformed artifact ({reason}), got {other:?}"),
    }
}

/// Replaces the `index`th little-endian `u32` of `payload` with
/// `f(old)`.
fn edit_u32(payload: &mut [u8], index: usize, f: impl Fn(u32) -> u32) {
    let at = index * 4;
    let old = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    payload[at..at + 4].copy_from_slice(&f(old).to_le_bytes());
}

/// The values of a varint column, decoded here without the crate's codec.
fn varints(payload: &[u8]) -> Vec<u64> {
    let (mut values, mut value, mut shift) = (Vec::new(), 0u64, 0);
    for &byte in payload {
        value |= u64::from(byte & 0x7F) << shift;
        shift += 7;
        if byte < 0x80 {
            values.push(value);
            (value, shift) = (0, 0);
        }
    }
    assert_eq!(shift, 0, "a clean column ends on a whole varint");
    values
}

/// The minimal varint encoding of `values`.
fn encode_varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &value in values {
        let mut v = value;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out
}

/// [`with_section_edited`] for a varint column: `edit` sees its values,
/// which are then re-encoded minimally.
fn with_varints_edited(bytes: &[u8], tag: u32, edit: impl Fn(&mut Vec<u64>)) -> Vec<u8> {
    with_section_edited(bytes, tag, |payload| {
        let mut values = varints(payload);
        edit(&mut values);
        *payload = encode_varints(&values);
    })
}

/// A checksum-valid `CONTROL` column that disagrees with the image is
/// malformed, whichever way it disagrees: a run that ends on an ALU
/// record, a run that runs through a call or a return, an empty run, or
/// a run the records never finish.
#[test]
fn control_runs_that_contradict_the_image_are_malformed() {
    let trace = CapturedTrace::record(&mixed_program(4), u64::MAX);
    let records: Vec<_> = trace.replay().collect();
    let instr = |i: usize| trace.static_code()[records[i].pc as usize];
    let bytes = trace.to_bytes();
    // Run 1 is the leaf's `add; return`.
    assert_eq!(instr(5).class(), dvi_isa::InstrClass::IntAlu);
    assert_eq!(instr(6), Instr::Return);

    let short = with_varints_edited(&bytes, section::CONTROL, |c| c[1] -= 1);
    assert_malformed(&short, "a run ends on a int-alu record");
    // Run 0 ends on the call; one record longer runs through it.
    let through_call = with_varints_edited(&bytes, section::CONTROL, |c| c[0] += 1);
    assert_malformed(&through_call, "a call inside a run");
    let through_return = with_varints_edited(&bytes, section::CONTROL, |c| c[1] += 1);
    assert_malformed(&through_return, "a return inside a run");
    let empty = with_varints_edited(&bytes, section::CONTROL, |c| c[2] = 0);
    assert_malformed(&empty, "run 2 is empty");
    let first_empty = with_varints_edited(&bytes, section::CONTROL, |c| c[0] = 0);
    assert_malformed(&first_empty, "run 0 is empty");

    // The halt is the last record; a run past it is never finished.
    let extra = with_varints_edited(&bytes, section::CONTROL, |c| c.push(1));
    assert_malformed(&extra, "CONTROL holds");
}

/// A halt inside a run, or a halt followed by more records, is
/// malformed: a program stops at its halt.
#[test]
fn a_halt_is_the_last_record() {
    let trace = CapturedTrace::record(&mixed_program(2), u64::MAX);
    let bytes = trace.to_bytes();
    // One record more, and the last run one record longer: the halt
    // falls through inside a run.
    let through_halt = with_sections_edited(&bytes, |tag, payload| match tag {
        section::META => edit_u32(payload, 0, |n| n + 1),
        section::CONTROL => {
            let mut runs = varints(payload);
            *runs.last_mut().expect("a run") += 1;
            *payload = encode_varints(&runs);
        }
        _ => {}
    });
    assert_malformed(&through_halt, "a halt inside a run");
    // One record more: the halt replays a second time.
    let repeated = with_sections_edited(&bytes, |tag, payload| match tag {
        section::META => edit_u32(payload, 0, |n| n + 1),
        section::CONTROL => payload.push(1),
        _ => {}
    });
    assert_malformed(&repeated, "halts before the last record");
}

/// The varint columns, with the names the decoder's errors give them.
const VARINT_COLUMNS: [(u32, &str); 3] =
    [(section::CONTROL, "CONTROL"), (section::RETURNS, "RETURNS"), (section::MEM, "MEM")];

/// An entry in any dynamic column that no record consumes is malformed,
/// as is a missing one, and a return to a PC outside the image.
#[test]
fn column_entries_that_no_record_consumes_are_malformed() {
    let trace = CapturedTrace::record(&mixed_program(4), u64::MAX);
    let bytes = trace.to_bytes();
    let static_len = trace.static_code().len() as u64;

    for (tag, name) in VARINT_COLUMNS {
        let extra = with_varints_edited(&bytes, tag, |column| column.push(1));
        assert_malformed(&extra, &format!("{name} holds"));
    }
    let missing_return = with_varints_edited(&bytes, section::RETURNS, |r| {
        r.pop();
    });
    assert_malformed(&missing_return, "RETURNS holds");
    let outside = with_varints_edited(&bytes, section::RETURNS, |r| r[0] = static_len);
    assert_malformed(&outside, "outside the");
    let past_u32 = with_varints_edited(&bytes, section::RETURNS, |r| r[0] = 1 << 32);
    assert_malformed(&past_u32, "outside the");
}

/// The varint columns hold only minimal 64-bit encodings that end inside
/// their section: an overlong varint, a varint cut off by the section end
/// and one past 64 bits are each malformed, in every column.
#[test]
fn a_varint_that_is_not_minimal_complete_and_64_bit_is_malformed() {
    let bytes = CapturedTrace::record(&mixed_program(4), u64::MAX).to_bytes();
    for (tag, name) in VARINT_COLUMNS {
        let entries = varints(&section_payload(&bytes, tag)).len();
        // The first varint padded with a redundant zero group.
        let overlong = with_section_edited(&bytes, tag, |column| {
            let end = column.iter().position(|&b| b < 0x80).expect("a varint");
            column[end] |= 0x80;
            column.insert(end + 1, 0x00);
        });
        assert_malformed(&overlong, &format!("{name} varint 0 is not minimally encoded"));
        let cut = with_section_edited(&bytes, tag, |column| column.push(0x80));
        assert_malformed(&cut, &format!("{name} varint {entries} is cut off by the section end"));
        // Ten bytes carry 70 bits; the tenth may hold only bit 63.
        for tenth in [0x02, 0x81] {
            let wide = with_section_edited(&bytes, tag, |column| {
                column.extend([0xFF; 9]);
                column.push(tenth);
            });
            assert_malformed(&wide, &format!("{name} varint {entries} exceeds 64 bits"));
        }
    }
}

/// A zero run length is malformed wherever it sits: before the first
/// record, between two runs, and after the records end.
#[test]
fn a_zero_run_length_is_malformed() {
    let bytes = CapturedTrace::record(&mixed_program(4), u64::MAX).to_bytes();
    let runs = varints(&section_payload(&bytes, section::CONTROL)).len();
    for (at, run) in [(0, 0), (runs / 2, runs / 2), (runs, runs)] {
        let zero = with_varints_edited(&bytes, section::CONTROL, |c| c.insert(at, 0));
        assert_malformed(&zero, &format!("run {run} is empty"));
    }
}

/// The payload of section `tag`.
fn section_payload(bytes: &[u8], tag: u32) -> Vec<u8> {
    let (_, start, len) =
        section_spans(bytes).into_iter().find(|&(t, _, _)| t == tag).expect("the section");
    bytes[start..start + len].to_vec()
}

/// Internally inconsistent contents behind valid checksums are typed
/// errors, never panics: a first PC or a return target outside the static
/// image, and every section cut short.
#[test]
fn damaged_version_4_contents_are_typed_errors() {
    let trace = CapturedTrace::record(&far_link_program(), u64::MAX);
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
    let outside =
        with_varints_edited(&bytes, section::RETURNS, |targets| targets[0] = static_len.into());
    assert!(malformed(&outside), "a return past the image");

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

    let layout = mixed_program(8);
    let mut trace = CapturedTrace::record(&layout, 500);
    trace.build_depgraph();
    trace.save(&path).expect("save succeeds");
    let loaded = CapturedTrace::load(&path).expect("load succeeds");
    assert_eq!(loaded.fingerprint(), trace.fingerprint());
    assert_eq!(loaded.static_code(), layout.code());
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
