//! Dependence-graph differential tests.
//!
//! The precomputed [`DepGraph`] and [`DviOracle`] must carry exactly the
//! facts a machine would re-derive live at dispatch: producer links must
//! match what alias-table renaming resolves (after applying the machine's
//! DVI-reclamation bits to the sever flags), and the oracle's elimination
//! bits and unmap masks must match what a live `DviEngine` decides over
//! the same trace. These tests walk each trace in dispatch order with a
//! live [`RenameState`] + [`DviEngine`] — the exact structures the
//! pipeline uses — and compare every event against the precomputed
//! products, across randomly sampled workload presets, seeds and DVI
//! schemes (extending the `replay_equiv.rs` pattern one layer down: not
//! just "the statistics agree" but "every link and event agrees").
//!
//! End-to-end `SimStats` bit-identity of the depgraph-wired back end is
//! locked by `replay_equiv.rs` and `matrix_equiv.rs`.

use dvi_core::{DviConfig, DviEngine};
use dvi_isa::{Abi, ArchReg, Instr};
use dvi_program::{CapturedTrace, DepGraph, LayoutProgram};
use dvi_sim::{DviOracle, PhysReg, RenameState};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

fn dvi_scheme(index: u8) -> DviConfig {
    match index % 5 {
        0 => DviConfig::none(),
        1 => DviConfig::idvi_only(),
        2 => DviConfig::lvm_scheme(),
        3 => DviConfig::lvm_stack_scheme(),
        _ => DviConfig::full(),
    }
}

/// Walks `trace` in dispatch order with a live `RenameState` + `DviEngine`
/// (a register file large enough that no rename ever stalls, and no
/// releases, so every physical register maps to a unique producing record)
/// and asserts, per record:
///
/// * each source operand's producer under the live alias table equals the
///   graph's link after applying the machine's sever bits and restricting
///   to dispatched records;
/// * each save/restore elimination decision equals the oracle's bit;
/// * each kill/call/return unmap set equals the oracle's recorded mask.
fn assert_products_match_live_walk(trace: &CapturedTrace, dvi: DviConfig, context: &str) {
    let graph = DepGraph::build(trace);
    let oracle = DviOracle::record(trace, dvi);
    assert_eq!(graph.len(), trace.len());

    let phys_regs = 64 + 2 * trace.len();
    let mut rename = RenameState::new(phys_regs);
    let mut engine = DviEngine::new(dvi, Abi::mips_like());
    // Which record produced each physical register (None: initial mapping).
    let mut producer_of: Vec<Option<u32>> = vec![None; phys_regs];
    // Which records actually occupied a window entry.
    let mut dispatched = vec![false; trace.len()];
    let sever_edvi = dvi.use_edvi && dvi.reclaim_phys_regs;
    let sever_idvi = dvi.use_idvi && dvi.reclaim_phys_regs;
    let mut elim_idx = 0usize;
    let mut unmap_idx = 0usize;

    let image = trace.static_code();
    for (i, step) in (0u32..).zip(trace.replay()) {
        let instr = image[step.pc as usize];

        // An unmap closure that records which registers the engine unmaps
        // at this event, for comparison with the oracle's stored mask.
        let mut unmapped = dvi_isa::RegMask::empty();
        let mut unmap = |reg: ArchReg| match rename.unmap(reg) {
            Some(_) => {
                unmapped.insert(reg);
                true
            }
            None => false,
        };

        match instr {
            Instr::Kill { mask } => {
                engine.on_kill(mask, &mut unmap);
                assert_eq!(
                    oracle.unmap_mask(unmap_idx),
                    unmapped,
                    "{context}: kill at record {i} unmaps a different register set"
                );
                unmap_idx += 1;
                continue;
            }
            Instr::LiveStore { rs, .. } => {
                let eliminated = engine.on_save(rs);
                assert_eq!(
                    oracle.eliminated(elim_idx),
                    eliminated,
                    "{context}: save at record {i} disagrees with the oracle"
                );
                elim_idx += 1;
                if eliminated {
                    continue;
                }
            }
            Instr::LiveLoad { rd, .. } => {
                let eliminated = engine.on_restore(rd);
                assert_eq!(
                    oracle.eliminated(elim_idx),
                    eliminated,
                    "{context}: restore at record {i} disagrees with the oracle"
                );
                elim_idx += 1;
                if eliminated {
                    continue;
                }
            }
            _ => {}
        }

        // The record dispatches: check its source links, then rename its
        // destination and process call/return DVI, exactly in the
        // pipeline's order.
        for (k, src) in instr.src_regs().into_iter().enumerate() {
            let Some(reg) = src else { continue };
            let live_producer = rename.lookup(reg).and_then(|p| producer_of[p.0 as usize]);
            let graph_producer = graph
                .source(i as usize, k)
                .producer_for(sever_edvi, sever_idvi)
                .filter(|&j| dispatched[j as usize]);
            assert_eq!(
                live_producer, graph_producer,
                "{context}: record {i} operand {k} ({reg:?}): live alias table and \
                 dependence graph disagree on the producer"
            );
        }
        if let Some(rd) = instr.dst_reg() {
            let (new, _old): (PhysReg, _) =
                rename.rename_dst(rd).expect("oversized register file never stalls");
            producer_of[new.0 as usize] = Some(i);
            engine.on_dest_rename(rd);
        }
        let mut unmapped = dvi_isa::RegMask::empty();
        let mut unmap = |reg: ArchReg| match rename.unmap(reg) {
            Some(_) => {
                unmapped.insert(reg);
                true
            }
            None => false,
        };
        match instr {
            Instr::Call { .. } => {
                engine.on_call(&mut unmap);
                assert_eq!(
                    oracle.unmap_mask(unmap_idx),
                    unmapped,
                    "{context}: call at record {i} unmaps a different register set"
                );
                unmap_idx += 1;
            }
            Instr::Return => {
                engine.on_return(&mut unmap);
                assert_eq!(
                    oracle.unmap_mask(unmap_idx),
                    unmapped,
                    "{context}: return at record {i} unmaps a different register set"
                );
                unmap_idx += 1;
            }
            _ => {}
        }
        dispatched[i as usize] = true;
    }
    assert_eq!(unmap_idx, oracle.unmap_events(), "{context}: unmap event count mismatch");
    assert_eq!(elim_idx, oracle.len(), "{context}: elimination event count mismatch");
}

/// The acceptance-shape deterministic test: the full Figure 10 mix under
/// the paper's four DVI schemes.
#[test]
fn fig10_mix_links_and_events_match_live_derivation() {
    for spec in presets::save_restore_suite() {
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, 8_000);
        assert!(!trace.is_empty());
        for scheme in 0u8..5 {
            let dvi = dvi_scheme(scheme);
            assert_products_match_live_walk(&trace, dvi, &format!("{} scheme {scheme}", spec.name));
        }
    }
}

// Random presets × seeds × DVI schemes: precomputed producer links and
// DVI oracle events match what live `RenameState` + `DviEngine` derive
// during a dispatch-order walk.
proptest! {
    #[test]
    fn links_and_events_match_live_for_random_presets(
        preset in 0usize..7,
        seed in any::<u64>(),
        scheme in any::<u8>(),
    ) {
        let spec = presets::by_index(preset).with_seed(seed).with_outer_iterations(3);
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, 2_500);
        assert_products_match_live_walk(&trace, dvi_scheme(scheme), &spec.name);
    }
}
