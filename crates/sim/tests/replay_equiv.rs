//! Capture/replay differential tests.
//!
//! The capture-once/replay-many front end (`dvi_program::CapturedTrace`)
//! must be *invisible* to the timing model: replaying a recorded trace
//! through any pipeline core produces `SimStats` bit-identical to feeding
//! the live interpreter into the same core. These tests lock that down:
//!
//! * across the full Figure 10 workload mix (the suite every sweep and the
//!   throughput bench run) on the paper's machine, for the event-driven
//!   core and the full-window-scan reference ([`dvi_sim::legacy`]);
//! * across randomly sampled workload presets, seeds and machine
//!   configurations (register-file size, cache ports, DVI scheme, issue
//!   width), via proptest;
//! * on a program whose dependence links reach further back than the
//!   dependence graph's packed distance field (far links).

use dvi_core::DviConfig;
use dvi_isa::{Abi, AluOp, ArchReg, CmpOp, Instr};
use dvi_program::{CapturedTrace, Interpreter, LayoutProgram, ProcBuilder, ProgramBuilder};
use dvi_sim::{SimConfig, SimStats, Simulator};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

fn live(layout: &LayoutProgram, config: SimConfig, steps: u64) -> SimStats {
    Simulator::new(config).run(Interpreter::new(layout).with_step_limit(steps))
}

fn live_legacy(layout: &LayoutProgram, config: SimConfig, steps: u64) -> SimStats {
    let interp = Interpreter::new(layout).with_step_limit(steps);
    dvi_sim::legacy::LegacySimulator::new(config).run(interp)
}

/// Asserts that replaying `trace` is indistinguishable from live
/// interpretation for the event-driven core and the scan reference under
/// `config`, and that the two cores agree.
fn assert_replay_equivalent(
    layout: &LayoutProgram,
    trace: &CapturedTrace,
    config: &SimConfig,
    steps: u64,
    context: &str,
) {
    let from_live = live(layout, config.clone(), steps);
    let from_replay = Simulator::new(config.clone()).run(trace.replay());
    assert_eq!(
        from_live, from_replay,
        "{context}: replayed stats diverge from live interpretation (event-driven core)"
    );
    assert!(
        !from_live.deadlocked,
        "{context}: the forward-progress watchdog fired on a healthy workload"
    );
    assert_eq!(from_replay.conservation(config), Ok(()), "{context}: counters do not balance");
    let scan_live = live_legacy(layout, config.clone(), steps);
    let scan_replay = dvi_sim::legacy::LegacySimulator::new(config.clone()).run(trace.replay());
    assert_eq!(
        scan_live, scan_replay,
        "{context}: replayed stats diverge from live interpretation (scan reference)"
    );
    assert_eq!(
        from_replay, scan_replay,
        "{context}: event-driven core disagrees with the scan reference"
    );
}

/// The acceptance-criterion test: across the full Figure 10 workload mix,
/// `SimStats` from replayed captured traces are bit-identical to live
/// interpretation for the event-driven core and the scan reference.
#[test]
fn fig10_mix_replay_is_bit_identical_to_live_interpretation() {
    const STEPS: u64 = 20_000;
    let config = SimConfig::micro97().with_dvi(DviConfig::full());
    for spec in presets::save_restore_suite() {
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, STEPS);
        assert!(!trace.is_empty(), "{}: capture produced an empty trace", spec.name);
        assert_replay_equivalent(&layout, &trace, &config, STEPS, &spec.name);
    }
}

/// A recorded trace is machine-independent: one capture serves every
/// machine configuration of a sweep.
#[test]
fn one_capture_serves_many_machine_configurations() {
    let layout = edvi_layout(&presets::perl_like());
    let steps = 15_000;
    let trace = CapturedTrace::record(&layout, steps);
    let machines = [
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(34).with_dvi(DviConfig::idvi_only()),
        SimConfig::micro97().with_cache_ports(1).with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_issue_width(8).with_phys_regs(160).with_dvi(DviConfig::none()),
    ];
    for (i, config) in machines.into_iter().enumerate() {
        assert_replay_equivalent(&layout, &trace, &config, steps, &format!("machine {i}"));
    }
}

/// Replay must also be exact when the trace ends mid-program (step limit)
/// and when the program runs to completion.
#[test]
fn replay_is_exact_for_truncated_and_complete_traces() {
    let layout = edvi_layout(&WorkloadSpec::small("replay-halt", 5));
    let config = SimConfig::micro97().with_dvi(DviConfig::full());
    // Complete run (the small workload halts well inside the limit).
    let complete = CapturedTrace::record(&layout, 1_000_000);
    assert!(complete.summary().halted, "workload must halt for this test");
    assert_replay_equivalent(&layout, &complete, &config, 1_000_000, "complete");
    // Truncated run.
    let truncated = CapturedTrace::record(&layout, 777);
    assert_eq!(truncated.len(), 777);
    assert_replay_equivalent(&layout, &truncated, &config, 777, "truncated");
}

/// A program whose registers are read more than 16383 records after their
/// last write — beyond the dependence graph's packed distance field, so
/// both links live in its far table; r8's also crosses a call (an I-DVI
/// cut).
fn far_link_layout() -> LayoutProgram {
    let r = ArchReg::new;
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

/// Far dependence links change nothing: replay and depgraph wiring stay
/// bit-identical to live interpretation with and without DVI.
#[test]
fn far_dependence_links_replay_bit_identically() {
    let layout = far_link_layout();
    let mut trace = CapturedTrace::record(&layout, u64::MAX);
    assert!(trace.summary().halted);
    assert_eq!(trace.build_depgraph().far_links(), 2, "both reads are far links");
    for dvi in [DviConfig::none(), DviConfig::full()] {
        let config = SimConfig::micro97().with_dvi(dvi);
        assert_replay_equivalent(&layout, &trace, &config, u64::MAX, "far links");
    }
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

proptest! {
    #[test]
    fn replay_matches_live_for_random_presets_and_machines(
        preset in 0usize..7,
        seed in any::<u64>(),
        phys_regs in 34usize..=96,
        ports in 1usize..=3,
        scheme in any::<u8>(),
        wide in any::<bool>(),
    ) {
        let spec = presets::by_index(preset).with_seed(seed).with_outer_iterations(3);
        let layout = edvi_layout(&spec);
        let steps = 2_500;
        let trace = CapturedTrace::record(&layout, steps);
        let mut config = SimConfig::micro97()
            .with_phys_regs(phys_regs)
            .with_cache_ports(ports)
            .with_dvi(dvi_scheme(scheme));
        if wide {
            // Scale the register file with the width so the wide machine is
            // not trivially rename-bound.
            config = config.with_issue_width(8).with_phys_regs(phys_regs * 2);
        }
        assert_replay_equivalent(&layout, &trace, &config, steps, &spec.name);
    }
}
