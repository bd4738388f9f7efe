//! Quickstart: build a workload, compile it with and without DVI
//! annotations, and compare the two machines — then sweep a whole
//! register-file grid through the matrix runner.
//!
//! Run with `cargo run --release --example quickstart`.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::CapturedTrace;
use dvi_sim::{MatrixRunner, SimConfig, Simulator};
use dvi_workloads::WorkloadSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a small synthetic benchmark (deterministic for a seed).
    let spec = WorkloadSpec::small("quickstart", 42);
    let bare = dvi_workloads::generate(&spec);
    println!(
        "generated `{}`: {} procedures, {} static instructions",
        spec.name,
        bare.procedures.len(),
        bare.num_instrs()
    );

    // 2. Compile it: prologues/epilogues with live-store/live-load, plus one
    //    E-DVI kill before each call site whose callee-saved values are dead.
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&bare, &abi, dvi_compiler::CompileOptions::default())?;
    println!("compiler report: {}", compiled.report);

    // 3. Lay it out and record its dynamic trace once: the same capture
    //    replays (bit-identically) on every machine configuration, so a
    //    sweep pays the functional interpreter only once.
    let layout = compiled.program.layout()?;
    let trace = CapturedTrace::record(&layout, 100_000);
    println!("captured {} records ({} KB)", trace.len(), trace.approx_bytes() / 1024);

    // 4. Time it on the paper's machine, with and without DVI: one
    //    `Simulator` per machine, each run over a replay of the capture.
    let baseline = Simulator::new(SimConfig::micro97()).run(trace.replay());
    let with_dvi =
        Simulator::new(SimConfig::micro97().with_dvi(DviConfig::full())).run(trace.replay());

    println!("baseline machine : {baseline}");
    println!("DVI machine      : {with_dvi}");
    println!(
        "saves/restores eliminated: {:.1}%  |  IPC speedup: {:+.2}%",
        with_dvi.pct_save_restores_eliminated(),
        100.0 * (with_dvi.ipc() / baseline.ipc() - 1.0)
    );

    // 5. A design-space sweep: the matrix runner times a whole
    //    register-file grid over the capture, every member on its own
    //    plain core, spread over the host's threads.
    let sizes = [34usize, 40, 48, 64, 80];
    let grid = sizes.map(|n| SimConfig::micro97().with_phys_regs(n).with_dvi(DviConfig::full()));
    let swept = MatrixRunner::new(vec![(&trace, grid.to_vec())]).run().into_cells();
    println!("register-file sweep ({} configs over one capture):", sizes.len());
    for (n, outcome) in sizes.iter().zip(&swept[0]) {
        let stats = outcome.stats().expect("every sweep member produced statistics");
        println!("  {n:>3} phys regs: IPC {:.3}", stats.ipc());
    }
    Ok(())
}
