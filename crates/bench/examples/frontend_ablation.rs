//! Front-end cost ablation: how much host time does each trace source
//! cost, in isolation and end-to-end, and how does the plain replay back
//! end split between trace production, the D-cache model and the rest?
//!
//! Measures, on the Figure 10 mix (min-of-5 wall clock):
//!
//! * draining a replayed [`CapturedTrace`] with no simulator attached,
//! * draining the live interpreter with no simulator attached,
//! * building the trace's dependence graph (the one-off precompute),
//! * driving the mix's memory references through a standalone copy of the
//!   machine's memory hierarchy ([`SimConfig::memory`]) in trace order —
//!   an isolated lower bound on the D-cache model's share of the back end,
//! * the full event-driven simulator fed by replay — the per-member steady
//!   state of every sweep,
//! * the same simulator on the perfect-L1D machine
//!   ([`SimConfig::with_perfect_dcache`], **a different modelled machine**
//!   — printed for the host-cost contrast),
//! * the full event-driven simulator fed by live interpretation.
//!
//! The replay-vs-interp difference is the end-to-end value of
//! capture-once/replay-many, and the final **back-end decomposition**
//! line splits the plain-replay steady state into trace production, the
//! isolated D-cache model drive and the residual window/scheduler/rename
//! core — the decomposition the ROADMAP's performance tables quote.
//!
//! Run with `cargo run --release -p dvi-bench --example frontend_ablation`.

use dvi_core::DviConfig;
use dvi_experiments::Binaries;
use dvi_program::{CapturedTrace, DepGraph, Interpreter};
use dvi_sim::{SimConfig, Simulator};
use std::time::Instant;

const INSTRS_PER_RUN: u64 = 60_000;

fn main() {
    let layouts: Vec<_> = dvi_workloads::presets::save_restore_suite()
        .iter()
        .map(|spec| Binaries::build(spec).edvi)
        .collect();
    let traces: Vec<_> = layouts.iter().map(|l| CapturedTrace::record(l, INSTRS_PER_RUN)).collect();
    let dynamic_instrs: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let config = SimConfig::micro97().with_dvi(DviConfig::full());

    let time = |label: &str, f: &dyn Fn() -> u64| -> f64 {
        let mut best = f64::MAX;
        let mut checksum = 0u64;
        for _ in 0..5 {
            let start = Instant::now();
            checksum = f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        let ns_per_instr = best * 1e9 / dynamic_instrs as f64;
        println!(
            "{label}: {ns_per_instr:.1} ns/instr ({:.2} MIPS, checksum {checksum})",
            dynamic_instrs as f64 / best / 1e6
        );
        ns_per_instr
    };

    let replay_drain = time("replay-drain (trace production only)", &|| {
        traces.iter().map(|t| t.replay().map(|d| u64::from(d.pc)).sum::<u64>()).sum()
    });
    time("interp-drain (trace production only)", &|| {
        layouts
            .iter()
            .map(|l| {
                Interpreter::new(l)
                    .with_step_limit(INSTRS_PER_RUN)
                    .map(|d| u64::from(d.pc))
                    .sum::<u64>()
            })
            .sum()
    });
    time("depgraph-build (one-off precompute)", &|| {
        traces.iter().map(|t| DepGraph::build(t).len() as u64).sum()
    });
    // Lower bound on the D-cache model's share of the back end: the
    // mix's memory references driven through a standalone hierarchy in
    // trace order, with none of the window/scheduler machinery around it.
    // (The in-pipeline access order differs — issue order, interleaved
    // with L1I misses on the shared L2 — so this isolates the model's
    // tag-walk/LRU cost, not an exact slice of the end-to-end number.)
    let dcache_drive = time("dcache-drive (mix mem refs through a standalone hierarchy)", &|| {
        traces
            .iter()
            .map(|t| {
                let mut mem = config.memory();
                t.replay()
                    .filter(|d| d.instr.class().uses_cache_port())
                    .map(|d| {
                        let addr = d.mem_addr.expect("memory records carry an address");
                        mem.data_access(addr).latency
                    })
                    .sum::<u64>()
            })
            .sum()
    });
    let replay_ns = time("sim+replay (sweep steady state: plain replay back end)", &|| {
        traces.iter().map(|t| Simulator::new(config.clone()).run(t.replay()).program_instrs).sum()
    });
    // A *different modelled machine* (every data access hits in one
    // cycle): a second host-cost contrast for the D-cache share (fewer
    // simulated stall cycles AND no tag walks).
    let perfect = config.clone().with_perfect_dcache();
    time("sim+replay+perfect-L1D (different machine: always-hit data side)", &|| {
        traces.iter().map(|t| Simulator::new(perfect.clone()).run(t.replay()).program_instrs).sum()
    });
    time("sim+interp (pre-capture behaviour)", &|| {
        layouts
            .iter()
            .map(|l| {
                Simulator::new(config.clone())
                    .run(Interpreter::new(l).with_step_limit(INSTRS_PER_RUN))
                    .program_instrs
            })
            .sum()
    });
    // The back-end split of the sweep steady state: what the ROADMAP's
    // decomposition tables quote. Trace production and the
    // isolated D-cache drive are measured above; the remainder is the
    // window/scheduler/rename core plus everything the isolation cannot
    // capture (issue-order effects, shared-L2 interleaving).
    println!(
        "backend-decomposition: replay steady state {replay_ns:.1} ns/instr = replay-drain \
         {replay_drain:.1} + dcache-model ≈{dcache_drive:.1} + window/sched/rename residual \
         ≈{:.1}",
        (replay_ns - replay_drain - dcache_drive).max(0.0)
    );
}
