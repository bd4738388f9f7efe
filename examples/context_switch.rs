//! Dead save/restore elimination across preemptive context switches
//! (Section 6 / Figure 12 in miniature).
//!
//! Run with `cargo run --release --example context_switch`.

use dvi_core::DviConfig;
use dvi_experiments::fig12::{switch_study, SwitchConfig};
use dvi_experiments::Binaries;
use dvi_workloads::presets;

fn main() {
    // Four independently seeded threads of a call-heavy workload, each
    // compiled with E-DVI before calls.
    let spec = presets::perl_like();
    let threads: Vec<_> =
        (0..4).map(|i| Binaries::build(&spec.clone().with_seed(1000 + i)).edvi).collect();

    let run = |label: &str, dvi: DviConfig| {
        let config = SwitchConfig { quantum: 5_000, max_instructions: 400_000, dvi };
        let stats = switch_study(&threads, config);
        println!(
            "{label:<18} {:>5} switches   {:>5.1} live regs on average   {:>5.1}% fewer saves+restores",
            stats.switches,
            stats.avg_live_registers(),
            stats.reduction_pct()
        );
    };

    println!(
        "context-switch save/restore elimination ({} threads of `{}`)",
        threads.len(),
        spec.name
    );
    run("no DVI", DviConfig::none());
    run("I-DVI only", DviConfig::idvi_only());
    run("E-DVI and I-DVI", DviConfig::full());
    println!("(the paper reports 42% with I-DVI only and 51% with E-DVI as well)");
}
