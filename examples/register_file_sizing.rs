//! Register-file sizing with DVI (Figures 5 and 6 in miniature): sweep the
//! physical register file size and report IPC and IPC/access-time for the
//! baseline and DVI machines.
//!
//! Run with `cargo run --release --example register_file_sizing`.

use dvi_experiments::{fig05, fig06, Budget};
use dvi_workloads::presets;

fn main() {
    // A reduced sweep (three benchmarks, coarse size grid) so the example
    // finishes quickly; `dvi-experiments fig5 fig6` runs the full version.
    let benchmarks = vec![presets::perl_like(), presets::gcc_like(), presets::ijpeg_like()];
    let sizes = vec![34, 38, 42, 46, 50, 56, 64, 72, 80, 96];
    let budget = Budget { instrs_per_run: 60_000 };

    let fig5 = fig05::run_with(budget, &benchmarks, &sizes);
    println!("{fig5}");

    let fig6 = fig06::from_fig05(&fig5);
    println!("{fig6}");

    println!(
        "With DVI the IPC knee (90% of peak) moves from {} to {} physical registers.",
        fig5.knee(0, 0.9).unwrap_or(0),
        fig5.knee(2, 0.9).unwrap_or(0),
    );
}
