//! Bench: end-to-end simulator throughput (simulated-MIPS) on the Figure 10
//! workload mix, comparing three front-end/back-end combinations:
//!
//! * **seed baseline** — the pre-rewrite core preserved in
//!   `dvi_sim::legacy` (the full-window-scan reference model) fed by the
//!   live interpreter;
//! * **live** — the current event-driven core fed by the live
//!   interpreter;
//! * **capture/replay** — the current core fed by a `CapturedTrace`
//!   recorded once per benchmark, the way every figure sweep now runs.
//!   Capture happens outside the timed region: a sweep pays it once and
//!   replays dozens of configurations, so steady-state sweep throughput is
//!   the replay number (the one-off capture cost is reported separately,
//!   next to the one-off dependence-graph build, `depgraph_build_seconds`).
//!
//! All three produce bit-identical `SimStats` (`tests/replay_equiv.rs`,
//! `tests/scheduler_equiv.rs`), so this is a pure host-speed comparison.
//! Three machines are measured: the paper's 4-wide/80-register machine,
//! the scaled 8-wide/160 machine and a 16-wide/320 sweep machine.
//!
//! A separate **sweep** section compares two ways of running a whole
//! configuration grid over the captured traces: the serial capture/replay
//! loop (one `Simulator::run` per grid point) and one `dvi_sim::MatrixRunner`
//! matrix over every (trace, grid) cell — the one sweep runner every
//! figure and the service use. The comparison first asserts both produce
//! bit-identical `SimStats` (at the default and pinned thread counts), so
//! the CI bench-smoke job also acts as a sweep regression test. A
//! **backend** section records the pinned A/B of the SoA back end against
//! the earlier AoS back end (`backend.soa_vs_pr4`; both sides are pinned
//! same-container measurements, see `ab_reference`) next to this run's
//! plain-replay cost.
//!
//! A **matrix** section asserts the matrix's dedup counters on a
//! duplicated submission (one registry entry per distinct trace, the
//! second copy of every cell deduplicated member-for-member).
//!
//! A **service** section measures the persistent sweep service end to end
//! against a direct single-thread `MatrixRunner` pass on the same (trace ×
//! grid) matrix: `service.end_to_end_overhead` is the cold-cache
//! (all-miss) submission relative to the direct runner (target <= 1.05x;
//! the delta is scheduling and result-store writes), and
//! `service.memo_hit_vs_miss` is the cold pass relative to resubmitting
//! the identical jobs against the warm content-addressed cache, which
//! simulates zero members (asserted via the service's own metrics).
//!
//! Besides printing, the bench writes the headline numbers to
//! `BENCH_sim_throughput.json` (next to the crate when run via `cargo
//! bench`) so CI can archive throughput history. Set `BENCH_QUICK=1` for a
//! CI-smoke-sized run (fewer instructions and repetitions, shorter
//! Criterion sampling).

use criterion::{criterion_group, criterion_main, Criterion};
use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, Interpreter, LayoutProgram};
use dvi_service::{JobSpec, ServiceConfig, SweepService, TraceSource};
use dvi_sim::{MatrixRunner, MemberOutcome, SimConfig, SimStats, Simulator};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Whether the bench runs in CI-smoke quick mode.
fn quick_mode() -> bool {
    std::env::var_os("BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Simulated instructions per benchmark per run.
fn instrs_per_run() -> u64 {
    if quick_mode() {
        12_000
    } else {
        60_000
    }
}

/// Interleaved repetitions per measurement (min-of-N).
fn reps() -> usize {
    if quick_mode() {
        2
    } else {
        5
    }
}

/// The PR-4 back end's all-products serial cost on the reference
/// container, in ns/instr: the AoS `InFlight`-ring core, measured at the
/// PR-4 checkout on this machine in the same session the SoA refactor
/// landed (frontend_ablation `sim+replay+shared`, fig10 mix, full DVI,
/// 60k instrs/benchmark; six alternating PR-4/PR-5 binary runs,
/// min-of-all — the same interleaving discipline the in-run comparisons
/// use, at process granularity).
const PR4_ALL_PRODUCTS_NS_PER_INSTR: f64 = 72.2;

/// The SoA core's cost in the same alternating A/B (min-of-all): the
/// authoritative `soa_vs_pr4` numerator. A *pinned pair* is the only
/// honest way to compare across commits on this container — its host
/// speed drifts ±20–30% between runs minutes apart, so dividing a
/// pinned PR-4 number by the current run's measurement would mostly
/// measure the weather. The JSON still records the current run's
/// `soa_ns_per_instr` next to the pinned pair so drift stays visible;
/// after any back-end change, re-run the alternating A/B (build the old
/// checkout's `frontend_ablation` in a worktree, alternate the two
/// binaries, take mins) and refresh both constants, or override with
/// `BENCH_PR4_NS_PER_INSTR` / `BENCH_SOA_NS_PER_INSTR`.
const SOA_ALL_PRODUCTS_NS_PER_INSTR: f64 = 73.4;

/// An A/B-side cost (ns/instr), env-overridable after re-measurement.
fn ab_ns_per_instr(var: &str, default: f64) -> f64 {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The pinned alternating-A/B pair: (PR-4 ns/instr, SoA ns/instr).
fn ab_reference() -> (f64, f64) {
    (
        ab_ns_per_instr("BENCH_PR4_NS_PER_INSTR", PR4_ALL_PRODUCTS_NS_PER_INSTR),
        ab_ns_per_instr("BENCH_SOA_NS_PER_INSTR", SOA_ALL_PRODUCTS_NS_PER_INSTR),
    )
}

/// Builds the E-DVI binaries of the Figure 10 save/restore suite.
fn fig10_mix() -> Vec<LayoutProgram> {
    let abi = Abi::mips_like();
    dvi_workloads::presets::save_restore_suite()
        .iter()
        .map(|spec| {
            let program = dvi_workloads::generate(spec);
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
                .expect("workload compiles")
                .program
                .layout()
                .expect("binary lays out")
        })
        .collect()
}

/// Which front-end/back-end combination a measurement runs.
#[derive(Clone, Copy, PartialEq)]
enum Core {
    /// The seed simulator's back end: full-window scans and per-dispatch
    /// allocation (`dvi_sim::legacy`). Its fetch and dispatch stages are
    /// the shared front end, and it runs over the one interpreter
    /// and its paged memory, so this baseline is *faster* than the true
    /// seed — the reported speedups versus it are conservative.
    SeedBaseline,
    /// The current core fed by the live interpreter.
    Live,
    /// The current core replaying pre-recorded traces (the sweep
    /// configuration).
    Replay,
}

/// The 4-wide machine of Figure 2.
fn narrow_machine() -> SimConfig {
    SimConfig::micro97().with_dvi(DviConfig::full())
}

/// The scaled 8-wide machine (the Figure 11 sensitivity points), with the
/// register file scaled with the width so window occupancy is
/// window-limited rather than register-limited.
fn wide_machine() -> SimConfig {
    SimConfig::micro97().with_issue_width(8).with_phys_regs(160).with_dvi(DviConfig::full())
}

/// A 16-wide, 256-entry-window machine: the regime large design-space
/// sweeps explore, where the seed's per-cycle scans dominate completely.
fn very_wide_machine() -> SimConfig {
    SimConfig::micro97().with_issue_width(16).with_phys_regs(320).with_dvi(DviConfig::full())
}

/// The workload mix plus its once-captured traces.
struct Mix {
    layouts: Vec<LayoutProgram>,
    traces: Vec<CapturedTrace>,
    /// Wall-clock seconds the one-off capture pass took.
    capture_seconds: f64,
    /// Wall-clock seconds the one-off dependence-graph builds took.
    depgraph_seconds: f64,
}

impl Mix {
    fn build() -> Mix {
        let layouts = fig10_mix();
        let start = Instant::now();
        let mut traces: Vec<CapturedTrace> =
            layouts.iter().map(|l| CapturedTrace::record(l, instrs_per_run())).collect();
        let capture_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for trace in &mut traces {
            trace.build_depgraph();
        }
        let depgraph_seconds = start.elapsed().as_secs_f64();
        Mix { layouts, traces, capture_seconds, depgraph_seconds }
    }
}

/// Runs the whole mix once, returning simulated instructions.
fn run_mix(mix: &Mix, config: &SimConfig, core: Core) -> u64 {
    match core {
        Core::Replay => mix
            .traces
            .iter()
            .map(|trace| Simulator::new(config.clone()).run(trace.replay()).program_instrs)
            .sum(),
        _ => mix
            .layouts
            .iter()
            .map(|layout| {
                let interp = Interpreter::new(layout).with_step_limit(instrs_per_run());
                match core {
                    Core::SeedBaseline => {
                        dvi_sim::legacy::LegacySimulator::new(config.clone())
                            .run(interp)
                            .program_instrs
                    }
                    _ => Simulator::new(config.clone()).run(interp).program_instrs,
                }
            })
            .sum(),
    }
}

/// Interleaved min-of-N timing: every core is measured once per round, so
/// host frequency/load drift hits all cores alike and the *ratios* stay
/// meaningful even on a noisy container.
fn simulated_mips_all(mix: &Mix, config: &SimConfig) -> [f64; 3] {
    const CORES: [Core; 3] = [Core::SeedBaseline, Core::Live, Core::Replay];
    let mut best = [f64::MAX; 3];
    let mut instrs = [0u64; 3];
    for (i, &core) in CORES.iter().enumerate() {
        instrs[i] = run_mix(mix, config, core); // warm-up
    }
    for _ in 0..reps() {
        for (i, &core) in CORES.iter().enumerate() {
            let start = Instant::now();
            instrs[i] = run_mix(mix, config, core);
            best[i] = best[i].min(start.elapsed().as_secs_f64());
        }
    }
    let mut mips = [0.0; 3];
    for i in 0..3 {
        mips[i] = instrs[i] as f64 / best[i] / 1.0e6;
    }
    mips
}

/// The 8-configuration sweep grid of the matrix-vs-serial comparison: the
/// register-file axis of the paper's Figure 5 on the 4-wide machine with
/// full DVI.
fn sweep_grid() -> Vec<SimConfig> {
    [34usize, 40, 48, 56, 64, 72, 80, 96]
        .into_iter()
        .map(|n| SimConfig::micro97().with_phys_regs(n).with_dvi(DviConfig::full()))
        .collect()
}

/// The serial capture/replay loop: one `Simulator::run` per (trace,
/// config) pair. Returns total simulated instructions.
fn run_sweep_serial(mix: &Mix, grid: &[SimConfig]) -> u64 {
    mix.traces
        .iter()
        .map(|trace| {
            grid.iter()
                .map(|config| Simulator::new(config.clone()).run(trace.replay()).program_instrs)
                .sum::<u64>()
        })
        .sum()
}

/// The (trace × grid) cells of the mix.
fn sweep_cells<'a>(mix: &'a Mix, grid: &[SimConfig]) -> Vec<(&'a CapturedTrace, Vec<SimConfig>)> {
    mix.traces.iter().map(|trace| (trace, grid.to_vec())).collect()
}

/// The matrix runner: every grid member of every trace in one matrix,
/// spread over the host's threads. Returns total simulated instructions.
fn run_sweep_matrix(mix: &Mix, grid: &[SimConfig]) -> u64 {
    MatrixRunner::new(sweep_cells(mix, grid))
        .run()
        .into_cells()
        .iter()
        .flatten()
        .filter_map(|o| o.stats().map(|s| s.program_instrs))
        .sum()
}

/// Asserts the matrix runner reproduces the serial statistics bit for bit
/// on the bench's own grid and traces, at the default thread count and
/// pinned to 1 and 2 threads (the bench-smoke CI job runs this in quick
/// mode, so a sweep regression fails CI even before the throughput numbers
/// are read).
fn verify_sweep_equivalence(mix: &Mix, grid: &[SimConfig]) {
    let serial: Vec<Vec<SimStats>> = mix
        .traces
        .iter()
        .map(|trace| {
            grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect()
        })
        .collect();
    for threads in [None, Some(1), Some(2)] {
        let mut runner = MatrixRunner::new(sweep_cells(mix, grid));
        if let Some(threads) = threads {
            runner = runner.threads(threads);
        }
        let swept: Vec<Vec<SimStats>> = runner
            .run()
            .into_cells()
            .into_iter()
            .map(|cell| cell.into_iter().map(MemberOutcome::into_stats).collect())
            .collect();
        assert_eq!(
            swept, serial,
            "matrix sweep ({threads:?} threads) diverged from serial replays"
        );
        assert!(
            swept.iter().flatten().all(|s| !s.deadlocked),
            "sweep member hit the deadlock watchdog"
        );
    }
}

/// Interleaved min-of-N for the sweep comparison: (serial MIPS, matrix
/// MIPS).
fn sweep_mips(mix: &Mix, grid: &[SimConfig]) -> (f64, f64) {
    let mut best = [f64::MAX; 2];
    let mut instrs = [0u64; 2];
    for _ in 0..reps() {
        let start = Instant::now();
        instrs[0] = run_sweep_serial(mix, grid);
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        instrs[1] = run_sweep_matrix(mix, grid);
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    assert_eq!(instrs[0], instrs[1], "both sides must simulate the same instructions");
    (instrs[0] as f64 / best[0] / 1.0e6, instrs[1] as f64 / best[1] / 1.0e6)
}

/// Times one save → load round trip of every captured trace in the mix
/// through the checksummed artifact format (fingerprint-verified), in
/// seconds — the cost a sweep service pays to make a capture durable.
fn artifact_save_load_seconds(mix: &Mix) -> f64 {
    let path = std::env::temp_dir().join("dvi-bench-trace.dvitrace");
    let mut best = f64::MAX;
    for _ in 0..reps() {
        let start = Instant::now();
        for trace in &mix.traces {
            trace.save(&path).expect("trace artifact saves");
            let loaded = dvi_program::CapturedTrace::load(&path).expect("trace artifact loads");
            assert_eq!(loaded.fingerprint(), trace.fingerprint(), "artifact round trip drifted");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&path).ok();
    best
}

/// The sweep-service end-to-end numbers (see `service_measurements`).
struct ServiceBenchResult {
    /// Cold-cache service submission wall time relative to a direct
    /// single-thread `MatrixRunner` pass over the same (trace × grid)
    /// matrix. The delta is everything the service adds on a miss:
    /// scheduling and per-member result-store writes. Target <= 1.05x
    /// (printed, not asserted — quick mode's short members bill the fixed
    /// per-write file-system cost against very little simulation).
    end_to_end_overhead: f64,
    /// Cold-cache submission wall time relative to resubmitting the
    /// identical jobs against the warm cache (which simulates nothing).
    memo_hit_vs_miss: f64,
    /// Best direct single-thread `MatrixRunner` pass, seconds.
    direct_seconds: f64,
    /// Best cold-cache service pass, seconds.
    miss_seconds: f64,
    /// Best warm-cache service pass, seconds.
    hit_seconds: f64,
}

/// Times the sweep service end to end against a direct `MatrixRunner` on a
/// fig10-style grid over the mix traces, interleaved min-of-N per side:
/// per repetition a direct serial pass, a cold-cache (all-miss) service
/// submission and a warm-cache (all-hit) resubmission, each asserted
/// bit-identical — so the bench-smoke CI job also regression-tests the
/// service's purity invariant (warm passes must simulate zero members).
/// One single-worker service instance serves every repetition; its memo
/// cache is cleared before each cold pass.
fn service_measurements(mix: &Mix) -> ServiceBenchResult {
    let grid = vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_dvi(DviConfig::lvm_stack_scheme()),
    ];
    let dir = std::env::temp_dir().join(format!("dvi-bench-service-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let service =
        SweepService::start(ServiceConfig::new(&dir).with_workers(1)).expect("service starts");
    let fingerprints: Vec<u64> =
        mix.traces.iter().map(|t| service.register_trace(t.clone())).collect();

    let submit_all = |out: &mut Vec<Vec<MemberOutcome>>| -> f64 {
        out.clear();
        let start = Instant::now();
        let jobs: Vec<u64> = fingerprints
            .iter()
            .map(|fp| {
                service
                    .submit(JobSpec { source: TraceSource::Fingerprint(*fp), grid: grid.clone() })
                    .expect("job submits")
            })
            .collect();
        for job in jobs {
            service.wait(job, Duration::from_secs(3600)).expect("job finishes");
            out.push(service.results(job).expect("job results").outcomes);
        }
        start.elapsed().as_secs_f64()
    };

    let (mut direct_best, mut miss_best, mut hit_best) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..reps() {
        let start = Instant::now();
        let direct = MatrixRunner::new(sweep_cells(mix, &grid)).threads(1).run().into_cells();
        direct_best = direct_best.min(start.elapsed().as_secs_f64());

        service.cache().clear().expect("memo cache clears");
        let mut miss = Vec::new();
        miss_best = miss_best.min(submit_all(&mut miss));
        let simulated_before_warm = service.metrics().members_simulated;
        let mut hit = Vec::new();
        hit_best = hit_best.min(submit_all(&mut hit));

        assert_eq!(miss, direct, "cold-cache service results must match the direct runner");
        assert_eq!(hit, direct, "warm-cache service results must match the direct runner");
        assert_eq!(
            service.metrics().members_simulated,
            simulated_before_warm,
            "the warm resubmission must be served entirely from the memo cache"
        );
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    ServiceBenchResult {
        end_to_end_overhead: miss_best / direct_best,
        memo_hit_vs_miss: miss_best / hit_best,
        direct_seconds: direct_best,
        miss_seconds: miss_best,
        hit_seconds: hit_best,
    }
}

/// The matrix checks' counters (see `matrix_measurements`).
struct MatrixBenchResult {
    /// Cells in the checked matrix (one per trace).
    cells: usize,
    /// Grid slots across all checked cells.
    requested_members: usize,
    /// Distinct traces the registry resolved in the duplicated-cells
    /// check.
    distinct_traces: usize,
    /// Duplicate grid slots that mapped onto an already-registered member
    /// in the duplicated-cells check (the whole second submission).
    member_dedup_hits: u64,
    /// Worker threads the matrix used.
    threads: usize,
}

/// Asserts the matrix's dedup contract on the fig5-style grid over every
/// mix trace: a duplicated-cells run (every cell submitted twice) resolves
/// one registry entry per distinct trace and dedups the entire second
/// submission member-for-member.
fn matrix_measurements(mix: &Mix, grid: &[SimConfig]) -> MatrixBenchResult {
    let cells = sweep_cells(mix, grid);
    let doubled: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        cells.iter().chain(cells.iter()).cloned().collect();
    let reuse = MatrixRunner::new(doubled).run().report;
    let threads = reuse.threads;
    assert_eq!(reuse.distinct_traces, mix.traces.len(), "one registry entry per distinct trace");
    assert_eq!(
        reuse.member_dedup_hits,
        (mix.traces.len() * grid.len()) as u64,
        "the duplicated submission must dedup member-for-member"
    );
    MatrixBenchResult {
        cells: cells.len(),
        requested_members: cells.len() * grid.len(),
        distinct_traces: reuse.distinct_traces,
        member_dedup_hits: reuse.member_dedup_hits,
        threads,
    }
}

/// One machine's headline numbers.
struct MachineResult {
    name: &'static str,
    seed_baseline: f64,
    live: f64,
    replay: f64,
}

/// The sweep-comparison headline numbers.
struct SweepResult {
    configs: usize,
    serial_mips: f64,
    matrix_mips: f64,
    threads: usize,
    /// One save -> load round trip of every trace in the mix, seconds.
    save_load_seconds: f64,
}

/// Writes the headline numbers as a JSON artifact for CI history.
fn write_json(
    results: &[MachineResult],
    sweep: &SweepResult,
    service: &ServiceBenchResult,
    matrix: &MatrixBenchResult,
    mix: &Mix,
) -> std::io::Result<()> {
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_sim_throughput.json".to_owned());
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"sim_throughput\",")?;
    writeln!(f, "  \"quick\": {},", quick_mode())?;
    writeln!(f, "  \"instrs_per_run\": {},", instrs_per_run())?;
    writeln!(f, "  \"capture_seconds\": {:.4},", mix.capture_seconds)?;
    writeln!(f, "  \"depgraph_build_seconds\": {:.4},", mix.depgraph_seconds)?;
    writeln!(f, "  \"simulated_mips\": [")?;
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"machine\": \"{}\", \"seed_baseline\": {:.3}, \"live\": {:.3}, \
             \"replay\": {:.3}, \"replay_vs_seed\": {:.3}, \"replay_vs_live\": {:.3}}}{comma}",
            r.name,
            r.seed_baseline,
            r.live,
            r.replay,
            r.replay / r.seed_baseline,
            r.replay / r.live,
        )?;
    }
    writeln!(f, "  ],")?;
    // The SoA back end against the earlier AoS back end. The ratio comes
    // from the pinned alternating-binary A/B (see `ab_reference` for the
    // methodology and why a cross-run division would be dishonest on
    // this host); this run's plain-replay cost is recorded next to it.
    let narrow = results.first().expect("the narrow machine is measured first");
    let this_run_soa_ns = 1.0e3 / narrow.replay;
    let (pr4_ns, soa_ns) = ab_reference();
    writeln!(
        f,
        "  \"backend\": {{\"soa_ns_per_instr\": {this_run_soa_ns:.2}, \
         \"ab_soa_ns_per_instr\": {soa_ns:.2}, \"ab_pr4_ns_per_instr\": {pr4_ns:.2}, \
         \"soa_vs_pr4\": {:.3}, \
         \"method\": \"pinned alternating-binary A/B (see bench docs)\"}},",
        pr4_ns / soa_ns,
    )?;
    writeln!(
        f,
        "  \"sweep\": {{\"configs\": {}, \"serial_mips\": {:.3}, \"matrix_mips\": {:.3}, \
         \"matrix_threads\": {}}},",
        sweep.configs, sweep.serial_mips, sweep.matrix_mips, sweep.threads,
    )?;
    writeln!(
        f,
        "  \"matrix\": {{\"cells\": {}, \"requested_members\": {}, \
         \"parallel_threads\": {}, \"distinct_traces\": {}, \
         \"member_dedup_hits\": {}}},",
        matrix.cells,
        matrix.requested_members,
        matrix.threads,
        matrix.distinct_traces,
        matrix.member_dedup_hits,
    )?;
    writeln!(f, "  \"artifact\": {{\"save_load_seconds\": {:.4}}},", sweep.save_load_seconds,)?;
    writeln!(
        f,
        "  \"service\": {{\"end_to_end_overhead\": {:.3}, \"memo_hit_vs_miss\": {:.3}, \
         \"direct_seconds\": {:.4}, \"miss_seconds\": {:.4}, \"hit_seconds\": {:.4}}}",
        service.end_to_end_overhead,
        service.memo_hit_vs_miss,
        service.direct_seconds,
        service.miss_seconds,
        service.hit_seconds,
    )?;
    writeln!(f, "}}")?;
    println!("sim_throughput: wrote {path}");
    Ok(())
}

fn bench(c: &mut Criterion) {
    let mix = Mix::build();

    // Headline numbers: simulated-MIPS of the seed core and the rewritten
    // core (live and replay).
    // All model the same machine bit-identically (tests/scheduler_equiv.rs,
    // tests/replay_equiv.rs).
    let machines = [
        ("4-wide/80-reg", narrow_machine()),
        ("8-wide/160-reg", wide_machine()),
        ("16-wide/320-reg", very_wide_machine()),
    ];
    let mut results = Vec::new();
    for (name, config) in &machines {
        let [seed_baseline, live, replay] = simulated_mips_all(&mix, config);
        let r = MachineResult { name, seed_baseline, live, replay };
        println!("sim_throughput/{name}/seed_baseline:  {:.2} simulated-MIPS", r.seed_baseline);
        println!("sim_throughput/{name}/live:           {:.2} simulated-MIPS", r.live);
        println!("sim_throughput/{name}/capture_replay: {:.2} simulated-MIPS", r.replay);
        println!(
            "sim_throughput/{name}/speedup:        {:.2}x vs seed, {:.2}x vs live",
            r.replay / r.seed_baseline,
            r.replay / r.live,
        );
        results.push(r);
    }
    let dynamic_instrs = mix.traces.iter().map(|t| t.len() as u64).sum::<u64>() as f64;
    println!(
        "sim_throughput/capture: one-off capture of the mix took {:.3}s ({:.2} MIPS), amortized \
         across every sweep point",
        mix.capture_seconds,
        dynamic_instrs / mix.capture_seconds / 1.0e6
    );
    println!(
        "sim_throughput/depgraph_build: one-off dependence-graph builds took {:.4}s \
         ({:.1} ns/record)",
        mix.depgraph_seconds,
        mix.depgraph_seconds * 1.0e9 / dynamic_instrs,
    );

    // Matrix-vs-serial sweep comparison: the same 8-configuration grid
    // over the same captured traces, run as 8 serial replays per trace
    // versus one `MatrixRunner` matrix over every cell. The warm-up is a
    // full bit-identity check, so the bench-smoke CI job doubles as a
    // sweep regression test.
    let grid = sweep_grid();
    verify_sweep_equivalence(&mix, &grid);
    let (serial_mips, matrix_mips) = sweep_mips(&mix, &grid);
    let save_load_seconds = artifact_save_load_seconds(&mix);
    let matrix = matrix_measurements(&mix, &grid);
    let service = service_measurements(&mix);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sweep =
        SweepResult { configs: grid.len(), serial_mips, matrix_mips, threads, save_load_seconds };
    println!(
        "sim_throughput/sweep/serial ({} configs): {serial_mips:.2} simulated-MIPS",
        grid.len()
    );
    println!(
        "sim_throughput/sweep/matrix ({} configs, {threads} threads): \
         {matrix_mips:.2} simulated-MIPS",
        grid.len()
    );
    println!(
        "sim_throughput/artifact/save_load:         {save_load_seconds:.4}s for one save -> load \
         round trip of the whole mix"
    );
    println!(
        "sim_throughput/matrix/dedup:               {} cells x {} configs on {} threads; \
         duplicated submission: {} distinct traces, {} member-dedup hits",
        matrix.cells,
        matrix.requested_members / matrix.cells.max(1),
        matrix.threads,
        matrix.distinct_traces,
        matrix.member_dedup_hits,
    );
    println!(
        "sim_throughput/service/end_to_end_overhead: {:.3}x vs direct MatrixRunner (target \
         <= 1.05x; cold cache, single worker, {:.4}s vs {:.4}s)",
        service.end_to_end_overhead, service.miss_seconds, service.direct_seconds,
    );
    println!(
        "sim_throughput/service/memo_hit_vs_miss:    {:.1}x — the identical resubmission is \
         served from the content-addressed cache with zero members simulated ({:.4}s)",
        service.memo_hit_vs_miss, service.hit_seconds,
    );
    let this_run_soa_ns = 1.0e3 / results[0].replay;
    let (pr4_ns, soa_ns) = ab_reference();
    println!(
        "sim_throughput/backend: SoA vs AoS = {:.2}x (pinned alternating A/B: {soa_ns:.1} vs \
         {pr4_ns:.1} ns/instr; this run's plain replay measured {this_run_soa_ns:.1})",
        pr4_ns / soa_ns,
    );

    if let Err(e) = write_json(&results, &sweep, &service, &matrix, &mix) {
        eprintln!("sim_throughput: could not write JSON artifact: {e}");
    }

    let narrow = narrow_machine();
    let wide = wide_machine();
    let mut g = c.benchmark_group("sim_throughput");
    let (warm, measure) = if quick_mode() {
        (Duration::from_millis(200), Duration::from_secs(1))
    } else {
        (Duration::from_secs(1), Duration::from_secs(8))
    };
    g.sample_size(10).warm_up_time(warm).measurement_time(measure);
    g.bench_function("capture_replay_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::Replay));
    });
    g.bench_function("live_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::Live));
    });
    g.bench_function("seed_baseline_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::SeedBaseline));
    });
    g.bench_function("capture_replay_8wide", |b| {
        b.iter(|| run_mix(&mix, &wide, Core::Replay));
    });
    g.bench_function("live_8wide", |b| {
        b.iter(|| run_mix(&mix, &wide, Core::Live));
    });
    g.bench_function("seed_baseline_8wide", |b| {
        b.iter(|| run_mix(&mix, &wide, Core::SeedBaseline));
    });
    g.bench_function("sweep_serial_8cfg", |b| {
        b.iter(|| run_sweep_serial(&mix, &grid));
    });
    g.bench_function("sweep_matrix_8cfg", |b| {
        b.iter(|| run_sweep_matrix(&mix, &grid));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
