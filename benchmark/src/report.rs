//! Metric names and units, summary statistics, host context, and the span
//! recorder the traced run wraps around calls into each layer.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: what a user of the figure code or the sweep
/// service sees. Every workload reports every one of them (see README.md
/// for what "job" means on the batch workloads).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p90_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("compiler.compile_s", "s"),
    ("program.capture_ns_per_instr", "ns/instr"),
    ("program.depgraph_ns_per_instr", "ns/instr"),
    ("program.fusion_s", "s"),
    ("program.trace_bytes_per_instr", "B/instr"),
    ("program.artifact_roundtrip_s", "s"),
    ("sim.products.branch_oracle_s", "s"),
    ("sim.products.icache_oracle_s", "s"),
    ("sim.products.dvi_oracle_s", "s"),
    ("sim.products.builds", "count"),
    ("sim.products.reuse_hits", "count"),
    ("sim.core.ns_per_instr", "ns/instr"),
    ("sim.batch.ns_per_instr", "ns/instr"),
    ("sim.matrix.wall_s", "s"),
    ("sim.matrix.unique_members", "count"),
    ("sim.matrix.member_dedup_hits", "count"),
    ("sim.matrix.threads", "count"),
    ("sim.matrix.shard_steals", "count"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.worker_utilization", "fraction"),
    ("service.cache_hit_rate", "fraction"),
    ("service.members_simulated", "count"),
    ("service.matrix_turns", "count"),
    ("service.cache_damaged", "count"),
    ("service.worker_deaths", "count"),
    ("service.cache.probe_hit_s", "s"),
    ("service.cache.store_s", "s"),
    ("service.http.upload_s", "s"),
    ("service.http.submit_s", "s"),
    ("service.http.poll_s", "s"),
    ("service.http.results_s", "s"),
    ("service.http.polls_per_job", "count"),
    ("model.ipc_mean", "instr/cycle"),
    ("model.rename_stall_no_reg_per_kinstr", "1/kinstr"),
    ("model.rename_stall_no_window_per_kinstr", "1/kinstr"),
    ("model.bpred_mispredict_rate", "fraction"),
    ("model.l1d_miss_rate", "fraction"),
    ("model.l1i_miss_rate", "fraction"),
    ("model.saves_restores_eliminated_frac", "fraction"),
    ("model.fusion_coverage", "fraction"),
    ("host.nproc", "count"),
    ("host.effective_parallelism", "cpus"),
    ("trace.overhead_frac", "fraction"),
    ("failed_frac", "fraction"),
];

/// One run's outcome: the contract's counters plus both metric sets.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted (members checked on the batch workloads, jobs on
    /// the service workload, plus every reference re-simulation).
    pub attempted: u64,
    /// Attempted operations that failed or returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics of the untraced passes.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// End-to-end metrics of the traced passes (trace runs only).
    pub end_to_end_traced: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (trace runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable notes (failures, host context).
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records a failure with its reason (the first few reasons are kept).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failed <= 20 {
            self.notes.push(format!("FAILED: {reason}"));
        }
    }

    /// Whether every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The contract's result line: one JSON object with the end-to-end
    /// metrics (`traced == false`) or the per-layer metrics.
    ///
    /// # Panics
    ///
    /// Panics if a named metric was not measured or is not finite — a bug
    /// in the benchmark, which must never print a partial result.
    pub fn json_line(&self, traced: bool) -> String {
        let (names, values) =
            if traced { (PER_LAYER, &self.per_layer) } else { (END_TO_END, &self.end_to_end) };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The resident-memory high-water mark of this process, in MiB (Linux
/// `VmHWM`; 0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs the host actually delivers to `k` concurrent spin workers: `k`
/// times the time one worker takes alone over the time `k` of them take
/// together (medians of three). A 2-vCPU host that delivers one CPU reads
/// about 1.0 here, whatever `nproc` says.
pub fn effective_parallelism(k: usize) -> f64 {
    const SPIN: u64 = 50_000_000;
    let spin = || {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..SPIN {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        x
    };
    let timed = |workers: usize| {
        let start = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(spin)).collect();
            for handle in handles {
                handle.join().expect("spin worker does not panic");
            }
        });
        start.elapsed().as_secs_f64()
    };
    let alone = median(&[timed(1), timed(1), timed(1)]);
    let together = median(&[timed(k), timed(k), timed(k)]);
    k as f64 * alone / together
}

/// Aggregated spans: per name, the calls, the host seconds inside them and
/// the work units they processed. Disabled, `time` is a plain call, so the
/// untraced passes run the same code without the clock reads.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, Span>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Span {
    calls: u64,
    seconds: f64,
    units: f64,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, totals: BTreeMap::new() }
    }

    /// Turns recording on or off for the following calls.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f`, recording its host time under `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let span = self.totals.entry(name).or_default();
        span.calls += 1;
        span.seconds += start.elapsed().as_secs_f64();
        out
    }

    /// Adds `units` of work (records, bytes, polls) to `name`'s span.
    pub fn count(&mut self, name: &'static str, units: f64) {
        if self.enabled {
            self.totals.entry(name).or_default().units += units;
        }
    }

    /// Total host seconds recorded under `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |s| s.seconds)
    }

    /// Calls recorded under `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |s| s.calls as f64)
    }

    /// Work units recorded under `name`.
    pub fn units(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |s| s.units)
    }

    /// Mean host seconds per call under `name`.
    pub fn mean_seconds(&self, name: &str) -> f64 {
        ratio(self.seconds(name), self.calls(name))
    }

    /// Host nanoseconds per work unit under `name`.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        ratio(self.seconds(name) * 1e9, self.units(name))
    }

    /// Folds another recorder's spans into this one.
    pub fn merge(&mut self, other: &Spans) {
        for (name, span) in &other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.calls += span.calls;
            mine.seconds += span.seconds;
            mine.units += span.units;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        spans.count("x", 3.0);
        assert_eq!(spans.calls("x"), 0.0);
        spans.set_enabled(true);
        spans.time("x", || ());
        spans.count("x", 3.0);
        assert_eq!((spans.calls("x"), spans.units("x")), (1.0, 3.0));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
