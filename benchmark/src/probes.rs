//! Layer probes of the traced run: direct calls into the public entry point
//! of each layer that a sweep does not expose on its own, timed from here.
//! Every probe that produces statistics is checked against the result the
//! workload already delivered for the same member.

use crate::check;
use crate::report::{RunReport, Spans};
use dvi_core::DviConfig;
use dvi_program::{CapturedTrace, FusionTable};
use dvi_sim::{
    BranchOracle, DviOracle, IcacheOracle, MemberOutcome, SimConfig, Simulator, SweepRunner,
};
use std::collections::BTreeMap;

/// Per-layer metrics, by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Times the trace-pure products of each (trace, grid): the fusion table
/// at the grid's decode width and the branch, I-cache and per-DVI-scheme
/// oracles, as a sweep would record them. Totals are per call of this
/// function. Each trace must carry its dependence graph.
pub fn products(cells: &[(&CapturedTrace, &[SimConfig])], layer: &mut Layer) {
    let mut spans = Spans::new(true);
    for &(trace, configs) in cells {
        let graph = trace.depgraph().expect("probed traces carry their dependence graph");
        let width = configs[0].decode_width;
        spans.time("fusion", || FusionTable::build_shared(trace, graph, width));
        spans.time("branch", || BranchOracle::record(trace, configs[0].predictor));
        spans.time("icache", || IcacheOracle::record(trace, configs[0].icache));
        let mut dvis: Vec<DviConfig> = Vec::new();
        for config in configs {
            if !dvis.contains(&config.dvi) {
                dvis.push(config.dvi);
            }
        }
        for dvi in dvis {
            spans.time("dvi", || DviOracle::record(trace, dvi));
        }
    }
    layer.insert("program.fusion_s", spans.seconds("fusion"));
    layer.insert("sim.products.branch_oracle_s", spans.seconds("branch"));
    layer.insert("sim.products.icache_oracle_s", spans.seconds("icache"));
    layer.insert("sim.products.dvi_oracle_s", spans.seconds("dvi"));
}

/// One member a probe re-runs, with the outcome the workload delivered.
pub type Member<'a> = (&'a CapturedTrace, &'a SimConfig, &'a MemberOutcome);

/// Serial `Simulator::run(trace.replay())` of each member: the timing core
/// with no shared products.
pub fn core(members: &[Member<'_>], layer: &mut Layer, report: &mut RunReport) {
    let mut spans = Spans::new(true);
    for &(trace, config, delivered) in members {
        let stats = spans.time("core", || Simulator::new(config.clone()).run(trace.replay()));
        spans.count("core", stats.program_instrs as f64);
        report.attempted += 1;
        if let Err(e) = check::matches_reference(delivered, &stats) {
            report.fail(format!("serial core run: {e}"));
        }
    }
    layer.insert("sim.core.ns_per_instr", spans.ns_per_unit("core"));
}

/// Serial `SweepRunner::run` of one cell, whose members share the
/// trace-pure products; its ratio to the core probe is what the products
/// are worth per member.
pub fn batch(
    trace: &CapturedTrace,
    configs: &[SimConfig],
    delivered: &[&MemberOutcome],
    layer: &mut Layer,
    report: &mut RunReport,
) {
    let mut spans = Spans::new(true);
    let swept = spans.time("batch", || SweepRunner::new(trace, configs.to_vec()).run());
    for (stats, delivered) in swept.iter().zip(delivered) {
        spans.count("batch", stats.program_instrs as f64);
        report.attempted += 1;
        if let Err(e) = check::matches_reference(delivered, stats) {
            report.fail(format!("batched sweep run: {e}"));
        }
    }
    layer.insert("sim.batch.ns_per_instr", spans.ns_per_unit("batch"));
}

/// Trace artifact encode plus decode, mean seconds per trace; the decoded
/// trace must keep its fingerprint.
pub fn artifact(traces: &[&CapturedTrace], layer: &mut Layer, report: &mut RunReport) {
    let mut spans = Spans::new(true);
    for trace in traces {
        let decoded = spans.time("artifact", || CapturedTrace::from_bytes(&trace.to_bytes()));
        report.attempted += 1;
        match decoded {
            Ok(back) if back.fingerprint() == trace.fingerprint() => {}
            Ok(_) => report.fail("trace artifact round trip changed the trace".into()),
            Err(e) => report.fail(format!("trace artifact round trip failed: {e}")),
        }
    }
    layer.insert("program.artifact_roundtrip_s", spans.mean_seconds("artifact"));
}
