//! The `service-mixed` workload: closed-loop clients over HTTP against an
//! in-process [`SweepService`] and [`HttpServer`].
//!
//! Set-up generates and compiles the seeded programs, captures their
//! traces, starts the service on a fresh data directory and uploads every
//! trace (`POST /traces`). Each client then submits one job at a time
//! (`POST /jobs`, a grid of [`GRID`] configurations on one trace), polls
//! `GET /jobs/{id}` every [`POLL`], and fetches `GET /jobs/{id}/results`.
//! Half of each grid re-requests configurations the client asked for
//! before, so those members are cache reads. The other half extends the
//! sweep: each trace's seeded configuration order is dealt into one
//! private share per client and one share all clients walk. Two fresh
//! members come from the client's private share and are always simulated,
//! stored and checkpointed; the third comes from the common share, where a
//! client trailing the other meets it deduplicated or cached. Every job
//! thus simulates something, which keeps the latency distribution in one
//! mode.

use crate::check;
use crate::inputs::{self, Rng};
use crate::probes::{self, Layer};
use crate::report::{self, median, quantile, ratio, RunReport, Spans};
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_service::http::{http_json, http_request, HttpServer};
use dvi_service::json::Json;
use dvi_service::{wire, CacheProbe, ResultCache, ServiceConfig, SweepService, TraceSource};
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{MemberOutcome, SimConfig, SimStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configurations per job that an earlier job of the same client asked for.
const REPEATS: usize = 3;
/// Fresh configurations per job from the client's private share.
const PRIVATE_FRESH: usize = 2;
/// Fresh configurations per job from the share every client walks.
const SHARED_FRESH: usize = 1;
/// Configurations per job.
const GRID: usize = REPEATS + PRIVATE_FRESH + SHARED_FRESH;
/// Interval between status polls.
const POLL: Duration = Duration::from_millis(5);
/// A job not done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Members re-simulated through the live path per run.
const LIVE_SAMPLE: usize = 16;

/// Size of the service workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Uploaded traces (one seeded program each).
    pub traces: usize,
    /// Instructions captured per trace.
    pub budget: u64,
    /// Times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    /// Jobs a run completes at least, whatever its time.
    pub min_jobs: usize,
}

impl Shape {
    /// The `service-mixed` workload.
    pub fn service_mixed() -> Shape {
        Shape { traces: 8, budget: 100_000, setup_reps: 21, min_jobs: 100 }
    }

    /// The same workload at a size for self-tests.
    pub fn tiny(self) -> Shape {
        Shape { traces: 2, budget: 4_000, setup_reps: 1, min_jobs: 6 }
    }
}

/// Every configuration a job may ask for: override objects on the Figure 2
/// machine, as the wire format takes them.
fn config_space() -> Vec<Json> {
    let mut space = Vec::new();
    for ports in 1..=2u64 {
        for regs in 34..=192u64 {
            for dvi in ["none", "idvi", "full", "lvm", "lvm-stack"] {
                space.push(Json::obj([
                    ("phys_regs", Json::UInt(regs)),
                    ("cache_ports", Json::UInt(ports)),
                    ("dvi", Json::Str(dvi.into())),
                ]));
            }
        }
    }
    space
}

/// A running service with its uploaded traces.
struct Setup {
    dir: PathBuf,
    service: SweepService,
    server: HttpServer,
    addr: String,
    layouts: Vec<LayoutProgram>,
    traces: Vec<CapturedTrace>,
    fingerprints: Vec<u64>,
}

impl Setup {
    fn start(
        specs: &[dvi_workloads::WorkloadSpec],
        budget: u64,
        dir: &Path,
        spans: &mut Spans,
    ) -> Setup {
        let layouts: Vec<LayoutProgram> =
            specs.iter().map(|spec| inputs::build_edvi(spec, spans)).collect();
        let traces: Vec<CapturedTrace> = layouts
            .iter()
            .map(|layout| {
                let trace = spans.time("capture", || CapturedTrace::record(layout, budget));
                spans.count("capture", trace.len() as f64);
                spans.count("trace_bytes", trace.approx_bytes() as f64);
                trace
            })
            .collect();
        let service = SweepService::start(ServiceConfig::new(dir)).expect("the service starts");
        let server = HttpServer::serve(service.clone(), "127.0.0.1:0").expect("the server binds");
        let addr = server.local_addr().to_string();
        let fingerprints = traces
            .iter()
            .map(|trace| {
                let body = trace.to_bytes();
                let (status, reply) = spans.time("http.upload", || {
                    http_request(&addr, "POST", "/traces", &body, "application/octet-stream")
                        .expect("the trace uploads")
                });
                let reply = Json::parse(std::str::from_utf8(&reply).unwrap_or_default())
                    .expect("the upload reply is JSON");
                let fp = reply
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .and_then(|text| wire::parse_fingerprint(text).ok())
                    .expect("the upload reply names the fingerprint");
                assert!(status == 200 && fp == trace.fingerprint(), "upload of a trace failed");
                fp
            })
            .collect();
        Setup { dir: dir.to_owned(), service, server, addr, layouts, traces, fingerprints }
    }

    fn stop(mut self) {
        self.server.stop();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One finished job.
struct JobRecord {
    latency: f64,
    done: f64,
    traced: bool,
}

/// Member results by (trace, configuration index): the first outcome
/// delivered, and whether any delivery was simulated rather than cached.
type Delivered = BTreeMap<(usize, usize), (MemberOutcome, bool)>;

/// One closed-loop client.
struct Client<'a> {
    addr: &'a str,
    fingerprints: &'a [u64],
    shares: &'a [Vec<Vec<usize>>],
    space: &'a [Json],
    id: usize,
    rng: Rng,
    cursors: Vec<[usize; 2]>,
    history: Vec<Vec<usize>>,
    spans: Spans,
    jobs: Vec<JobRecord>,
    delivered: Delivered,
    report: RunReport,
}

impl Client<'_> {
    /// The next job: a trace, and configuration indices into the space —
    /// repeats from this client's history, then fresh configurations from
    /// its private share of the trace's order and from the shared share.
    fn next_job(&mut self) -> (usize, Vec<usize>) {
        let t = self.rng.below(self.fingerprints.len());
        let mut picks: Vec<usize> = Vec::with_capacity(GRID);
        let known = &self.history[t];
        let repeats = REPEATS.min(known.len());
        while picks.len() < repeats {
            let pick = known[self.rng.below(known.len())];
            if !picks.contains(&pick) {
                picks.push(pick);
            }
        }
        let shares = &self.shares[t];
        for (share, count, cursor) in
            [(self.id, PRIVATE_FRESH, 0), (shares.len() - 1, SHARED_FRESH, 1)]
        {
            let list = &shares[share];
            for _ in 0..count {
                let pick = list[self.cursors[t][cursor] % list.len()];
                self.cursors[t][cursor] += 1;
                if !picks.contains(&pick) {
                    picks.push(pick);
                    self.history[t].push(pick);
                }
            }
        }
        (t, picks)
    }

    /// Submits, polls and fetches one job; returns its outcomes.
    fn job(
        &mut self,
        fingerprint: u64,
        picks: &[usize],
    ) -> Result<Vec<(MemberOutcome, bool)>, String> {
        let grid = Json::Arr(picks.iter().map(|&i| self.space[i].clone()).collect());
        let body = wire::submit_to_json(&TraceSource::Fingerprint(fingerprint), &grid);
        let addr = self.addr;
        let reply = self
            .spans
            .time("http.submit", || http_json(addr, "POST", "/jobs", Some(&body)))
            .map_err(|e| format!("submit: {e}"))?;
        let id = reply.get("job").and_then(Json::as_u64).ok_or("submit reply has no job id")?;
        let deadline = Instant::now() + JOB_TIMEOUT;
        loop {
            std::thread::sleep(POLL);
            let path = format!("/jobs/{id}");
            let status = self
                .spans
                .time("http.poll", || http_json(addr, "GET", &path, None))
                .map_err(|e| format!("poll of job {id}: {e}"))?;
            match status.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some("queued" | "running") if Instant::now() < deadline => {}
                other => return Err(format!("job {id} ended as {other:?}")),
            }
        }
        let path = format!("/jobs/{id}/results");
        let results = self
            .spans
            .time("http.results", || http_json(addr, "GET", &path, None))
            .map_err(|e| format!("results of job {id}: {e}"))?;
        let results = wire::results_from_json(&results).map_err(|e| format!("job {id}: {e}"))?;
        if results.outcomes.len() != picks.len() {
            return Err(format!("job {id} returned {} outcomes", results.outcomes.len()));
        }
        Ok(results.outcomes.into_iter().zip(results.cached).collect())
    }

    /// Checks a job's outcomes and keeps them; the first problem fails the
    /// job.
    fn accept(
        &mut self,
        t: usize,
        picks: &[usize],
        outcomes: Vec<(MemberOutcome, bool)>,
    ) -> Result<(), String> {
        for (&i, (outcome, cached)) in picks.iter().zip(outcomes) {
            check::ok_stats(&outcome).map_err(|e| format!("trace {t} config {i}: {e}"))?;
            match self.delivered.get_mut(&(t, i)) {
                Some((first, simulated)) => {
                    *simulated |= !cached;
                    if *first != outcome {
                        return Err(format!("trace {t} config {i} changed between jobs"));
                    }
                }
                None => {
                    self.delivered.insert((t, i), (outcome, !cached));
                }
            }
        }
        Ok(())
    }
}

/// Runs the service workload for `seconds` and reports it.
pub fn run(shape: Shape, seed: u64, seconds: Duration, trace: bool) -> RunReport {
    let specs = inputs::specs(seed, shape.traces);
    let base = PathBuf::from(".bench_tmp").join(format!("service-mixed-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    let mut setup_spans = Spans::new(trace);
    let mut setup_times = Vec::new();
    let mut setup: Option<Setup> = None;
    for rep in 0..shape.setup_reps {
        if let Some(previous) = setup.take() {
            previous.stop();
        }
        let start = Instant::now();
        let dir = base.join(format!("rep-{rep}"));
        setup = Some(Setup::start(&specs, shape.budget, &dir, &mut setup_spans));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("set-up ran at least once");

    let space = config_space();
    let configs: Vec<SimConfig> =
        wire::grid_from_json(&Json::Arr(space.clone())).expect("the configuration space parses");
    // Closed-loop clients: each sends its next job only once the previous
    // one returned. No more clients than the host has threads.
    let clients = report::nproc().clamp(1, 2);
    let shares: Vec<Vec<Vec<usize>>> = (0..shape.traces)
        .map(|t| {
            let mut order: Vec<usize> = (0..space.len()).collect();
            Rng::new(seed ^ (0x5EED_0000 + t as u64)).shuffle(&mut order);
            (0..=clients)
                .map(|share| order.iter().copied().skip(share).step_by(clients + 1).collect())
                .collect()
        })
        .collect();
    let completed = AtomicUsize::new(0);
    let loop_start = Instant::now();
    let finished: Vec<Client<'_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut client = Client {
                    addr: &setup.addr,
                    fingerprints: &setup.fingerprints,
                    shares: &shares,
                    space: &space,
                    id: c,
                    rng: Rng::new(seed ^ (0xC11E_0000 + c as u64)),
                    cursors: vec![[0; 2]; shape.traces],
                    history: vec![Vec::new(); shape.traces],
                    spans: Spans::new(false),
                    jobs: Vec::new(),
                    delivered: Delivered::new(),
                    report: RunReport::default(),
                };
                let completed = &completed;
                s.spawn(move || {
                    let mut k = 0usize;
                    while loop_start.elapsed() < seconds
                        || completed.load(Ordering::SeqCst) < shape.min_jobs
                    {
                        let traced = trace && k % 2 == 1;
                        k += 1;
                        client.spans.set_enabled(traced);
                        let (t, picks) = client.next_job();
                        let start = Instant::now();
                        let result = client.job(client.fingerprints[t], &picks);
                        let latency = start.elapsed().as_secs_f64();
                        completed.fetch_add(1, Ordering::SeqCst);
                        client.report.attempted += 1;
                        match result.and_then(|outcomes| client.accept(t, &picks, outcomes)) {
                            Ok(()) => {
                                let done = loop_start.elapsed().as_secs_f64();
                                client.jobs.push(JobRecord { latency, done, traced });
                            }
                            Err(e) => client.report.fail(e),
                        }
                    }
                    client
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let loop_seconds = loop_start.elapsed().as_secs_f64();

    let mut report = RunReport::default();
    let mut spans = Spans::new(true);
    let mut delivered = Delivered::new();
    let mut jobs: Vec<JobRecord> = Vec::new();
    for client in finished {
        report.attempted += client.report.attempted;
        report.failed += client.report.failed;
        report.notes.extend(client.report.notes);
        spans.merge(&client.spans);
        jobs.extend(client.jobs);
        for (key, (outcome, simulated)) in client.delivered {
            match delivered.get_mut(&key) {
                Some((first, sim)) => {
                    *sim |= simulated;
                    if *first != outcome {
                        report.fail(format!(
                            "trace {} config {} differs between clients",
                            key.0, key.1
                        ));
                    }
                }
                None => {
                    delivered.insert(key, (outcome, simulated));
                }
            }
        }
    }

    // Reference check: a seeded sample of delivered members, re-simulated
    // through the live path.
    let keys: Vec<(usize, usize)> = delivered.keys().copied().collect();
    let mut rng = Rng::new(seed ^ 0x11FE);
    let sample: Vec<(usize, usize)> =
        (0..LIVE_SAMPLE.min(keys.len())).map(|_| keys[rng.below(keys.len())]).collect();
    for &(t, i) in &sample {
        report.attempted += 1;
        let outcome = &delivered[&(t, i)].0;
        if let Err(e) = check::against_live(outcome, &setup.layouts[t], &configs[i], shape.budget) {
            report.fail(format!("trace {t} config {i}: {e}"));
        }
    }

    let latencies = |traced: bool| -> Vec<f64> {
        jobs.iter().filter(|j| j.traced == traced).map(|j| j.latency).collect()
    };
    let simulated_instrs: f64 = delivered
        .values()
        .filter(|(_, simulated)| *simulated)
        .filter_map(|(outcome, _)| outcome.stats())
        .map(|s| s.program_instrs as f64)
        .sum();
    let setup_s = median(&setup_times);
    let block_wall = block_seconds(&jobs, (shape.min_jobs / 2).max(1));
    let e2e = |lat: &[f64]| {
        [
            ("setup_s", setup_s),
            ("wall_s", block_wall),
            ("sim_mips", simulated_instrs / loop_seconds / 1e6),
            ("job_latency_p50_s", median(lat)),
            ("job_latency_p90_s", quantile(lat, 0.9)),
            ("jobs_per_s", jobs.len() as f64 / loop_seconds),
        ]
        .into_iter()
        .collect()
    };
    report.end_to_end = e2e(&latencies(false));
    if trace {
        report.end_to_end_traced = e2e(&latencies(true));
        let mut layer =
            per_layer(&mut setup, &setup_spans, &spans, &jobs, &configs, shape.setup_reps);
        probe_layers(&mut setup, &delivered, &configs, &sample, &mut layer, &mut report);
        let members: Vec<SimStats> =
            delivered.values().filter_map(|(o, _)| o.stats().copied()).collect();
        let coverage = setup.service.metrics().fusion_coverage_pct() / 100.0;
        check::model_metrics(&members, Some(coverage), &mut layer);
        layer.insert(
            "trace.overhead_frac",
            median(&latencies(true)) / median(&latencies(false)) - 1.0,
        );
        report.per_layer = layer;
    }
    setup.stop();
    std::fs::remove_dir_all(&base).ok();
    // Only removes the parent when no other run is using it.
    std::fs::remove_dir(".bench_tmp").ok();
    report
}

/// Median host seconds to complete each consecutive block of `block` jobs.
fn block_seconds(jobs: &[JobRecord], block: usize) -> f64 {
    let mut done: Vec<f64> = jobs.iter().map(|j| j.done).collect();
    done.sort_by(f64::total_cmp);
    let mut previous = 0.0;
    let blocks: Vec<f64> = done
        .chunks_exact(block)
        .map(|chunk| {
            let end = chunk[block - 1];
            let seconds = end - previous;
            previous = end;
            seconds
        })
        .collect();
    median(&blocks)
}

/// Per-layer metrics from set-up spans, client spans and the service's
/// own [`dvi_service::MetricsSnapshot`].
fn per_layer(
    setup: &mut Setup,
    setup_spans: &Spans,
    spans: &Spans,
    jobs: &[JobRecord],
    configs: &[SimConfig],
    setup_reps: usize,
) -> Layer {
    let m = setup.service.metrics();
    let reps = setup_reps as f64;
    let traced_jobs = jobs.iter().filter(|j| j.traced).count() as f64;
    let mut layer = Layer::new();
    layer.insert("workloads.generate_s", setup_spans.seconds("workloads.generate") / reps);
    layer.insert("compiler.compile_s", setup_spans.seconds("compiler.compile") / reps);
    layer.insert("program.capture_ns_per_instr", setup_spans.ns_per_unit("capture"));
    layer.insert(
        "program.trace_bytes_per_instr",
        ratio(setup_spans.units("trace_bytes"), setup_spans.units("capture")),
    );
    layer.insert("service.http.upload_s", setup_spans.mean_seconds("http.upload"));
    layer.insert("service.http.submit_s", spans.mean_seconds("http.submit"));
    layer.insert("service.http.poll_s", spans.mean_seconds("http.poll"));
    layer.insert("service.http.results_s", spans.mean_seconds("http.results"));
    layer.insert("service.http.polls_per_job", ratio(spans.calls("http.poll"), traced_jobs));
    layer.insert("service.queue_wait_s", m.mean_queue_wait_seconds());
    layer.insert("service.run_s", m.mean_run_seconds());
    layer.insert("service.worker_utilization", m.worker_utilization());
    layer.insert("service.cache_hit_rate", m.cache_hit_rate());
    layer.insert("service.members_simulated", m.members_simulated as f64);
    layer.insert("service.matrix_turns", m.matrix_turns as f64);
    layer.insert("service.cache_damaged", m.cache_damaged as f64);
    layer.insert("service.worker_deaths", m.worker_deaths as f64);
    layer.insert("sim.products.builds", m.matrix_shared_builds as f64);
    layer.insert("sim.products.reuse_hits", m.matrix_build_reuse_hits as f64);
    layer.insert("sim.matrix.wall_s", ratio(m.busy_seconds, m.matrix_turns as f64));
    layer.insert("sim.matrix.unique_members", m.members_simulated as f64);
    layer.insert(
        "sim.matrix.member_dedup_hits",
        (m.cache_misses + m.cache_damaged).saturating_sub(m.members_simulated) as f64,
    );
    layer.insert("sim.matrix.threads", m.workers as f64);
    layer.insert("sim.matrix.shard_steals", m.matrix_steals as f64);

    // The dependence graph the service builds when a trace is registered.
    let mut graph_spans = Spans::new(true);
    for trace in &mut setup.traces {
        graph_spans.time("depgraph", || trace.build_depgraph());
        graph_spans.count("depgraph", trace.len() as f64);
    }
    layer.insert("program.depgraph_ns_per_instr", graph_spans.ns_per_unit("depgraph"));
    let grids: Vec<(&CapturedTrace, &[SimConfig])> =
        setup.traces.iter().map(|t| (t, configs)).collect();
    probes::products(&grids, &mut layer);
    layer
}

/// The layer probes on delivered members, and the result cache's read and
/// write paths timed directly.
fn probe_layers(
    setup: &mut Setup,
    delivered: &Delivered,
    configs: &[SimConfig],
    sample: &[(usize, usize)],
    layer: &mut Layer,
    report: &mut RunReport,
) {
    let member = |&(t, i): &(usize, usize)| (&setup.traces[t], &configs[i], &delivered[&(t, i)].0);
    let members: Vec<probes::Member<'_>> = sample.iter().take(4).map(member).collect();
    probes::core(&members, layer, report);

    let one_trace: Vec<(usize, usize)> =
        delivered.keys().filter(|k| k.0 == 0).take(GRID).copied().collect();
    let grid: Vec<SimConfig> = one_trace.iter().map(|k| configs[k.1].clone()).collect();
    let outcomes: Vec<&MemberOutcome> = one_trace.iter().map(|k| &delivered[k].0).collect();
    probes::batch(&setup.traces[0], &grid, &outcomes, layer, report);

    let traces: Vec<&CapturedTrace> = setup.traces.iter().collect();
    probes::artifact(&traces, layer, report);

    let mut spans = Spans::new(true);
    let cache = ResultCache::open(setup.dir.join("memo")).expect("the result cache opens");
    let fresh = ResultCache::open(setup.dir.join("memo-probe")).expect("a second cache opens");
    for &(t, i) in sample {
        let (outcome, _) = &delivered[&(t, i)];
        let (trace_fp, config_fp) = (setup.fingerprints[t], config_fingerprint(&configs[i]));
        report.attempted += 1;
        match spans.time("probe", || cache.probe(trace_fp, config_fp)) {
            CacheProbe::Hit(cached) if *cached == *outcome => {}
            other => report.fail(format!("cache probe of trace {t} config {i}: {other:?}")),
        }
        report.attempted += 1;
        if let Err(e) = spans.time("store", || fresh.store(trace_fp, config_fp, outcome)) {
            report.fail(format!("cache store of trace {t} config {i}: {e}"));
        }
    }
    layer.insert("service.cache.probe_hit_s", spans.mean_seconds("probe"));
    layer.insert("service.cache.store_s", spans.mean_seconds("store"));
}
