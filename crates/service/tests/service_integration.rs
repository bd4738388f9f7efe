//! In-process integration suite for the sweep service: bit-identity with
//! the direct [`MatrixRunner`] path, instrumented memoization, kill/resume
//! durability, cache-corruption degradation, and the HTTP front end's
//! happy and error paths.

use dvi_core::{DviConfig, EdviPlacement};
use dvi_isa::Abi;
use dvi_program::CapturedTrace;
use dvi_service::http::{http_json, http_request, HttpServer};
use dvi_service::json::Json;
use dvi_service::{
    build_preset_trace, wire, JobSpec, JobState, ResultCache, ServiceConfig, ServiceError,
    SweepService, TraceSource,
};
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{MatrixRunner, MemberOutcome, SimConfig};
use dvi_workloads::WorkloadSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Generous per-job wait; every job here is tens of thousands of
/// instructions, finishing in well under a second.
const WAIT: Duration = Duration::from_secs(300);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvi-service-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Builds a small annotated-binary trace the same way the service's preset
/// path and the experiment harness do.
fn small_trace(seed: u64, instrs: u64) -> CapturedTrace {
    let spec = WorkloadSpec::small("svc-it", seed);
    let program = dvi_workloads::generate(&spec);
    let compiled = dvi_compiler::compile(
        &program,
        &Abi::mips_like(),
        dvi_compiler::CompileOptions { edvi: EdviPlacement::BeforeCalls },
    )
    .expect("test workload compiles");
    let layout = compiled.program.layout().expect("test workload lays out");
    CapturedTrace::record(&layout, instrs)
}

/// The grid every test sweeps: three DVI schemes on the Figure 2 machine.
fn test_grid() -> Vec<SimConfig> {
    vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_dvi(DviConfig::lvm_stack_scheme()),
    ]
}

/// The direct runner's outcomes, each complete member checked for
/// conservation; the service's results are compared against these.
fn direct_outcomes(trace: &CapturedTrace, grid: &[SimConfig]) -> Vec<MemberOutcome> {
    let outcomes = MatrixRunner::new(vec![(trace, grid.to_vec())]).run().into_cells().remove(0);
    for (outcome, config) in outcomes.iter().zip(grid) {
        if let MemberOutcome::Ok(stats) | MemberOutcome::Degraded { stats, .. } = outcome {
            assert_eq!(stats.conservation(config), Ok(()), "counters do not balance");
        }
    }
    outcomes
}

/// A grid heavy enough (with a large instruction budget) to keep the
/// single worker busy for a while — the window the cancellation tests use
/// to act on a provably queued or running job.
fn heavy_grid() -> Vec<SimConfig> {
    let mut grid = test_grid();
    for n in [40usize, 48, 64] {
        grid.push(SimConfig::micro97().with_phys_regs(n));
    }
    grid
}

/// Instruction budget of the heavy jobs: long enough that trace capture
/// plus six sweep members dominate any test-side sleep.
const HEAVY_INSTRS: u64 = 400_000;

#[test]
fn submit_results_are_bit_identical_to_direct_sweeprunner() {
    let trace = small_trace(0xA1, 12_000);
    let grid = test_grid();
    let direct = direct_outcomes(&trace, &grid);

    let service = SweepService::start(ServiceConfig::new(temp_dir("bitident")).with_workers(2))
        .expect("service starts");
    let fp = service.register_trace(trace);
    let job = service
        .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: grid.clone() })
        .expect("submits");
    let status = service.wait(job, WAIT).expect("finishes");
    assert!(status.state.is_done(), "job ended {:?}", status.state);
    assert!(status.summary.expect("done job has a summary").all_ok());
    assert!(status.queue_wait.is_some() && status.run_time.is_some());

    let results = service.results(job).expect("results available");
    assert_eq!(results.outcomes, direct, "service outcomes must be bit-identical");
    assert_eq!(results.cached, vec![false; grid.len()], "cold cache simulates everything");
    service.shutdown();
}

#[test]
fn resubmission_is_served_entirely_from_cache_with_zero_simulation() {
    let trace = small_trace(0xB2, 12_000);
    let grid = test_grid();

    let service = SweepService::start(ServiceConfig::new(temp_dir("memo")).with_workers(1))
        .expect("service starts");
    let fp = service.register_trace(trace);
    let submit = |g: &[SimConfig]| {
        let job = service
            .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: g.to_vec() })
            .expect("submits");
        service.wait(job, WAIT).expect("finishes");
        service.results(job).expect("results available")
    };

    let first = submit(&grid);
    let after_first = service.metrics();
    assert_eq!(after_first.members_simulated, grid.len() as u64);
    assert_eq!(after_first.cache_misses, grid.len() as u64);
    assert_eq!(after_first.cache_hits, 0);

    // The identical resubmission must be a pure cache read: zero members
    // simulated — the instrumented proof, not just a fast wall clock.
    let second = submit(&grid);
    let after_second = service.metrics();
    assert_eq!(
        after_second.members_simulated, after_first.members_simulated,
        "resubmission must simulate nothing"
    );
    assert_eq!(after_second.cache_hits, grid.len() as u64);
    assert_eq!(second.cached, vec![true; grid.len()]);
    assert_eq!(second.outcomes, first.outcomes, "cache must serve bit-identical outcomes");
    assert!(after_second.cache_hit_rate() > 0.49);
    service.shutdown();
}

#[test]
fn killed_worker_resumes_from_checkpoint_bit_identically() {
    let trace = small_trace(0xC3, 12_000);
    let grid = test_grid();
    let direct = direct_outcomes(&trace, &grid);

    // Arm the one-shot kill: the first matrix attempt dies once one member
    // has finished and been stored in the result cache; the retry skips
    // that member and runs the rest.
    let config =
        ServiceConfig::new(temp_dir("killresume")).with_workers(1).with_fault_abort_after_turns(1);
    let service = SweepService::start(config).expect("service starts");
    let fp = service.register_trace(trace);
    let job = service
        .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: grid.clone() })
        .expect("submits");
    let status = service.wait(job, WAIT).expect("finishes despite the kill");
    assert!(status.state.is_done(), "job ended {:?}", status.state);

    let metrics = service.metrics();
    assert_eq!(metrics.worker_deaths, 1, "exactly the injected death");
    let results = service.results(job).expect("results available");
    assert_eq!(
        results.outcomes, direct,
        "resumed outcomes must be bit-identical to an uninterrupted run"
    );
    assert!(metrics.outcomes.all_ok(), "resume re-runs cleanly, no degraded members");
    // The retry's one store probe restores the member the dead attempt
    // stored: that slot is a cache hit, and only the other two simulate.
    assert_eq!(results.cached, vec![true, false, false]);
    assert_eq!((metrics.cache_hits, metrics.cache_misses), (1, 2));
    assert_eq!(metrics.members_simulated, 2);
    service.shutdown();
}

#[test]
fn corrupt_cache_entry_degrades_to_a_live_run_and_heals() {
    let trace = small_trace(0xD4, 12_000);
    let grid = test_grid();
    let trace_fp = trace.fingerprint();
    let direct = direct_outcomes(&trace, &grid);

    let service = SweepService::start(ServiceConfig::new(temp_dir("corrupt")).with_workers(1))
        .expect("service starts");
    let fp = service.register_trace(trace);
    let submit = |g: &[SimConfig]| {
        let job = service
            .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: g.to_vec() })
            .expect("submits");
        service.wait(job, WAIT).expect("finishes");
        (job, service.results(job).expect("results available"))
    };
    let (first, _) = submit(&grid);

    // Flip one byte in the first member's memo entry.
    let victim = service.cache().entry_path(trace_fp, config_fingerprint(&grid[0]));
    let mut bytes = std::fs::read(&victim).expect("memo entry exists");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("corrupts entry");

    // The first job reads its Ok outcomes back from the cache: with one
    // entry damaged its results are gone (HTTP 410), never wrong.
    let gone = service.results(first).expect_err("a damaged entry cannot be served");
    assert!(matches!(&gone, ServiceError::ResultsGone { job, .. } if *job == first), "{gone:?}");
    assert_eq!(gone.http_status(), 410);

    let (_, results) = submit(&grid);
    let metrics = service.metrics();
    assert_eq!(metrics.cache_damaged, 1, "the corrupt entry was detected, not served");
    assert_eq!(results.outcomes, direct, "a damaged cache may cost time, never correctness");
    assert_eq!(results.cached, vec![false, true, true]);

    // The live re-run rewrote the entry: the first job's results are
    // whole again, and a third submission is all hits.
    let refetched = service.results(first).expect("the healed entry serves the first job");
    assert_eq!(refetched.outcomes, direct, "healed results are bit-identical");
    assert_eq!(refetched.cached, vec![false; grid.len()]);
    let (_, healed) = submit(&grid);
    assert_eq!(healed.cached, vec![true; grid.len()]);
    assert_eq!(service.metrics().members_simulated, grid.len() as u64 + 1);
    service.shutdown();
}

/// With the cache directory gone, every store write fails: a job keeps
/// its outcomes inline and still serves them bit-identically, on every
/// fetch.
#[test]
fn failed_cache_writes_keep_results_inline() {
    let trace = small_trace(0xD5, 12_000);
    let grid = test_grid();
    let direct = direct_outcomes(&trace, &grid);

    let dir = temp_dir("nostore");
    let service =
        SweepService::start(ServiceConfig::new(&dir).with_workers(1)).expect("service starts");
    std::fs::remove_dir_all(dir.join("memo")).expect("the cache directory is removed");
    let fp = service.register_trace(trace);
    let job = service
        .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: grid.clone() })
        .expect("submits");
    assert!(service.wait(job, WAIT).expect("finishes").state.is_done());
    for _ in 0..2 {
        let results = service.results(job).expect("inline results need no cache");
        assert_eq!(results.outcomes, direct, "inline results are bit-identical");
        assert_eq!(results.cached, vec![false; grid.len()]);
    }
    assert!(!dir.join("memo").exists(), "nothing was stored");
    service.shutdown();
}

#[test]
fn preset_jobs_share_one_trace_build_and_memoize_across_jobs() {
    let service = SweepService::start(ServiceConfig::new(temp_dir("preset")).with_workers(1))
        .expect("service starts");
    let source = TraceSource::Preset { name: "li".into(), instrs: 10_000 };
    let first =
        service.submit(JobSpec { source: source.clone(), grid: test_grid() }).expect("submits");
    // A second job over the same preset but a subset grid: every member
    // is already covered by the first job's matrix.
    let second = service
        .submit(JobSpec { source: source.clone(), grid: test_grid()[..2].to_vec() })
        .expect("submits");
    service.wait(first, WAIT).expect("first finishes");
    let status = service.wait(second, WAIT).expect("second finishes");
    assert!(status.state.is_done());

    let metrics = service.metrics();
    assert_eq!(
        metrics.members_simulated,
        test_grid().len() as u64,
        "shared (trace x config) matrix simulates each distinct config once"
    );
    let a = service.results(first).expect("first results");
    let b = service.results(second).expect("second results");
    assert_eq!(a.outcomes[..2], b.outcomes[..], "shared members are identical across jobs");
    service.shutdown();
}

/// A preset job and a job over an uploaded copy of the same trace, queued
/// into one turn, are one matrix registry entry: every member simulates
/// once and serves both jobs.
#[test]
fn preset_and_uploaded_copy_in_one_turn_simulate_each_member_once() {
    let service = SweepService::start(ServiceConfig::new(temp_dir("samefp")).with_workers(1))
        .expect("service starts");
    let trace = build_preset_trace("li", 10_000).expect("preset builds");
    let grid = test_grid();
    let direct = direct_outcomes(&trace, &grid);
    let fp = service.register_trace(trace);

    // Block the single worker with the heavy job, so the two jobs below
    // queue behind its turn and drain together into the next one.
    let heavy = service
        .submit(JobSpec {
            source: TraceSource::Preset { name: "li".into(), instrs: HEAVY_INSTRS },
            grid: heavy_grid(),
        })
        .expect("heavy job submits");
    std::thread::sleep(Duration::from_millis(50));
    let preset = service
        .submit(JobSpec {
            source: TraceSource::Preset { name: "li".into(), instrs: 10_000 },
            grid: grid.clone(),
        })
        .expect("preset job submits");
    let uploaded = service
        .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: grid.clone() })
        .expect("uploaded job submits");
    for job in [heavy, preset, uploaded] {
        let status = service.wait(job, WAIT).expect("finishes");
        assert!(status.state.is_done(), "job {job} ended {:?}", status.state);
    }

    assert_eq!(
        service.metrics().members_simulated,
        (heavy_grid().len() + grid.len()) as u64,
        "the preset and the uploaded copy share every member"
    );
    let a = service.results(preset).expect("preset results");
    let b = service.results(uploaded).expect("uploaded results");
    assert_eq!(a.cached, vec![false; grid.len()]);
    assert_eq!(b.cached, vec![false; grid.len()]);
    assert_eq!(a.outcomes, b.outcomes, "both jobs read the one simulated member set");
    assert_eq!(a.outcomes, direct, "shared members stay bit-identical to the direct runner");
    service.shutdown();
}

#[test]
fn cancelled_queued_job_leaves_the_matrix_and_simulates_nothing() {
    let service = SweepService::start(ServiceConfig::new(temp_dir("cancelq")).with_workers(1))
        .expect("service starts");
    let source = TraceSource::Preset { name: "li".into(), instrs: HEAVY_INSTRS };
    let heavy = service
        .submit(JobSpec { source: source.clone(), grid: heavy_grid() })
        .expect("heavy job submits");
    // Give the single worker time to drain the heavy job into its matrix
    // turn; everything submitted from here on queues behind that turn.
    std::thread::sleep(Duration::from_millis(50));

    let queued = service
        .submit(JobSpec { source, grid: vec![SimConfig::micro97().with_phys_regs(48)] })
        .expect("queued job submits");
    let status = service.cancel(queued).expect("queued job cancels");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(matches!(service.results(queued), Err(ServiceError::JobCancelled(id)) if id == queued));
    assert!(matches!(
        service.cancel(queued),
        Err(ServiceError::JobNotCancellable(id)) if id == queued
    ));
    let waited = service.wait(queued, WAIT).expect("cancelled job is terminal");
    assert_eq!(waited.state, JobState::Cancelled);

    let status = service.wait(heavy, WAIT).expect("heavy job finishes");
    assert!(status.state.is_done(), "heavy job ended {:?}", status.state);
    assert!(matches!(
        service.cancel(heavy),
        Err(ServiceError::JobNotCancellable(id)) if id == heavy
    ));

    let metrics = service.metrics();
    assert_eq!(metrics.jobs_cancelled, 1);
    assert_eq!(
        metrics.members_simulated,
        heavy_grid().len() as u64,
        "the cancelled job's member left the queue without simulating"
    );
    // Matrix observability: one turn over one distinct trace, every
    // member of the heavy grid simulated once (asserted above).
    assert_eq!(metrics.matrix_turns, 1);
    assert_eq!(metrics.matrix_distinct_traces, 1);
    assert_eq!(metrics.matrix_steals, 0, "one member list: nothing to steal");
    assert_eq!(metrics.queue_depth, 0);
    service.shutdown();
}

#[test]
fn cancelling_a_running_job_stops_it_cooperatively() {
    let service = SweepService::start(ServiceConfig::new(temp_dir("cancelrun")).with_workers(1))
        .expect("service starts");
    let heavy = service
        .submit(JobSpec {
            source: TraceSource::Preset { name: "li".into(), instrs: HEAVY_INSTRS },
            grid: heavy_grid(),
        })
        .expect("submits");
    std::thread::sleep(Duration::from_millis(50));

    // The job is running (or at worst still queued) — both are
    // cancellable; the matrix's cell gate skips its remaining members at
    // the next scheduling claim.
    let status = service.cancel(heavy).expect("running job cancels");
    assert_eq!(status.state, JobState::Cancelled);
    let waited = service.wait(heavy, WAIT).expect("terminal immediately");
    assert_eq!(waited.state, JobState::Cancelled);
    assert!(matches!(service.results(heavy), Err(ServiceError::JobCancelled(_))));

    // A job cancelled while running still counts in the mean queue wait:
    // its wait is in the total, so it is in the count.
    let metrics = service.metrics();
    if metrics.queue_wait_seconds > 0.0 {
        assert_eq!(metrics.jobs_picked_up, 1);
        assert_eq!(metrics.mean_queue_wait_seconds(), metrics.queue_wait_seconds);
    } else {
        assert_eq!(metrics.jobs_picked_up, 0, "the job was cancelled while still queued");
    }

    // The service stays healthy: a fresh job completes bit-identically.
    let trace = small_trace(0x77, 12_000);
    let grid = test_grid();
    let direct = direct_outcomes(&trace, &grid);
    let fp = service.register_trace(trace);
    let job = service
        .submit(JobSpec { source: TraceSource::Fingerprint(fp), grid: grid.clone() })
        .expect("submits");
    service.wait(job, WAIT).expect("finishes");
    let results = service.results(job).expect("results available");
    assert_eq!(results.outcomes, direct, "post-cancellation outcomes stay bit-identical");

    let metrics = service.metrics();
    assert_eq!(metrics.jobs_cancelled, 1);
    assert_eq!(metrics.jobs_completed, 1);
    service.shutdown();
}

#[test]
fn http_cancel_route_cancels_and_conflicts_once_terminal() {
    let service = SweepService::start(ServiceConfig::new(temp_dir("httpcancel")).with_workers(1))
        .expect("service starts");
    let mut server = HttpServer::serve(service, "127.0.0.1:0").expect("binds");
    let addr = server.local_addr().to_string();

    let body = Json::obj([
        ("preset", Json::Str("li".into())),
        ("instrs", Json::UInt(HEAVY_INSTRS)),
        ("grid", wire::fig10_grid_json()),
    ]);
    let reply = http_json(&addr, "POST", "/jobs", Some(&body)).expect("submits");
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");

    // DELETE while queued or running: 200 with the terminal status.
    let reply = http_json(&addr, "DELETE", &format!("/jobs/{job}"), None).expect("cancels");
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("cancelled"));

    // Results of a cancelled job and a second DELETE both conflict.
    let (status, _) =
        http_request(&addr, "GET", &format!("/jobs/{job}/results"), &[], "text/plain")
            .expect("request");
    assert_eq!(status, 409);
    let err = http_json(&addr, "DELETE", &format!("/jobs/{job}"), None).expect_err("must 409");
    assert!(matches!(err, ServiceError::Http { status: 409, .. }), "got {err:?}");

    // The metrics body carries the cancellation and matrix counters.
    let metrics = http_json(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.get("jobs_cancelled").and_then(Json::as_u64), Some(1));
    assert!(metrics.get("matrix_turns").is_some());
    assert!(metrics.get("matrix_build_reuse_hits").is_some());
    assert!(metrics.get("matrix_distinct_traces").is_some());
    assert_eq!(metrics.get("matrix_steals").and_then(Json::as_u64), Some(0));
    assert!(metrics.get("queue_depth").is_some());

    server.stop();
}

/// A sweep routed through the service's result cache — the store-backed
/// matrix — is bit-identical to the direct runner cold, and a warm rerun
/// serves every member from the cache.
#[test]
fn cached_sweep_helper_matches_direct_runner_cold_and_warm() {
    let trace = small_trace(0xE5, 12_000);
    let grid = test_grid();
    let direct = direct_outcomes(&trace, &grid);
    let cache = ResultCache::open(temp_dir("helper")).expect("cache opens");
    let cached = || MatrixRunner::new(vec![(&trace, grid.clone())]).with_store(cache.clone()).run();

    let cold = cached();
    assert_eq!(cold.report.resumed_members, 0, "a cold cache serves nothing");
    assert_eq!(cold.into_cells().remove(0), direct, "cold cached sweep is bit-identical");
    let warm = cached();
    assert_eq!(warm.report.resumed_members, grid.len() as u64, "warm cache serves every member");
    assert_eq!(warm.into_cells().remove(0), direct, "warm cached sweep serves the same outcomes");
}

#[test]
fn http_round_trip_fig10_grid_is_bit_identical_and_memoized() {
    let trace = small_trace(0xF6, 12_000);
    let trace_bytes = trace.to_bytes();
    let fig10 = vec![
        SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_dvi(DviConfig::lvm_stack_scheme()),
    ];
    let direct = direct_outcomes(&trace, &fig10);

    let service = SweepService::start(ServiceConfig::new(temp_dir("http")).with_workers(2))
        .expect("service starts");
    let mut server = HttpServer::serve(service, "127.0.0.1:0").expect("binds");
    let addr = server.local_addr().to_string();

    // Health and cold metrics.
    let health = http_json(&addr, "GET", "/health", None).expect("health");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

    // Upload the trace, then submit the paper's Figure 10 grid against it.
    let (status, body) =
        http_request(&addr, "POST", "/traces", &trace_bytes, "application/octet-stream")
            .expect("upload");
    assert_eq!(status, 200);
    let fp_text = Json::parse(std::str::from_utf8(&body).expect("utf-8"))
        .expect("json")
        .get("fingerprint")
        .and_then(|v| v.as_str().map(str::to_owned))
        .expect("fingerprint in reply");

    let submit = |expect_cached: bool| {
        let body =
            Json::obj([("trace", Json::Str(fp_text.clone())), ("grid", wire::fig10_grid_json())]);
        let reply = http_json(&addr, "POST", "/jobs", Some(&body)).expect("submits");
        let job = reply.get("job").and_then(Json::as_u64).expect("job id");
        // Poll /results: 202 while running, 200 when done.
        let deadline = std::time::Instant::now() + WAIT;
        loop {
            let (status, raw) =
                http_request(&addr, "GET", &format!("/jobs/{job}/results"), &[], "text/plain")
                    .expect("poll");
            if status == 200 {
                let json =
                    Json::parse(std::str::from_utf8(&raw).expect("utf-8")).expect("json body");
                let results = wire::results_from_json(&json).expect("decodes");
                assert_eq!(results.cached, vec![expect_cached; 2]);
                return results.outcomes;
            }
            assert_eq!(status, 202, "while running the results route returns Accepted");
            assert!(std::time::Instant::now() < deadline, "job did not finish in time");
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let outcomes = submit(false);
    assert_eq!(outcomes, direct, "HTTP results decode bit-identical to the direct runner");
    let again = submit(true);
    assert_eq!(again, direct, "memoized HTTP resubmission serves identical outcomes");

    let metrics = http_json(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.get("members_simulated").and_then(Json::as_u64), Some(2));
    assert_eq!(metrics.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(metrics.get("jobs_completed").and_then(Json::as_u64), Some(2));
    assert_eq!(metrics.get("worker_deaths").and_then(Json::as_u64), Some(0));

    let status = http_json(&addr, "GET", "/jobs/0", None).expect("status route");
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));

    server.stop();
}

#[test]
fn malformed_requests_get_typed_http_errors() {
    let service = SweepService::start(ServiceConfig::new(temp_dir("badreq")).with_workers(1))
        .expect("service starts");
    let mut server = HttpServer::serve(service, "127.0.0.1:0").expect("binds");
    let addr = server.local_addr().to_string();

    // Unknown route → 404 with an error body.
    let (status, body) = http_request(&addr, "GET", "/teapot", &[], "text/plain").expect("request");
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("error"));

    // Unparseable JSON body → 400.
    let (status, _) =
        http_request(&addr, "POST", "/jobs", b"{not json", "application/json").expect("request");
    assert_eq!(status, 400);

    // Well-formed JSON, unknown preset → 400 with the preset name.
    let body = Json::obj([
        ("preset", Json::Str("spice".into())),
        ("instrs", Json::UInt(1000)),
        ("grid", wire::fig10_grid_json()),
    ]);
    let err = http_json(&addr, "POST", "/jobs", Some(&body)).expect_err("must fail");
    match err {
        ServiceError::Http { status, message } => {
            assert_eq!(status, 400);
            assert!(message.contains("spice"), "error names the preset: {message}");
        }
        other => panic!("expected an HTTP error, got {other:?}"),
    }

    // Unknown grid key → 400 naming the key.
    let body = Json::obj([
        ("preset", Json::Str("li".into())),
        ("instrs", Json::UInt(1000)),
        ("grid", Json::Arr(vec![Json::obj([("warp_factor", Json::UInt(9))])])),
    ]);
    let err = http_json(&addr, "POST", "/jobs", Some(&body)).expect_err("must fail");
    assert!(matches!(err, ServiceError::Http { status: 400, .. }), "got {err:?}");

    // Unknown job → 404; unknown trace fingerprint → 404.
    let err = http_json(&addr, "GET", "/jobs/999", None).expect_err("must fail");
    assert!(matches!(err, ServiceError::Http { status: 404, .. }), "got {err:?}");
    let body = Json::obj([
        ("trace", Json::Str("0xdeadbeefdeadbeef".into())),
        ("grid", wire::fig10_grid_json()),
    ]);
    let err = http_json(&addr, "POST", "/jobs", Some(&body)).expect_err("must fail");
    assert!(matches!(err, ServiceError::Http { status: 404, .. }), "got {err:?}");

    // Corrupt trace upload → 400, not a crash.
    let (status, _) =
        http_request(&addr, "POST", "/traces", b"not a trace artifact", "application/octet-stream")
            .expect("request");
    assert_eq!(status, 400);

    // A trace artifact of an older format version → 400 naming the skew.
    let mut old = small_trace(3, 2_000).to_bytes();
    old[8..12].copy_from_slice(&6u32.to_le_bytes());
    let (status, body) =
        http_request(&addr, "POST", "/traces", &old, "application/octet-stream").expect("request");
    assert_eq!(status, 400);
    let body = String::from_utf8_lossy(&body);
    assert!(body.contains("version 6 is not the version this reader reads"), "got: {body}");

    // A 1 MiB request line without a newline → 400 once the header budget
    // is spent, instead of a handler buffering it all. The server closes
    // with the rest unread, so the write may fail part-way.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.write_all(&vec![b'A'; 1 << 20]).ok();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).ok();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
    assert!(reply.contains("header block too large"), "got: {reply}");

    // A request line or header that is not UTF-8 → 400, not an I/O error.
    for raw in
        [&b"\xff\xfe /health HTTP/1.1\r\n\r\n"[..], b"GET /health HTTP/1.1\r\nX: \xff\r\n\r\n"]
    {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream.write_all(raw).expect("writes");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("server answers");
        assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");
        assert!(reply.contains("is not UTF-8"), "got: {reply}");
    }

    // A raw non-HTTP byte stream → 400 and a clean close.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream.write_all(b"\0\0garbage\r\n\r\n").expect("writes");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("server answers");
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");

    server.stop();
}
