//! JSON ↔ domain mapping shared by the HTTP server, the HTTP client and
//! the CLI.
//!
//! Two encodings matter here:
//!
//! * **Configuration grids** come in as JSON arrays of override objects on
//!   [`SimConfig::micro97`] — the paper's Figure 2 machine — so a request
//!   names only what it varies (`{"dvi": "lvm"}`); unknown keys are typed
//!   errors, not silent ignores.
//! * **Member outcomes** go out with human-readable headline numbers
//!   (cycles, IPC) *plus* an `encoded` field carrying the canonical
//!   outcome byte encoding ([`dvi_sim::checkpoint::write_outcome`]) as
//!   hex. Clients that care about bit-identity decode `encoded` and get
//!   back exactly the [`MemberOutcome`] the simulator produced — JSON
//!   number formatting can never round a counter.

use crate::json::Json;
use crate::{JobResults, JobSpec, JobStatus, MetricsSnapshot, ServiceError, TraceSource};
use dvi_core::DviConfig;
use dvi_program::artifact::{ByteReader, ByteWriter};
use dvi_sim::checkpoint::{read_outcome, write_outcome};
use dvi_sim::{MemberOutcome, SimConfig};

// ------------------------------------------------------------- requests --

/// Parses a job-submission body:
/// `{"preset": "li", "instrs": 30000, "grid": [...]}` or
/// `{"trace": "0x<fingerprint>", "grid": [...]}`.
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] for a missing or ill-typed field.
pub fn parse_submit(body: &Json) -> Result<JobSpec, ServiceError> {
    let obj = body
        .as_obj()
        .ok_or_else(|| ServiceError::InvalidRequest("request body must be an object".into()))?;
    for (key, _) in obj {
        if !matches!(key.as_str(), "preset" | "instrs" | "trace" | "grid") {
            return Err(ServiceError::InvalidRequest(format!("unknown request field '{key}'")));
        }
    }
    let grid_value =
        body.get("grid").ok_or_else(|| ServiceError::InvalidRequest("missing 'grid'".into()))?;
    let grid = grid_from_json(grid_value)?;
    let source = match (body.get("preset"), body.get("trace")) {
        (Some(preset), None) => {
            let name = preset
                .as_str()
                .ok_or_else(|| ServiceError::InvalidRequest("'preset' must be a string".into()))?;
            let instrs = match body.get("instrs") {
                None => {
                    return Err(ServiceError::InvalidRequest(
                        "preset jobs need an 'instrs' budget".into(),
                    ))
                }
                Some(v) => v.as_u64().ok_or_else(|| {
                    ServiceError::InvalidRequest("'instrs' must be a non-negative integer".into())
                })?,
            };
            TraceSource::Preset { name: name.to_owned(), instrs }
        }
        (None, Some(trace)) => {
            let text = trace.as_str().ok_or_else(|| {
                ServiceError::InvalidRequest("'trace' must be a fingerprint string".into())
            })?;
            TraceSource::Fingerprint(parse_fingerprint(text)?)
        }
        _ => {
            return Err(ServiceError::InvalidRequest(
                "exactly one of 'preset' or 'trace' is required".into(),
            ))
        }
    };
    Ok(JobSpec { source, grid })
}

/// Builds the submission body [`parse_submit`] accepts (client side).
#[must_use]
pub fn submit_to_json(source: &TraceSource, grid: &Json) -> Json {
    match source {
        TraceSource::Preset { name, instrs } => Json::obj([
            ("preset", Json::Str(name.clone())),
            ("instrs", Json::UInt(*instrs)),
            ("grid", grid.clone()),
        ]),
        TraceSource::Fingerprint(fp) => {
            Json::obj([("trace", Json::Str(format_fingerprint(*fp))), ("grid", grid.clone())])
        }
    }
}

/// The canonical rendering of a trace fingerprint (`0x`-prefixed hex).
#[must_use]
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// Parses a fingerprint in the [`format_fingerprint`] rendering (the `0x`
/// prefix is optional).
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] for non-hex input.
pub fn parse_fingerprint(text: &str) -> Result<u64, ServiceError> {
    let digits = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(digits, 16)
        .map_err(|_| ServiceError::InvalidRequest(format!("'{text}' is not a fingerprint")))
}

/// Parses a configuration grid: a JSON array of override objects applied
/// to [`SimConfig::micro97`]. Supported keys: `phys_regs`, `issue_width`,
/// `cache_ports`, `window_size` (integers) and `dvi` (`"none"` / `"idvi"` /
/// `"full"` / `"lvm"` / `"lvm-stack"`).
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] for a non-array, a non-object member,
/// an unknown key or an ill-typed value.
pub fn grid_from_json(value: &Json) -> Result<Vec<SimConfig>, ServiceError> {
    let arr = value
        .as_arr()
        .ok_or_else(|| ServiceError::InvalidRequest("'grid' must be an array".into()))?;
    arr.iter().enumerate().map(|(i, member)| config_from_json(member, i)).collect()
}

fn config_from_json(value: &Json, index: usize) -> Result<SimConfig, ServiceError> {
    let invalid = |msg: String| ServiceError::InvalidRequest(format!("grid[{index}]: {msg}"));
    let obj = value.as_obj().ok_or_else(|| invalid("must be an override object".into()))?;
    let mut config = SimConfig::micro97();
    for (key, v) in obj {
        match key.as_str() {
            "phys_regs" => {
                config = config.with_phys_regs(usize_value(v).map_err(&invalid)?);
            }
            "issue_width" => {
                config = config.with_issue_width(usize_value(v).map_err(&invalid)?);
            }
            "cache_ports" => {
                config = config.with_cache_ports(usize_value(v).map_err(&invalid)?);
            }
            "window_size" => {
                config.window_size = usize_value(v).map_err(&invalid)?;
            }
            "dvi" => {
                let name =
                    v.as_str().ok_or_else(|| invalid("'dvi' must be a scheme name".into()))?;
                config = config.with_dvi(dvi_from_name(name).map_err(&invalid)?);
            }
            other => return Err(invalid(format!("unknown override '{other}'"))),
        }
    }
    Ok(config)
}

fn usize_value(v: &Json) -> Result<usize, String> {
    v.as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| "value must be a non-negative integer".into())
}

fn dvi_from_name(name: &str) -> Result<DviConfig, String> {
    match name {
        "none" => Ok(DviConfig::none()),
        "idvi" => Ok(DviConfig::idvi_only()),
        "full" => Ok(DviConfig::full()),
        "lvm" => Ok(DviConfig::lvm_scheme()),
        "lvm-stack" => Ok(DviConfig::lvm_stack_scheme()),
        other => Err(format!("unknown DVI scheme '{other}'")),
    }
}

/// The grid of the paper's Figure 10 save/restore study as run through the
/// service: the two last-value-mode schemes on the Figure 2 machine (the
/// CLI expands the `fig10` shorthand to this).
#[must_use]
pub fn fig10_grid_json() -> Json {
    Json::Arr(vec![
        Json::obj([("dvi", Json::Str("lvm".into()))]),
        Json::obj([("dvi", Json::Str("lvm-stack".into()))]),
    ])
}

// -------------------------------------------------------------- results --

/// Encodes one outcome: a `kind` label, headline numbers for humans, and
/// the canonical outcome bytes under `encoded` for bit-exact decoding.
#[must_use]
pub fn outcome_to_json(outcome: &MemberOutcome, cached: bool) -> Json {
    let mut bytes = ByteWriter::new();
    write_outcome(&mut bytes, outcome);
    let mut fields: Vec<(String, Json)> = Vec::new();
    let kind = match outcome {
        MemberOutcome::Ok(_) => "ok",
        MemberOutcome::Degraded { .. } => "degraded",
        MemberOutcome::Deadlocked { .. } => "deadlocked",
        MemberOutcome::Panicked { .. } => "panicked",
    };
    fields.push(("kind".into(), Json::Str(kind.into())));
    fields.push(("cached".into(), Json::Bool(cached)));
    let stats = match outcome {
        MemberOutcome::Ok(stats) => Some(stats),
        MemberOutcome::Degraded { stats, .. } => Some(stats),
        MemberOutcome::Deadlocked { partial, .. } => Some(partial),
        MemberOutcome::Panicked { .. } => None,
    };
    if let Some(stats) = stats {
        fields.push(("cycles".into(), Json::UInt(stats.cycles)));
        fields.push(("program_instrs".into(), Json::UInt(stats.program_instrs)));
        fields.push(("ipc".into(), Json::Num(stats.ipc())));
    }
    match outcome {
        MemberOutcome::Degraded { reason, .. } => {
            fields.push(("reason".into(), Json::Str(reason.clone())));
        }
        MemberOutcome::Panicked { payload } => {
            fields.push(("reason".into(), Json::Str(payload.clone())));
        }
        _ => {}
    }
    fields.push(("encoded".into(), Json::Str(hex(&bytes.into_bytes()))));
    Json::Obj(fields)
}

/// Decodes the `encoded` field back to the exact [`MemberOutcome`].
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] when the field is missing or not hex;
/// [`ServiceError::Artifact`] when the bytes fail the outcome decoder.
pub fn outcome_from_json(value: &Json) -> Result<MemberOutcome, ServiceError> {
    let encoded = value
        .get("encoded")
        .and_then(Json::as_str)
        .ok_or_else(|| ServiceError::InvalidRequest("outcome has no 'encoded' field".into()))?;
    let bytes = unhex(encoded)?;
    let mut r = ByteReader::new(&bytes, "wire outcome");
    let outcome = read_outcome(&mut r)?;
    r.finish()?;
    Ok(outcome)
}

/// Encodes a finished job's results.
#[must_use]
pub fn results_to_json(id: u64, results: &JobResults) -> Json {
    let outcomes = results
        .outcomes
        .iter()
        .zip(&results.cached)
        .map(|(outcome, cached)| outcome_to_json(outcome, *cached))
        .collect();
    Json::obj([("job", Json::UInt(id)), ("outcomes", Json::Arr(outcomes))])
}

/// Decodes [`results_to_json`] (client side).
///
/// # Errors
///
/// [`ServiceError::InvalidRequest`] / [`ServiceError::Artifact`] for a
/// body that is not a results object.
pub fn results_from_json(value: &Json) -> Result<JobResults, ServiceError> {
    let arr = value
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServiceError::InvalidRequest("response has no 'outcomes' array".into()))?;
    let mut outcomes = Vec::with_capacity(arr.len());
    let mut cached = Vec::with_capacity(arr.len());
    for member in arr {
        outcomes.push(outcome_from_json(member)?);
        cached.push(member.get("cached").and_then(Json::as_bool).unwrap_or(false));
    }
    Ok(JobResults { outcomes, cached })
}

// --------------------------------------------------- status and metrics --

/// Encodes a job-status view.
#[must_use]
pub fn status_to_json(status: &JobStatus) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("job".into(), Json::UInt(status.id)),
        ("state".into(), Json::Str(status.state.label().into())),
        ("members".into(), Json::UInt(status.members as u64)),
        ("cached_members".into(), Json::UInt(status.cached_members as u64)),
    ];
    if let crate::JobState::Failed(reason) = &status.state {
        fields.push(("reason".into(), Json::Str(reason.clone())));
    }
    if let Some(wait) = status.queue_wait {
        fields.push(("queue_wait_seconds".into(), Json::Num(wait.as_secs_f64())));
    }
    if let Some(run) = status.run_time {
        fields.push(("run_seconds".into(), Json::Num(run.as_secs_f64())));
    }
    if let Some(summary) = &status.summary {
        fields.push((
            "summary".into(),
            Json::obj([
                ("ok", Json::UInt(summary.ok as u64)),
                ("degraded", Json::UInt(summary.degraded as u64)),
                ("deadlocked", Json::UInt(summary.deadlocked as u64)),
                ("failed", Json::UInt(summary.failed as u64)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Encodes a metrics snapshot (the `/metrics` endpoint body).
#[must_use]
pub fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj([
        ("jobs_submitted", Json::UInt(m.jobs_submitted)),
        ("jobs_completed", Json::UInt(m.jobs_completed)),
        ("jobs_failed", Json::UInt(m.jobs_failed)),
        ("jobs_cancelled", Json::UInt(m.jobs_cancelled)),
        ("jobs_queued", Json::UInt(m.jobs_queued)),
        ("jobs_running", Json::UInt(m.jobs_running)),
        ("jobs_picked_up", Json::UInt(m.jobs_picked_up)),
        ("queue_depth", Json::UInt(m.queue_depth)),
        ("members_submitted", Json::UInt(m.members_submitted)),
        ("members_simulated", Json::UInt(m.members_simulated)),
        ("cache_hits", Json::UInt(m.cache_hits)),
        ("cache_misses", Json::UInt(m.cache_misses)),
        ("cache_damaged", Json::UInt(m.cache_damaged)),
        ("cache_hit_rate", Json::Num(m.cache_hit_rate())),
        ("fusion_groups", Json::UInt(m.fusion_groups)),
        ("fusion_fused_records", Json::UInt(m.fusion_fused_records)),
        ("fusion_fallback_records", Json::UInt(m.fusion_fallback_records)),
        ("fusion_coverage_pct", Json::Num(m.fusion_coverage_pct())),
        ("worker_deaths", Json::UInt(m.worker_deaths)),
        ("matrix_turns", Json::UInt(m.matrix_turns)),
        ("matrix_distinct_traces", Json::UInt(m.matrix_distinct_traces)),
        ("matrix_shared_builds", Json::UInt(m.matrix_shared_builds)),
        ("matrix_build_reuse_hits", Json::UInt(m.matrix_build_reuse_hits)),
        ("matrix_steals", Json::UInt(m.matrix_steals)),
        (
            "outcomes",
            Json::obj([
                ("ok", Json::UInt(m.outcomes.ok as u64)),
                ("degraded", Json::UInt(m.outcomes.degraded as u64)),
                ("deadlocked", Json::UInt(m.outcomes.deadlocked as u64)),
                ("failed", Json::UInt(m.outcomes.failed as u64)),
            ]),
        ),
        ("queue_wait_seconds", Json::Num(m.queue_wait_seconds)),
        ("mean_queue_wait_seconds", Json::Num(m.mean_queue_wait_seconds())),
        ("run_seconds", Json::Num(m.run_seconds)),
        ("mean_run_seconds", Json::Num(m.mean_run_seconds())),
        ("busy_seconds", Json::Num(m.busy_seconds)),
        ("worker_utilization", Json::Num(m.worker_utilization())),
        ("uptime_seconds", Json::Num(m.uptime_seconds)),
        ("workers", Json::UInt(m.workers as u64)),
    ])
}

/// The error body every non-2xx response carries.
#[must_use]
pub fn error_to_json(error: &ServiceError) -> Json {
    Json::obj([("error", Json::Str(error.to_string()))])
}

// ------------------------------------------------------------------ hex --

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn unhex(text: &str) -> Result<Vec<u8>, ServiceError> {
    let bad = || ServiceError::InvalidRequest("'encoded' is not hex".into());
    if !text.len().is_multiple_of(2) {
        return Err(bad());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            text.get(i..i + 2).and_then(|pair| u8::from_str_radix(pair, 16).ok()).ok_or_else(bad)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_sim::SimStats;

    #[test]
    fn grid_overrides_apply_and_unknown_keys_are_typed() {
        let grid = grid_from_json(
            &Json::parse(r#"[{"dvi": "lvm", "phys_regs": 48}, {"window_size": 32}]"#)
                .expect("parses"),
        )
        .expect("grid decodes");
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].phys_regs, 48);
        assert_eq!(grid[1].window_size, 32);

        // The core has one scheduler: naming one is an unknown override.
        let scheduler = grid_from_json(
            &Json::parse(r#"[{"scheduler": "naive-scan", "window_size": 32}]"#).expect("parses"),
        );
        assert!(
            matches!(&scheduler, Err(ServiceError::InvalidRequest(msg)) if msg.contains("unknown override 'scheduler'")),
            "got {scheduler:?}"
        );

        // The machine has one L1D, the tag array: the perfect-L1D key is
        // an unknown override too, answered with HTTP 400.
        let perfect =
            grid_from_json(&Json::parse(r#"[{"perfect_dcache": true}]"#).expect("parses"))
                .expect_err("no perfect-L1D machine");
        assert!(
            matches!(&perfect, ServiceError::InvalidRequest(msg) if msg.contains("unknown override 'perfect_dcache'")),
            "got {perfect:?}"
        );
        assert_eq!(perfect.http_status(), 400);

        let unknown = grid_from_json(&Json::parse(r#"[{"wibble": 3}]"#).expect("parses"));
        assert!(matches!(unknown, Err(ServiceError::InvalidRequest(_))));
        let bad_dvi = grid_from_json(&Json::parse(r#"[{"dvi": "psychic"}]"#).expect("parses"));
        assert!(matches!(bad_dvi, Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn submit_body_roundtrips() {
        let source = TraceSource::Preset { name: "perl".into(), instrs: 30_000 };
        let body = submit_to_json(&source, &fig10_grid_json());
        let spec = parse_submit(&body).expect("parses");
        assert_eq!(spec.source, source);
        assert_eq!(spec.grid.len(), 2);

        let by_trace = submit_to_json(&TraceSource::Fingerprint(0xABCD), &fig10_grid_json());
        let spec = parse_submit(&by_trace).expect("parses");
        assert_eq!(spec.source, TraceSource::Fingerprint(0xABCD));
    }

    #[test]
    fn outcomes_roundtrip_bit_identically_through_json() {
        let outcome = MemberOutcome::Ok(SimStats {
            cycles: 123_456,
            program_instrs: 98_765,
            ..SimStats::default()
        });
        let encoded = outcome_to_json(&outcome, true);
        // Survive a full encode → text → parse → decode trip, as over HTTP.
        let text = encoded.encode();
        let parsed = Json::parse(&text).expect("wire JSON parses");
        assert_eq!(outcome_from_json(&parsed).expect("decodes"), outcome);
        assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn fingerprints_roundtrip() {
        let fp = 0x0123_4567_89AB_CDEF;
        assert_eq!(parse_fingerprint(&format_fingerprint(fp)).expect("parses"), fp);
        assert!(parse_fingerprint("xyzzy").is_err());
    }
}
