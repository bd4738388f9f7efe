//! The `dvi-service` command line: run the sweep service, or drive one.
//!
//! ```text
//! dvi-service serve   --data-dir DIR [--addr 127.0.0.1:7117] [--workers N]
//! dvi-service submit  (--preset NAME [--instrs N] | --trace FILE)
//!                     [--grid JSON|fig10] (--server ADDR | --data-dir DIR)
//!                     [--wait SECS]
//! dvi-service status  [JOB] --server ADDR
//! dvi-service results JOB --server ADDR
//! dvi-service cancel  JOB --server ADDR
//! ```
//!
//! `submit` has two modes: with `--server` it talks HTTP to a running
//! `serve` instance; with `--data-dir` it runs the job in-process against
//! the same on-disk result cache a server over that directory would use —
//! so an offline submission still memoizes, and a later server run still
//! hits.

#![forbid(unsafe_code)]

use dvi_service::http::{http_json, http_request, HttpServer};
use dvi_service::json::Json;
use dvi_service::{wire, JobSpec, ServiceConfig, ServiceError, SweepService, TraceSource};
use std::time::Duration;

/// Instruction budget used when `--instrs` is omitted.
const DEFAULT_INSTRS: u64 = 400_000;
/// Wait used when `--wait` is omitted.
const DEFAULT_WAIT_SECS: u64 = 3600;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => run(serve(&args[1..])),
        Some("submit") => run(submit(&args[1..])),
        Some("status") => run(status(&args[1..])),
        Some("results") => run(results(&args[1..])),
        Some("cancel") => run(cancel(&args[1..])),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", usage());
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{}", usage());
            2
        }
    };
    std::process::exit(code);
}

fn usage() -> String {
    [
        "dvi-service: persistent sweep service for the DVI simulator\n",
        "\nCommands:\n",
        "  serve   --data-dir DIR [--addr 127.0.0.1:7117] [--workers N]\n",
        "  submit  (--preset NAME [--instrs N] | --trace FILE) [--grid JSON|fig10]\n",
        "          (--server ADDR | --data-dir DIR) [--wait SECS]\n",
        "  status  [JOB] --server ADDR\n",
        "  results JOB --server ADDR\n",
        "  cancel  JOB --server ADDR\n",
        "\nThe fig10 grid shorthand expands to the paper's Figure 10 study:\n",
        "  [{\"dvi\": \"lvm\"}, {\"dvi\": \"lvm-stack\"}]\n",
    ]
    .concat()
}

fn run(result: Result<(), ServiceError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dvi-service: {e}");
            1
        }
    }
}

/// A tiny flag parser: `--name value` pairs plus bare positionals.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, ServiceError> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = iter.next().ok_or_else(|| {
                    ServiceError::InvalidRequest(format!("--{name} needs a value"))
                })?;
                pairs.push((name.to_owned(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Flags { pairs, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn get_u64(&self, name: &str) -> Result<Option<u64>, ServiceError> {
        self.get(name)
            .map(|v| {
                v.parse().map_err(|_| {
                    ServiceError::InvalidRequest(format!("--{name} must be an integer"))
                })
            })
            .transpose()
    }
}

fn serve(args: &[String]) -> Result<(), ServiceError> {
    let flags = Flags::parse(args)?;
    let data_dir = flags
        .get("data-dir")
        .ok_or_else(|| ServiceError::InvalidRequest("serve needs --data-dir".into()))?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7117");
    let mut config = ServiceConfig::new(data_dir);
    if let Some(workers) = flags.get_u64("workers")? {
        config = config.with_workers(workers as usize);
    }
    let service = SweepService::start(config)?;
    let mut server = HttpServer::serve(service, addr)?;
    println!("dvi-service listening on http://{}", server.local_addr());
    println!("data dir: {data_dir}");
    server.join();
    Ok(())
}

/// Builds the grid JSON from `--grid` (raw JSON or the `fig10` shorthand).
fn grid_value(flags: &Flags) -> Result<Json, ServiceError> {
    match flags.get("grid") {
        None | Some("fig10") => Ok(wire::fig10_grid_json()),
        Some(text) => Json::parse(text)
            .map_err(|e| ServiceError::InvalidRequest(format!("--grid is not JSON: {e}"))),
    }
}

fn submit(args: &[String]) -> Result<(), ServiceError> {
    let flags = Flags::parse(args)?;
    let grid_json = grid_value(&flags)?;
    let wait = Duration::from_secs(flags.get_u64("wait")?.unwrap_or(DEFAULT_WAIT_SECS));

    match (flags.get("server"), flags.get("data-dir")) {
        (Some(addr), None) => submit_remote(addr, &flags, &grid_json, wait),
        (None, Some(data_dir)) => submit_local(data_dir, &flags, &grid_json, wait),
        _ => Err(ServiceError::InvalidRequest(
            "submit needs exactly one of --server or --data-dir".into(),
        )),
    }
}

/// HTTP mode: upload the trace if needed, POST the job, poll to
/// completion, print the results body.
fn submit_remote(
    addr: &str,
    flags: &Flags,
    grid_json: &Json,
    wait: Duration,
) -> Result<(), ServiceError> {
    let source = match (flags.get("preset"), flags.get("trace")) {
        (Some(name), None) => TraceSource::Preset {
            name: name.to_owned(),
            instrs: flags.get_u64("instrs")?.unwrap_or(DEFAULT_INSTRS),
        },
        (None, Some(path)) => {
            let bytes = std::fs::read(path)
                .map_err(|e| ServiceError::Io(format!("reading {path}: {e}")))?;
            let (status, body) =
                http_request(addr, "POST", "/traces", &bytes, "application/octet-stream")?;
            let reply = parse_reply(status, &body)?;
            let fp = reply.get("fingerprint").and_then(Json::as_str).ok_or_else(|| {
                ServiceError::InvalidRequest("upload reply has no fingerprint".into())
            })?;
            println!("uploaded {path} as {fp}");
            TraceSource::Fingerprint(wire::parse_fingerprint(fp)?)
        }
        _ => {
            return Err(ServiceError::InvalidRequest(
                "submit needs exactly one of --preset or --trace".into(),
            ))
        }
    };
    let body = wire::submit_to_json(&source, grid_json);
    let reply = http_json(addr, "POST", "/jobs", Some(&body))?;
    let job = reply
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServiceError::InvalidRequest("submit reply has no job id".into()))?;
    println!("job {job} submitted");

    let deadline = std::time::Instant::now() + wait;
    loop {
        let (status, raw) =
            http_request(addr, "GET", &format!("/jobs/{job}/results"), &[], "application/json")?;
        if status == 200 {
            let text = std::str::from_utf8(&raw)
                .map_err(|_| ServiceError::InvalidRequest("response is not UTF-8".into()))?;
            println!("{text}");
            return Ok(());
        }
        if status != 202 {
            parse_reply(status, &raw)?;
            return Ok(());
        }
        if std::time::Instant::now() >= deadline {
            return Err(ServiceError::Timeout(job));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// In-process mode: run the job against the data directory's cache
/// directly — the same memoization a server over that directory uses.
fn submit_local(
    data_dir: &str,
    flags: &Flags,
    grid_json: &Json,
    wait: Duration,
) -> Result<(), ServiceError> {
    let service = SweepService::start(ServiceConfig::new(data_dir))?;
    let source = match (flags.get("preset"), flags.get("trace")) {
        (Some(name), None) => TraceSource::Preset {
            name: name.to_owned(),
            instrs: flags.get_u64("instrs")?.unwrap_or(DEFAULT_INSTRS),
        },
        (None, Some(path)) => {
            let trace = dvi_program::CapturedTrace::load(std::path::Path::new(path))?;
            TraceSource::Fingerprint(service.register_trace(trace))
        }
        _ => {
            return Err(ServiceError::InvalidRequest(
                "submit needs exactly one of --preset or --trace".into(),
            ))
        }
    };
    let grid = wire::grid_from_json(grid_json)?;
    let job = service.submit(JobSpec { source, grid })?;
    let status = service.wait(job, wait)?;
    println!("{}", wire::status_to_json(&status).encode());
    let results = service.results(job)?;
    println!("{}", wire::results_to_json(job, &results).encode());
    println!("{}", wire::metrics_to_json(&service.metrics()).encode());
    service.shutdown();
    Ok(())
}

fn parse_reply(status: u16, body: &[u8]) -> Result<Json, ServiceError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServiceError::InvalidRequest("response is not UTF-8".into()))?;
    let json = Json::parse(text)
        .map_err(|e| ServiceError::InvalidRequest(format!("response is not JSON: {e}")))?;
    if (200..300).contains(&status) {
        Ok(json)
    } else {
        Err(ServiceError::Http {
            status,
            message: json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error")
                .to_owned(),
        })
    }
}

fn status(args: &[String]) -> Result<(), ServiceError> {
    let flags = Flags::parse(args)?;
    let addr = flags
        .get("server")
        .ok_or_else(|| ServiceError::InvalidRequest("status needs --server".into()))?;
    match flags.positional.first() {
        Some(job) => {
            let reply = http_json(addr, "GET", &format!("/jobs/{job}"), None)?;
            println!("{}", reply.encode());
        }
        None => {
            let metrics = http_json(addr, "GET", "/metrics", None)?;
            println!("{}", metrics.encode());
            let jobs = http_json(addr, "GET", "/jobs", None)?;
            println!("{}", jobs.encode());
        }
    }
    Ok(())
}

fn results(args: &[String]) -> Result<(), ServiceError> {
    let flags = Flags::parse(args)?;
    let addr = flags
        .get("server")
        .ok_or_else(|| ServiceError::InvalidRequest("results needs --server".into()))?;
    let job = flags
        .positional
        .first()
        .ok_or_else(|| ServiceError::InvalidRequest("results needs a JOB id".into()))?;
    let reply = http_json(addr, "GET", &format!("/jobs/{job}/results"), None)?;
    println!("{}", reply.encode());
    Ok(())
}

fn cancel(args: &[String]) -> Result<(), ServiceError> {
    let flags = Flags::parse(args)?;
    let addr = flags
        .get("server")
        .ok_or_else(|| ServiceError::InvalidRequest("cancel needs --server".into()))?;
    let job = flags
        .positional
        .first()
        .ok_or_else(|| ServiceError::InvalidRequest("cancel needs a JOB id".into()))?;
    let reply = http_json(addr, "DELETE", &format!("/jobs/{job}"), None)?;
    println!("{}", reply.encode());
    Ok(())
}
