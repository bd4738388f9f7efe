//! The repository benchmark: seeded workloads against the public APIs of
//! `dvi-experiments`, `dvi-sim` and `dvi-service`, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <regfile-sweep|trace-churn|service-mixed|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced runs
//! time the calls into each layer from here and report the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod batch;
mod check;
mod inputs;
mod probes;
mod report;
mod service;

use report::{RunReport, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &["regfile-sweep", "trace-churn", "service-mixed"];

const USAGE: &str =
    "usage: dvi-benchmark --workload <regfile-sweep|trace-churn|service-mixed|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: '{value}' is not a number"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

/// Runs one workload (at the self-test size when `tiny`) and adds the
/// host-wide metrics.
fn run_workload(name: &str, seed: u64, seconds: Duration, trace: bool, tiny: bool) -> RunReport {
    let nproc = report::nproc();
    let effective = report::effective_parallelism(nproc);
    let batch_shape = |shape: batch::Shape| if tiny { shape.tiny() } else { shape };
    let mut report = match name {
        "regfile-sweep" => {
            batch::run(batch_shape(batch::Shape::regfile_sweep()), seed, seconds, trace)
        }
        "trace-churn" => batch::run(batch_shape(batch::Shape::trace_churn()), seed, seconds, trace),
        "service-mixed" => {
            let shape = service::Shape::service_mixed();
            service::run(if tiny { shape.tiny() } else { shape }, seed, seconds, trace)
        }
        other => unreachable!("workload names are validated: {other}"),
    };
    let rss = report::peak_rss_mb();
    report.end_to_end.insert("peak_rss_mb", rss);
    report.notes.push(format!("host: nproc {nproc}, effective parallelism {effective:.3}"));
    if trace {
        report.end_to_end_traced.insert("peak_rss_mb", rss);
        report.per_layer.insert("host.nproc", nproc as f64);
        report.per_layer.insert("host.effective_parallelism", effective);
        report
            .per_layer
            .insert("failed_frac", report::ratio(report.failed as f64, report.attempted as f64));
    }
    report
}

/// The human-readable report; the caller prints the JSON line after it.
fn render(name: &str, report: &RunReport, trace: bool) -> String {
    let mut out = format!("== {name} ==\n");
    let column = |values: &std::collections::BTreeMap<&str, f64>, metric: &str| {
        values.get(metric).map_or_else(String::new, |v| format!("{v:.6}"))
    };
    out.push_str(&format!("{:<40} {:>14} {:>14}  unit\n", "end-to-end", "untraced", "traced"));
    for &(metric, unit) in END_TO_END {
        out.push_str(&format!(
            "{metric:<40} {:>14} {:>14}  {unit}\n",
            column(&report.end_to_end, metric),
            column(&report.end_to_end_traced, metric)
        ));
    }
    out.push_str(&format!(
        "{:<40} {:>14}  ({} failed of {} attempted)\n",
        "failed_frac",
        format!("{:.6}", report::ratio(report.failed as f64, report.attempted as f64)),
        report.failed,
        report.attempted
    ));
    if trace {
        out.push_str(&format!("{:<40} {:>14}  unit\n", "per-layer", "value"));
        for &(metric, unit) in PER_LAYER {
            out.push_str(&format!(
                "{metric:<40} {:>14}  {unit}\n",
                column(&report.per_layer, metric)
            ));
        }
    }
    for note in &report.notes {
        out.push_str(note);
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Hermetic runs: with this set, `sweep_matrix` would serve the batch
    // workloads from an on-disk memo cache instead of simulating.
    if std::env::var_os("DVI_RESULT_CACHE").is_some() {
        eprintln!("note: DVI_RESULT_CACHE is ignored by the benchmark");
        std::env::remove_var("DVI_RESULT_CACHE");
    }
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut correct = true;
    for name in names {
        let report =
            run_workload(name, args.seed, Duration::from_secs(args.seconds), args.trace, false);
        print!("{}", render(name, &report, args.trace));
        println!("{}", report.json_line(args.trace));
        correct &= report.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_service::json::Json;

    /// The metric names and units `BENCHMARK.json` declares.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_arr)
            .expect("the metric list exists")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("named").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_declared_metrics_are_the_measured_ones() {
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(declared("end_to_end"), pairs(END_TO_END));
        assert_eq!(declared("per_layer"), pairs(PER_LAYER));
    }

    /// Every workload at a tiny size, untraced and traced: all outputs
    /// check out and every named metric is printed with its unit.
    #[test]
    fn every_workload_prints_every_metric_at_a_tiny_size() {
        for &name in WORKLOADS {
            for trace in [false, true] {
                let report = run_workload(name, 7, Duration::ZERO, trace, true);
                assert!(report.correct(), "{name}: {:?}", report.notes);
                let line = report.json_line(trace);
                let json = Json::parse(&line).expect("the result line is JSON");
                let metrics = json.get("metrics").expect("metrics present");
                for (metric, unit) in if trace { PER_LAYER } else { END_TO_END } {
                    let entry = metrics.get(metric).unwrap_or_else(|| panic!("{name}: {metric}"));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
                    assert!(entry.get("value").and_then(Json::as_f64).is_some());
                }
                let text = render(name, &report, trace);
                assert!(END_TO_END.iter().all(|(m, _)| text.contains(m)));
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload trace-churn --seed 4 --seconds 3 --trace 1").expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (4, 3, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload all --trace 2").is_err());
        assert!(parse("--workload all --seed").is_err());
    }
}
