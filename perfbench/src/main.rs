//! `sdp-perfbench`: the repository's end-to-end placement benchmark.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_large|route_congested|serve_mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its inputs from `--seed`, measures for about
//! `--seconds`, checks every output, prints one line per metric, and
//! ends with a JSON result line: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1` (which also writes its spans to
//! `.perfbench_traces/`). See `README.md` for what each metric means.

mod flow;
mod metrics;
mod serve;
mod stats;
mod stream;
mod trace;

use metrics::{render, Metrics, Outcome, END_TO_END, PER_LAYER};
use sdp_json::Json;
use std::path::{Path, PathBuf};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["flow_large", "route_congested", "serve_mixed"];

/// The command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the inputs: the flow workloads' design order, `serve_mixed`'s
    /// job stream.
    pub seed: u64,
    /// Time budget of the measured part.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Overrides every design's preset (the smoke test runs `dp_tiny`).
    pub preset: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut preset = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--preset" => preset = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        preset,
    })
}

/// Peak resident set size of this process in bytes (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

fn run(
    args: &Args,
    work: &Path,
    m: &mut Metrics,
    o: &mut Outcome,
) -> Result<Vec<Vec<trace::Span>>, String> {
    match args.workload.as_str() {
        "flow_large" => flow::run(&flow::FLOW_LARGE, args, work, m, o),
        "route_congested" => flow::run(&flow::ROUTE_CONGESTED, args, work, m, o),
        _ => serve::run(args, m, o),
    }
}

fn write_trace(path: &Path, args: &Args, calls: &[Vec<trace::Span>]) -> Result<(), String> {
    let doc = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::str(args.seed.to_string())),
        (
            "calls",
            Json::Arr(
                calls
                    .iter()
                    .map(|spans| Json::Arr(spans.iter().map(trace::Span::to_json).collect()))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(flow::TIME_READS) {
        std::process::exit(flow::time_reads(&argv[1..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let work =
        cwd.join(".perfbench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let mut m = Metrics::default();
    let mut o = Outcome::default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} seconds {} trace {} on {threads} hardware threads",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &mut m, &mut o));
    if let Err(e) = std::fs::remove_dir_all(&work) {
        eprintln!("perfbench: removing {}: {e}", work.display());
    }
    let spans = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = cwd
            .join(".perfbench_traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        match write_trace(&path, &args, &spans) {
            Ok(()) => println!(
                "spans of {} traced calls written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing trace: {e}");
                std::process::exit(1);
            }
        }
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let (lines, result) = render(defs, &m, &o);
    for l in lines {
        println!("{l}");
    }
    println!("{result}");
}
