//! The `serve_mixed` workload: an in-process loopback `sdp_serve`
//! server driven over HTTP by a closed loop of [`CLIENTS`] clients.
//!
//! Load is sized for a two-core host: two placement workers, one kernel
//! thread per job, two clients that each wait for a job's result before
//! submitting the next. Clients poll job status at a fixed [`POLL`]
//! interval, an order of magnitude below the ~30 ms a `dp_tiny` job
//! takes, so latency is not quantized at the job's own scale.

use crate::flow::trace_cases;
use crate::metrics::{Metrics, Outcome};
use crate::stats::{mean, median, tail_percentile, MIN_BEYOND};
use crate::stream::{spec_json, ClientStream, StreamJob, BLOCK, CLIENTS, REPEAT_WINDOW};
use crate::trace::Span;
use crate::Args;
use sdp_dpgen::{generate, GenConfig};
use sdp_json::Json;
use sdp_legal::check_legal;
use sdp_netlist::BookshelfCase;
use sdp_serve::client::request;
use sdp_serve::{parse_spec, CaseSource, Server, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Design preset of every job.
const PRESET: &str = "dp_tiny";
/// Placement workers in the server.
const WORKERS: usize = 2;
/// Result-cache budget: about 150 `dp_tiny` bodies (~7 KB each), several
/// times the specs a repeat can point back at (`REPEAT_WINDOW` per
/// client), but filled within a few seconds, so the cache does not make
/// `peak_rss_bytes` track how many jobs the machine got through. An
/// evicted spec would show: its repeat runs again, and the placement
/// count no longer matches the distinct specs.
const CACHE_BYTES: usize = 1 << 20;
/// Status poll interval.
const POLL: Duration = Duration::from_millis(2);
/// Server starts measured for `setup_s` (median reported).
const SERVER_STARTS: usize = 201;
/// Blocks every client completes however short the run: 13 blocks of 4
/// jobs on 2 clients is 104 jobs, enough for a p90 with 10 beyond it.
const MIN_BLOCKS: usize = 13;
/// Quality is averaged over each client's first `QUALITY_NEWS` new specs
/// (reached within `MIN_BLOCKS`), so it does not depend on how many jobs
/// a run got through.
const QUALITY_NEWS: usize = 36;
/// A job that has not settled by then is a failure.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Designs placed in-process by the traced run.
const TRACED_DESIGNS: usize = 4;

/// One job as the client saw it.
struct Sample {
    job: StreamJob,
    latency: f64,
    submit: f64,
    polls: u32,
    queue_wait: Option<f64>,
    run: Option<f64>,
    body: String,
    errors: Vec<String>,
}

fn field(status: &Json, key: &str) -> Option<f64> {
    status.get(key).and_then(Json::as_f64)
}

/// Submits one job, polls it to a terminal state and fetches its result.
fn run_job(port: u16, preset: &str, job: StreamJob) -> Sample {
    let mut s = Sample {
        job,
        latency: 0.0,
        submit: 0.0,
        polls: 0,
        queue_wait: None,
        run: None,
        body: String::new(),
        errors: Vec::new(),
    };
    let t0 = Instant::now();
    let id = match request(port, "POST", "/jobs", &spec_json(preset, job.design_seed)) {
        Ok((202, body)) => sdp_json::parse(&body)
            .ok()
            .and_then(|v| v.get("id")?.as_u64()),
        Ok((status, body)) => {
            s.errors
                .push(format!("POST /jobs answered {status}: {body}"));
            None
        }
        Err(e) => {
            s.errors.push(format!("POST /jobs: {e}"));
            None
        }
    };
    s.submit = t0.elapsed().as_secs_f64();
    let Some(id) = id else {
        s.errors.push("no job id".into());
        return s;
    };
    let status = loop {
        s.polls += 1;
        let polled = request(port, "GET", &format!("/jobs/{id}"), "")
            .map_err(|e| e.to_string())
            .and_then(|(_, body)| sdp_json::parse(&body).map_err(|e| e.to_string()));
        match polled {
            Ok(v) => {
                let state = v.get("state").and_then(Json::as_str).unwrap_or("");
                if !matches!(state, "queued" | "running") {
                    break v;
                }
            }
            Err(e) => s.errors.push(format!("GET /jobs/{id}: {e}")),
        }
        if t0.elapsed() > JOB_TIMEOUT || !s.errors.is_empty() {
            s.errors.push(format!("job {id} did not settle"));
            return s;
        }
        std::thread::sleep(POLL);
    };
    match request(port, "GET", &format!("/jobs/{id}/result"), "") {
        Ok((200, body)) => s.body = body,
        Ok((code, body)) => s.errors.push(format!("result answered {code}: {body}")),
        Err(e) => s.errors.push(format!("GET result: {e}")),
    }
    s.latency = t0.elapsed().as_secs_f64();
    if status.get("state").and_then(Json::as_str) != Some("done") {
        s.errors.push(format!("job ended {status}"));
    }
    s.queue_wait = field(&status, "queue_wait_s");
    s.run = field(&status, "run_s");
    s
}

/// Checks a repeat's body against the first run of its spec.
pub fn check_repeat(first: Option<&String>, body: &str) -> Option<String> {
    match first {
        Some(f) if f == body => None,
        Some(_) => Some("repeat body differs from the first run of its spec".into()),
        None => Some("repeat of a spec this client never ran".into()),
    }
}

/// One client's closed loop: whole blocks until `deadline`, at least
/// `MIN_BLOCKS`.
fn client(port: u16, preset: &str, seed: u64, c: usize, deadline: Instant) -> Vec<Sample> {
    let mut stream = ClientStream::new(seed, c);
    let mut recent: VecDeque<(u64, String)> = VecDeque::new();
    let mut samples = Vec::new();
    let mut news = 0;
    for block in 0.. {
        if block >= MIN_BLOCKS && Instant::now() >= deadline {
            break;
        }
        for job in stream.by_ref().take(BLOCK) {
            let mut s = run_job(port, preset, job);
            if job.repeat {
                let first = recent.iter().find(|(d, _)| *d == job.design_seed);
                s.errors
                    .extend(check_repeat(first.map(|(_, b)| b), &s.body));
                s.body.clear();
            } else {
                recent.push_back((job.design_seed, s.body.clone()));
                if recent.len() > REPEAT_WINDOW {
                    recent.pop_front();
                }
                news += 1;
                if news > QUALITY_NEWS {
                    s.body.clear();
                }
            }
            samples.push(s);
        }
    }
    samples
}

/// Reads one counter from the Prometheus exposition.
fn counter(metrics: &str, name: &str) -> Option<f64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Regenerates a served job's design, checks the returned placement with
/// the independent legality checker and recomputes its HPWL. Returns
/// `(hpwl_total, hpwl_datapath, errors)` from the body.
fn check_body(preset: &str, design_seed: u64, body: &str) -> (f64, f64, Vec<String>) {
    let mut errors = Vec::new();
    let Ok(v) = sdp_json::parse(body) else {
        return (0.0, 0.0, vec!["result body is not JSON".into()]);
    };
    let num = |a: &str, b: &str| v.get(a).and_then(|x| x.get(b)).and_then(Json::as_f64);
    let total = num("hpwl", "total").unwrap_or(0.0);
    let datapath = num("hpwl", "datapath").unwrap_or(0.0);
    let cfg = GenConfig::named(preset, design_seed).expect("stream presets exist");
    let g = generate(&cfg);
    let mut placement = g.placement.clone();
    let by_name: BTreeMap<&str, sdp_netlist::CellId> = g
        .netlist
        .cell_ids()
        .map(|c| (g.netlist.cell(c).name.as_str(), c))
        .collect();
    let rows = v.get("placement").and_then(Json::as_arr).unwrap_or(&[]);
    if rows.len() != g.netlist.num_cells() {
        errors.push(format!(
            "placement has {} cells, design has {}",
            rows.len(),
            g.netlist.num_cells()
        ));
    }
    for row in rows {
        let parsed = row.as_str().and_then(|r| {
            let mut it = r.split(' ');
            let c = *by_name.get(it.next()?)?;
            let x: f64 = it.next()?.parse().ok()?;
            let y: f64 = it.next()?.parse().ok()?;
            Some((c, sdp_geom::Point::new(x, y)))
        });
        match parsed {
            Some((c, p)) => placement.set(c, p),
            None => errors.push(format!("bad placement row {row}")),
        }
    }
    let violations = check_legal(&g.netlist, &g.design, &placement).len();
    if violations > 0 {
        errors.push(format!("check_legal found {violations} violations"));
    }
    let recomputed = sdp_gp::hpwl(&g.netlist, placement.positions());
    if (recomputed - total).abs() > 1e-9 * total.abs().max(1.0) {
        errors.push(format!("body hpwl {total} != recomputed {recomputed}"));
    }
    (total, datapath, errors)
}

/// Starts a server `n` times (each replacing the last), timing start to
/// the first 200 from `/healthz` into `starts`; returns the last one.
fn start_servers(
    cfg: &ServerConfig,
    n: usize,
    starts: &mut Vec<f64>,
) -> Result<ServerHandle, String> {
    let mut server = None;
    for _ in 0..n {
        drop(server.take());
        let t0 = Instant::now();
        let handle = Server::start(cfg.clone()).map_err(|e| format!("server start: {e}"))?;
        loop {
            if let Ok((200, _)) = request(handle.port(), "GET", "/healthz", "") {
                break;
            }
            if t0.elapsed() > Duration::from_secs(10) {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        starts.push(t0.elapsed().as_secs_f64());
        server = Some(handle);
    }
    server.ok_or_else(|| "no server started".into())
}

/// Runs `serve_mixed`.
pub fn run(args: &Args, m: &mut Metrics, outcome: &mut Outcome) -> Result<Vec<Vec<Span>>, String> {
    let preset = args.preset.as_deref().unwrap_or(PRESET);
    let seed = args.seed;
    let cfg = ServerConfig {
        port: 0,
        workers: WORKERS,
        threads: 1,
        cache_bytes: CACHE_BYTES,
        ..ServerConfig::default()
    };

    // Set-up: server start to the first 200 from /healthz, many times,
    // half before the stream and half after it, so the median samples
    // the machine across the run rather than one moment of it.
    let mut starts = Vec::new();
    let mut server = start_servers(&cfg, SERVER_STARTS / 2 + 1, &mut starts)?;
    let port = server.port();

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(port, preset, seed, c, deadline)))
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let stream_s = t0.elapsed().as_secs_f64();
    let metrics_text = request(port, "GET", "/metrics", "")
        .map(|(_, b)| b)
        .unwrap_or_default();
    server.shutdown();
    drop(start_servers(&cfg, SERVER_STARTS / 2, &mut starts)?);
    m.set("setup_s", median(&starts).expect("SERVER_STARTS > 0"));

    let mut quality = (Vec::new(), Vec::new());
    for s in samples
        .iter()
        .filter(|s| !s.job.repeat && !s.body.is_empty())
    {
        let (total, datapath, errors) = check_body(preset, s.job.design_seed, &s.body);
        outcome.record(
            &format!("served result of design {}", s.job.design_seed),
            errors,
        );
        quality.0.push(total);
        quality.1.push(datapath);
    }
    for s in &samples {
        outcome.record(
            &format!("job for design {}", s.job.design_seed),
            s.errors.clone(),
        );
    }

    // Stream accounting: one placement per distinct spec, every repeat
    // answered from the cache.
    let jobs = samples.len() as f64;
    let repeats = samples.iter().filter(|s| s.job.repeat).count() as f64;
    let distinct = jobs - repeats;
    let get = |name| counter(&metrics_text, name).unwrap_or(f64::NAN);
    let placements = get("sdp_serve_jobs_completed_total");
    let hits = get("sdp_serve_cache_hits_total");
    let coalesced = get("sdp_serve_coalesced_total");
    let mut errors = Vec::new();
    if placements != distinct {
        errors.push(format!(
            "{placements} placements for {distinct} distinct specs"
        ));
    }
    if hits + coalesced != repeats {
        errors.push(format!(
            "{hits} hits + {coalesced} coalesced for {repeats} repeats"
        ));
    }
    outcome.record("stream accounting", errors);

    let latencies: Vec<f64> = samples.iter().map(|s| s.latency).collect();
    let runs: Vec<f64> = samples.iter().filter_map(|s| s.run).collect();
    m.set("flow_wall_s", median(&runs).unwrap_or(0.0));
    m.set("hpwl_total", mean(&quality.0).unwrap_or(0.0));
    m.set("hpwl_datapath", mean(&quality.1).unwrap_or(0.0));
    // The fast flow aligns next to no rows on designs this small (0-1%
    // across seeds, often exactly 0), so the mean carries no signal.
    m.na(
        "aligned_row_fraction",
        1.0,
        "dp_tiny fast-flow jobs align almost no rows",
    );
    m.na("routed_wl", 1.0, "HPWL-mode jobs: no routing");
    m.na("routed_overflow", 1.0, "HPWL-mode jobs: no routing");
    m.set("jobs_per_sec", jobs / stream_s);
    m.set("job_latency_p50_s", median(&latencies).unwrap_or(0.0));
    match tail_percentile(&latencies, 0.9) {
        Some(p) => m.set("job_latency_p90_s", p),
        None => {
            outcome.record(
                "latency tail",
                vec![format!(
                    "p90 needs {MIN_BEYOND} samples beyond it; {jobs} jobs"
                )],
            );
            m.na("job_latency_p90_s", 0.0, "too few jobs");
        }
    }
    m.set("peak_rss_bytes", crate::peak_rss_bytes());

    if !args.trace {
        return Ok(Vec::new());
    }
    let submits: Vec<f64> = samples.iter().map(|s| s.submit * 1e3).collect();
    let hit_lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.job.repeat)
        .map(|s| s.latency)
        .collect();
    let waits: Vec<f64> = samples.iter().filter_map(|s| s.queue_wait).collect();
    let polls: Vec<f64> = samples.iter().map(|s| f64::from(s.polls)).collect();
    m.set("serve.submit_ms_p50", median(&submits).unwrap_or(0.0));
    m.set("serve.hit_latency_p50_s", median(&hit_lat).unwrap_or(0.0));
    m.set("serve.absorbed_ratio", (hits + coalesced) / jobs);
    m.set("serve.placements_run", placements);
    m.set("serve.queue_wait_p50_s", median(&waits).unwrap_or(0.0));
    m.set("serve.run_s_p50", median(&runs).unwrap_or(0.0));
    m.set("serve.polls_per_job", mean(&polls).unwrap_or(0.0));

    // Layers below the server: the first designs of the stream placed
    // in-process with the jobs' own flow configuration.
    let spec = parse_spec(&spec_json(preset, 0)).map_err(|e| e.0)?;
    let cases: Vec<BookshelfCase> = ClientStream::new(seed, 0)
        .filter(|j| !j.repeat)
        .take(TRACED_DESIGNS)
        .map(|j| {
            let mut gc = match &spec.source {
                CaseSource::Generated(gc) => gc.clone(),
                CaseSource::Loaded { .. } => unreachable!("stream specs name a preset"),
            };
            gc.seed = j.design_seed;
            let g = generate(&gc);
            BookshelfCase {
                netlist: g.netlist,
                design: g.design,
                placement: g.placement,
            }
        })
        .collect();
    let spans = trace_cases(&cases, &spec.flow, m, outcome);
    m.na(
        "netlist.read_bookshelf_s",
        0.0,
        "served jobs name a preset; nothing is parsed",
    );
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_mismatch_is_a_failure() {
        let first = "{\"hpwl\":1}".to_string();
        assert_eq!(check_repeat(Some(&first), "{\"hpwl\":1}"), None);
        assert!(check_repeat(Some(&first), "{\"hpwl\":2}").is_some());
        assert!(check_repeat(None, "{}").is_some());
    }

    #[test]
    fn counters_parse_from_the_exposition() {
        let text = "# HELP x\nsdp_serve_cache_hits_total 60\nsdp_serve_cache_hits_total_x 1\n";
        assert_eq!(counter(text, "sdp_serve_cache_hits_total"), Some(60.0));
        assert_eq!(counter(text, "sdp_serve_coalesced_total"), None);
    }

    #[test]
    fn served_bodies_are_checked_independently() {
        let spec = parse_spec(&spec_json("dp_tiny", 5)).expect("spec");
        let CaseSource::Generated(gc) = &spec.source else {
            panic!("preset spec")
        };
        let g = generate(gc);
        let out = sdp_core::StructurePlacer::new(spec.flow.clone()).place(
            &g.netlist,
            &g.design,
            &g.placement,
        );
        let rows: Vec<Json> = g
            .netlist
            .cell_ids()
            .map(|c| {
                let p = out.placement.get(c);
                Json::str(format!("{} {} {}", g.netlist.cell(c).name, p.x, p.y))
            })
            .collect();
        let body = |rows: Vec<Json>| {
            Json::obj([
                (
                    "hpwl",
                    Json::obj([
                        ("total", Json::num(out.report.hpwl.total)),
                        ("datapath", Json::num(out.report.hpwl.datapath)),
                    ]),
                ),
                ("placement", Json::Arr(rows)),
            ])
            .to_string()
        };
        let (.., errors) = check_body("dp_tiny", 5, &body(rows.clone()));
        assert!(errors.is_empty(), "{errors:?}");

        // Stack one movable cell onto another: an injected legal violation.
        let mut broken = rows;
        let mut movable = g.netlist.movable_ids();
        let (a, b) = (movable.next().expect("cell"), movable.next().expect("cell"));
        let pa = out.placement.get(a);
        broken[b.ix()] = Json::str(format!("{} {} {}", g.netlist.cell(b).name, pa.x, pa.y));
        let (.., errors) = check_body("dp_tiny", 5, &body(broken));
        assert!(
            errors.iter().any(|e| e.contains("check_legal")),
            "{errors:?}"
        );
    }
}
