//! Direct flow calls: the `flow_large` and `route_congested` workloads,
//! and the traced in-process flows of `serve_mixed`.
//!
//! A run places a workload's fixed reference designs in an order set by
//! the seed, cycling through them until the time budget is spent; every
//! design is placed at least once and one of them twice, so each run
//! checks that a repeat is bitwise identical. Timing covers the
//! `place_with` call alone; the checks and metric recomputations run
//! after it.

use crate::metrics::{Metrics, Outcome};
use crate::stats::{mean, median};
use crate::stream::mix;
use crate::trace::{build_spans, count, phase_seconds, Span, Tracer};
use crate::Args;
use sdp_core::{AlignConfig, AlignTerm, FlowConfig, FlowMode, FlowOutput, StructurePlacer};
use sdp_dpgen::{generate, GenConfig};
use sdp_eval::{alignment_report, hpwl_breakdown};
use sdp_geom::Point;
use sdp_gp::{cluster::cluster_netlist, eval_wirelength_with, DensityModel, Executor, ExtraTerm};
use sdp_legal::check_legal;
use sdp_netlist::{read_bookshelf, write_bookshelf, BookshelfCase, Placement};
use sdp_progress::Observer;
use sdp_route::{inflate_cells, rudy_map_exec, InflateConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// A flow workload: which designs, which flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowWorkload {
    /// `dpgen` preset of every design.
    pub preset: &'static str,
    /// Core utilization override (`None` keeps the preset's).
    pub utilization: Option<f64>,
    /// Flow mode.
    pub mode: FlowMode,
    /// Distinct designs per run: `dpgen` seeds `FIRST_DESIGN_SEED ..`
    /// in every run. Designs of one preset differ in glue logic, which
    /// moves GP iteration counts, route-mode rounds (wall 4-8 s on
    /// congested `dp_medium`) and alignment, so a run drawing its designs
    /// from the seed would measure which designs it drew.
    pub designs: usize,
}

/// `dp_large` (19.4k cells), default structure-aware HPWL flow: the only
/// preset above GP's clustering threshold.
pub const FLOW_LARGE: FlowWorkload = FlowWorkload {
    preset: "dp_large",
    utilization: None,
    mode: FlowMode::Hpwl,
    designs: 4,
};

/// Congested `dp_medium` in route mode: router, RUDY feedback and
/// repeated legalization.
pub const ROUTE_CONGESTED: FlowWorkload = FlowWorkload {
    preset: "dp_medium",
    utilization: Some(0.92),
    mode: FlowMode::Route,
    designs: 5,
};

/// First argument of a set-up probe: a child process that reads the
/// given bundles once each and prints its median read in seconds.
pub const TIME_READS: &str = "--time-reads";
/// Set-up probes per run, half before the calls and half after them.
/// On a shared virtual machine a fresh process's speed at parsing is
/// bimodal and holds for the process's life (the same `dp_medium` bundle
/// reads in about 22 ms in one process and 40 ms in the next), so set-up
/// is timed in fresh processes and averaged over them.
const SETUP_PROBES: usize = 10;
/// Repetitions of each replayed kernel (median reported).
const REPLAYS: usize = 7;

/// `dpgen` seed of a flow workload's first reference design.
pub const FIRST_DESIGN_SEED: u64 = 1;

/// The `dpgen` seeds of a run's designs in the order the run places them:
/// the workload's reference designs, shuffled by `seed` (Fisher-Yates).
/// The first placed runs cold and the second is the one repeated.
pub fn design_seeds(seed: u64, designs: usize) -> Vec<u64> {
    let mut seeds: Vec<u64> = (0..designs as u64).map(|k| FIRST_DESIGN_SEED + k).collect();
    let mut rng = mix(seed);
    for i in (1..seeds.len()).rev() {
        rng = mix(rng);
        seeds.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    seeds
}

/// FNV-1a over the bit patterns of every cell position.
pub fn placement_hash(p: &Placement) -> u64 {
    let bytes: Vec<u8> = p
        .positions()
        .iter()
        .flat_map(|q| [q.x.to_bits().to_le_bytes(), q.y.to_bits().to_le_bytes()])
        .flatten()
        .collect();
    sdp_json::fnv1a_64(&bytes)
}

/// What a repeat must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `hpwl_total` bits.
    pub hpwl_bits: u64,
    /// [`placement_hash`].
    pub hash: u64,
}

/// Checks one call's output and returns one line per failed check:
/// the independent legality checker's violation count, the flow's
/// reported HPWL against a recomputation, a repeat against the first run
/// of its design, and in route mode the kept routed overflow against the
/// round-0 one-shot route.
pub fn check_output(
    out: &FlowOutput,
    violations: usize,
    recomputed_hpwl: f64,
    first: Option<Fingerprint>,
    mode: FlowMode,
) -> Vec<String> {
    let mut errors = Vec::new();
    if violations > 0 {
        errors.push(format!("check_legal found {violations} violations"));
    }
    if recomputed_hpwl.to_bits() != out.report.hpwl.total.to_bits() {
        errors.push(format!(
            "reported hpwl {} != recomputed {recomputed_hpwl}",
            out.report.hpwl.total
        ));
    }
    let now = Fingerprint {
        hpwl_bits: out.report.hpwl.total.to_bits(),
        hash: placement_hash(&out.placement),
    };
    if let Some(first) = first.filter(|&f| f != now) {
        errors.push(format!(
            "repeat differs from the first run: hpwl {} vs {}, hash {:016x} vs {:016x}",
            f64::from_bits(now.hpwl_bits),
            f64::from_bits(first.hpwl_bits),
            now.hash,
            first.hash
        ));
    }
    if mode == FlowMode::Route {
        match (&out.report.route, out.report.route_trace.first()) {
            (Some(kept), Some(one_shot)) if kept.overflow <= one_shot.overflow => {}
            (Some(kept), Some(one_shot)) => errors.push(format!(
                "kept overflow {} above one-shot overflow {}",
                kept.overflow, one_shot.overflow
            )),
            _ => errors.push("route mode returned no routed result".into()),
        }
    }
    errors
}

/// One `place_with` call as measured.
struct Call {
    design: usize,
    wall: f64,
    check_s: f64,
    eval_s: f64,
    report: sdp_core::FlowReport,
    spans: Option<Vec<Span>>,
}

/// The first output of a design, with quality recomputed from it.
struct First {
    out: FlowOutput,
    hpwl_total: f64,
    hpwl_datapath: f64,
    aligned: f64,
}

/// What [`measure`] returns.
pub struct Measured {
    calls: Vec<Call>,
    firsts: Vec<First>,
}

/// The design placed again right after every design was placed once.
/// Not the first: the process's first call runs cold (about 5% slower on
/// `dp_large`), which would bias the traced-minus-untraced overhead.
fn repeat_design(designs: usize) -> usize {
    1.min(designs - 1)
}

/// Places `cases` in turn until `seconds` have been spent (at least one
/// call per case plus a repeat of one). With `trace`, the first call of
/// each case is traced and the rest run untraced.
pub fn measure(
    cases: &[BookshelfCase],
    cfg: &FlowConfig,
    seconds: f64,
    trace: bool,
    outcome: &mut Outcome,
) -> Measured {
    let placer = StructurePlacer::new(cfg.clone());
    let k = cases.len();
    let mut calls: Vec<Call> = Vec::new();
    let mut firsts: Vec<First> = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        if i > k {
            let walls: Vec<f64> = calls.iter().map(|c| c.wall).collect();
            let typical = median(&walls).unwrap_or(0.0);
            if start.elapsed().as_secs_f64() + typical > seconds {
                break;
            }
        }
        let d = if i < k {
            i
        } else {
            (repeat_design(k) + i - k) % k
        };
        let case = &cases[d];
        let tracer = (trace && i < k).then(Tracer::new);
        let obs = tracer
            .as_ref()
            .map_or_else(Observer::noop, Tracer::observer);
        let traced_start = tracer.as_ref().map(Tracer::now);
        let t0 = Instant::now();
        let result = placer.place_with(&case.netlist, &case.design, &case.placement, &obs);
        let wall = t0.elapsed().as_secs_f64();
        let spans = tracer
            .as_ref()
            .map(|t| build_spans(traced_start.unwrap_or(0.0), t.now(), &t.events()));
        let what = format!("place_with design {d} call {i}");
        let Ok(out) = result else {
            outcome.record(&what, vec!["place_with was cancelled".into()]);
            continue;
        };

        let t0 = Instant::now();
        let violations = check_legal(&case.netlist, &case.design, &out.placement).len();
        let check_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let hb = hpwl_breakdown(&case.netlist, &out.placement, &out.groups);
        let ar = alignment_report(&out.placement, &out.groups, case.design.row_height());
        let eval_s = t0.elapsed().as_secs_f64();

        let first = firsts.get(d).map(|f| Fingerprint {
            hpwl_bits: f.out.report.hpwl.total.to_bits(),
            hash: placement_hash(&f.out.placement),
        });
        let mut errors = check_output(&out, violations, hb.total, first, cfg.mode);
        if let Some(spans) = &spans {
            errors.extend(check_spans(spans, &out, cfg.mode));
        }
        let routed = out.report.route.as_ref();
        println!(
            "call {i} design {d}{} wall {wall:.4} s gp_evals {} hpwl {:.1} routed_overflow {} rounds {}{}",
            if spans.is_some() { " traced" } else { "" },
            out.report.gp.evals,
            hb.total,
            routed.map_or("-".into(), |r| r.overflow.to_string()),
            out.report.route_rounds,
            if errors.is_empty() { "" } else { " FAILED" },
        );
        outcome.record(&what, errors);
        calls.push(Call {
            design: d,
            wall,
            check_s,
            eval_s,
            report: out.report.clone(),
            spans,
        });
        if firsts.len() == d {
            firsts.push(First {
                out,
                hpwl_total: hb.total,
                hpwl_datapath: hb.datapath,
                aligned: ar.aligned_row_fraction,
            });
        }
    }
    Measured { calls, firsts }
}

/// A traced call must show every phase it ran and one `gp.outer` span
/// per counted outer iteration (the coarse V-cycle pass adds more).
fn check_spans(spans: &[Span], out: &FlowOutput, mode: FlowMode) -> Vec<String> {
    let mut phases = vec!["extract", "global", "legalize", "detailed"];
    if mode == FlowMode::Route {
        phases.push("route");
    }
    let mut errors: Vec<String> = phases
        .into_iter()
        .filter(|p| count(spans, p) == 0)
        .map(|p| format!("trace has no {p} span"))
        .collect();
    let outers = count(spans, "gp.outer");
    if outers < out.report.gp.outer_iters {
        errors.push(format!(
            "trace has {outers} gp.outer spans for {} outer iterations",
            out.report.gp.outer_iters
        ));
    }
    errors
}

/// Generates the run's designs and writes them as Bookshelf bundles, in
/// call order. Returns the `.aux` paths.
pub fn write_inputs(
    w: &FlowWorkload,
    preset: &str,
    seed: u64,
    dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    let seeds = design_seeds(seed, w.designs);
    println!(
        "designs 0..{} are {preset} dpgen seeds {seeds:?}",
        w.designs
    );
    seeds
        .iter()
        .enumerate()
        .map(|(k, &s)| {
            let mut cfg =
                GenConfig::named(preset, s).ok_or_else(|| format!("unknown preset {preset}"))?;
            if let Some(u) = w.utilization {
                cfg.utilization = u;
            }
            let g = generate(&cfg);
            write_bookshelf(
                dir.join(format!("d{k}")),
                "case",
                &g.netlist,
                &g.design,
                &g.placement,
            )
            .map_err(|e| format!("writing design {k}: {e}"))
        })
        .collect()
}

/// The set-up probe's side: reads each bundle of `auxes` once and
/// prints the median read in seconds. Returns the process exit code.
pub fn time_reads(auxes: &[String]) -> i32 {
    let mut reads = Vec::new();
    for aux in auxes {
        let t0 = Instant::now();
        match read_bookshelf(aux) {
            Ok(case) => {
                reads.push(t0.elapsed().as_secs_f64());
                black_box(case);
            }
            Err(e) => {
                eprintln!("perfbench: reading {aux}: {e}");
                return 1;
            }
        }
    }
    match median(&reads) {
        Some(m) => {
            println!("{m}");
            0
        }
        None => 1,
    }
}

/// Runs `probes` set-up probes one after another, each in a fresh
/// process of this binary, and appends their median reads to `out`.
fn probe_reads(auxes: &[PathBuf], probes: usize, out: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    for _ in 0..probes {
        let o = Command::new(&exe)
            .arg(TIME_READS)
            .args(auxes)
            .output()
            .map_err(|e| format!("starting a set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&o.stdout);
        match text.trim().parse::<f64>() {
            Ok(s) if o.status.success() => out.push(s),
            _ => {
                return Err(format!(
                    "set-up probe failed ({}): {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr).trim()
                ))
            }
        }
    }
    Ok(())
}

/// Runs a flow workload: set-up (Bookshelf reads in fresh processes),
/// measured calls, and with `trace` the kernel replays.
pub fn run(
    w: &FlowWorkload,
    args: &Args,
    dir: &Path,
    m: &mut Metrics,
    outcome: &mut Outcome,
) -> Result<Vec<Vec<Span>>, String> {
    let preset = args.preset.as_deref().unwrap_or(w.preset);
    let auxes = write_inputs(w, preset, args.seed, dir)?;

    let mut probes = Vec::new();
    probe_reads(&auxes, SETUP_PROBES / 2, &mut probes)?;
    let cases = auxes
        .iter()
        .map(|aux| read_bookshelf(aux).map_err(|e| format!("reading {}: {e}", aux.display())))
        .collect::<Result<Vec<BookshelfCase>, String>>()?;

    let cfg = FlowConfig {
        mode: w.mode,
        ..FlowConfig::default()
    }
    .with_threads(0);
    let measured = measure(&cases, &cfg, args.seconds, args.trace, outcome);
    probe_reads(&auxes, SETUP_PROBES - SETUP_PROBES / 2, &mut probes)?;
    let read_s = mean(&probes).expect("SETUP_PROBES > 0");
    m.set("setup_s", read_s);
    m.set("netlist.read_bookshelf_s", read_s);
    end_to_end(&measured, cases.len(), w.mode, m);
    if !args.trace {
        return Ok(Vec::new());
    }
    for name in [
        "serve.submit_ms_p50",
        "serve.hit_latency_p50_s",
        "serve.absorbed_ratio",
        "serve.placements_run",
        "serve.queue_wait_p50_s",
        "serve.run_s_p50",
        "serve.polls_per_job",
    ] {
        m.na(name, 0.0, "direct library calls: no server");
    }
    Ok(traced_layers(measured, &cases, &cfg, m))
}

/// Places `cases` once each traced plus one untraced repeat, and sets
/// the per-layer metrics from the spans and kernel replays.
pub fn trace_cases(
    cases: &[BookshelfCase],
    cfg: &FlowConfig,
    m: &mut Metrics,
    outcome: &mut Outcome,
) -> Vec<Vec<Span>> {
    let measured = measure(cases, cfg, 0.0, true, outcome);
    traced_layers(measured, cases, cfg, m)
}

fn traced_layers(
    measured: Measured,
    cases: &[BookshelfCase],
    cfg: &FlowConfig,
    m: &mut Metrics,
) -> Vec<Vec<Span>> {
    per_layer(&measured, cfg.mode, m);
    if let Some(first) = measured.firsts.first() {
        replay(&cases[0], &first.out, cfg, m);
    }
    measured.calls.into_iter().filter_map(|c| c.spans).collect()
}

/// Untraced calls' walls, per design.
fn untraced_walls(calls: &[Call], design: usize) -> Vec<f64> {
    calls
        .iter()
        .filter(|c| c.design == design && c.spans.is_none())
        .map(|c| c.wall)
        .collect()
}

fn end_to_end(measured: &Measured, designs: usize, mode: FlowMode, m: &mut Metrics) {
    let per_design: Vec<f64> = (0..designs)
        .filter_map(|d| median(&untraced_walls(&measured.calls, d)))
        .collect();
    let flow_wall = mean(&per_design).unwrap_or(0.0);
    m.set("flow_wall_s", flow_wall);
    let firsts = &measured.firsts;
    let avg =
        |f: &dyn Fn(&First) -> f64| mean(&firsts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    m.set("hpwl_total", avg(&|f| f.hpwl_total));
    m.set("hpwl_datapath", avg(&|f| f.hpwl_datapath));
    m.set("aligned_row_fraction", avg(&|f| f.aligned));
    if mode == FlowMode::Route {
        m.set(
            "routed_wl",
            avg(&|f| f.out.report.route.as_ref().map_or(0.0, |r| r.wirelength)),
        );
        m.set(
            "routed_overflow",
            avg(&|f| {
                f.out
                    .report
                    .route
                    .as_ref()
                    .map_or(0.0, |r| r.overflow as f64)
            }),
        );
    } else {
        let why = "HPWL flow: no routing in the measured call";
        m.na("routed_wl", 1.0, why);
        m.na("routed_overflow", 1.0, why);
    }
    // Each design is one job of a batch user, taking its median call, so
    // which design the seed repeats does not weigh on the figures.
    let busy: f64 = per_design.iter().sum();
    m.set("jobs_per_sec", per_design.len() as f64 / busy.max(1e-12));
    // A handful of fixed designs has no latency distribution: the middle
    // design flips between neighbours with the machine's noise.
    let why = "a few fixed designs, no latency distribution; the mean design wall is printed";
    m.na("job_latency_p50_s", flow_wall, why);
    m.na("job_latency_p90_s", flow_wall, why);
    m.set("peak_rss_bytes", crate::peak_rss_bytes());
}

/// Mean over the traced calls of `f`.
fn traced_mean(calls: &[Call], f: impl Fn(&Call, &[Span]) -> f64) -> f64 {
    let v: Vec<f64> = calls
        .iter()
        .filter_map(|c| c.spans.as_deref().map(|s| f(c, s)))
        .collect();
    mean(&v).unwrap_or(0.0)
}

fn per_layer(measured: &Measured, mode: FlowMode, m: &mut Metrics) {
    let calls = &measured.calls;
    m.set(
        "extract.s",
        traced_mean(calls, |_, s| phase_seconds(s, "extract")),
    );
    m.set(
        "extract.groups",
        traced_mean(calls, |c, _| c.report.num_groups as f64),
    );
    m.set(
        "extract.group_cells",
        traced_mean(calls, |c, _| c.report.num_group_cells as f64),
    );
    let gp_s = traced_mean(calls, |_, s| phase_seconds(s, "global"));
    let evals = traced_mean(calls, |c, _| c.report.gp.evals as f64);
    m.set("gp.s", gp_s);
    m.set("gp.evals", evals);
    m.set(
        "gp.outer_iters",
        traced_mean(calls, |c, _| c.report.gp.outer_iters as f64),
    );
    m.set("gp.ms_per_eval", 1e3 * gp_s / evals.max(1.0));
    m.set(
        "gp.final_overflow",
        traced_mean(calls, |c, _| c.report.gp.final_overflow),
    );
    m.set(
        "core.glue_s",
        traced_mean(calls, |c, s| s[0].seconds() - c.report.times.total()),
    );
    m.set(
        "legal.legalize_s",
        traced_mean(calls, |_, s| phase_seconds(s, "legalize")),
    );
    m.set(
        "legal.detailed_s",
        traced_mean(calls, |_, s| phase_seconds(s, "detailed")),
    );
    m.set(
        "legal.calls",
        traced_mean(calls, |_, s| count(s, "legalize") as f64),
    );
    m.set(
        "legal.mean_displacement",
        traced_mean(calls, |c, _| {
            c.report.legal.total_displacement / c.report.legal.placed.max(1) as f64
        }),
    );
    m.set(
        "legal.failed_cells",
        traced_mean(calls, |c, _| c.report.legal.failed as f64),
    );
    m.set(
        "legal.detailed_accepted",
        traced_mean(calls, |c, _| {
            let d = &c.report.detailed;
            (d.moves + d.swaps + d.reorders) as f64
        }),
    );
    let all = |f: fn(&Call) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    m.set("legal.check_s", all(|c| c.check_s));
    m.set("eval.metrics_s", all(|c| c.eval_s));
    m.set("trace.spans", traced_mean(calls, |_, s| s.len() as f64));

    // Overhead: traced minus untraced wall of the repeated design.
    let d = repeat_design(measured.firsts.len().max(1));
    let traced = calls
        .iter()
        .find(|c| c.design == d && c.spans.is_some())
        .map(|c| c.wall);
    match (traced, median(&untraced_walls(calls, d))) {
        (Some(t), Some(u)) => m.set("trace.overhead_s", t - u),
        _ => m.na("trace.overhead_s", 0.0, "no untraced repeat"),
    }

    if mode == FlowMode::Route {
        let route_s = traced_mean(calls, |_, s| phase_seconds(s, "route"));
        m.set("route.s", route_s);
        m.set(
            "route.kept_overflow",
            traced_mean(calls, |c, _| {
                c.report.route.as_ref().map_or(0.0, |r| r.overflow as f64)
            }),
        );
        m.set(
            "route.calls",
            traced_mean(calls, |c, _| c.report.route_trace.len() as f64),
        );
        m.set(
            "route.rrr_iterations",
            traced_mean(calls, |c, _| {
                c.report
                    .route_trace
                    .iter()
                    .map(|r| r.iterations as f64)
                    .sum()
            }),
        );
        m.set(
            "route.gcells_per_s",
            traced_mean(calls, |c, s| {
                let gcells: f64 = c
                    .report
                    .route_trace
                    .iter()
                    .map(|r| (r.grid.0 * r.grid.1) as f64)
                    .sum();
                gcells / phase_seconds(s, "route").max(1e-12)
            }),
        );
        m.set(
            "route.rounds_run",
            traced_mean(calls, |c, _| c.report.route_rounds as f64),
        );
        m.set(
            "route.rounds_kept_ratio",
            traced_mean(calls, |c, _| kept_ratio(&c.report.route_trace)),
        );
    } else {
        let why = "HPWL flow: no routing";
        for name in [
            "route.s",
            "route.kept_overflow",
            "route.calls",
            "route.rrr_iterations",
            "route.gcells_per_s",
            "route.rounds_run",
            "route.rounds_kept_ratio",
        ] {
            m.na(name, 0.0, why);
        }
    }
}

/// Useful share of the feedback rounds: rounds whose routed result
/// improved on the best so far, over rounds run. A run that stops at
/// round 0 (zero overflow or nothing to inflate) attempted nothing and
/// counts as 1.
pub fn kept_ratio(trace: &[sdp_route::RouteReport]) -> f64 {
    let Some((first, rounds)) = trace.split_first() else {
        return 0.0;
    };
    if rounds.is_empty() {
        return 1.0;
    }
    let mut best = (first.overflow, first.wirelength);
    let mut kept = 0;
    for r in rounds {
        if (r.overflow, r.wirelength) < best {
            best = (r.overflow, r.wirelength);
            kept += 1;
        }
    }
    kept as f64 / rounds.len() as f64
}

/// Median milliseconds of `REPLAYS` calls of `f`.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).expect("REPLAYS > 0")
}

/// Replays the public kernels once more at `out`'s final placement, for
/// per-eval costs the flow's own timers do not give.
fn replay(case: &BookshelfCase, out: &FlowOutput, cfg: &FlowConfig, m: &mut Metrics) {
    let netlist = &case.netlist;
    let design = &case.design;
    let pos = out.placement.positions();
    let exec = Executor::new(cfg.gp.threads);
    let res = DensityModel::default_resolution(netlist.num_movable());
    let region = design.region();
    // One bin width: the smoothing the GP anneals towards.
    let gamma = (region.width() / res as f64).max(1.0);
    let mut grad = vec![Point::ORIGIN; pos.len()];

    let wl_ms = time_ms(|| {
        grad.fill(Point::ORIGIN);
        eval_wirelength_with(cfg.gp.model, netlist, pos, gamma, &mut grad, &exec)
    });
    let mut density = DensityModel::new(netlist, region, pos, cfg.gp.target_density, res, res);
    let density_ms = time_ms(|| {
        grad.fill(Point::ORIGIN);
        density.eval_with(netlist, pos, &mut grad, &exec)
    });
    let max_row_width = design
        .rows()
        .iter()
        .map(|r| r.x2 - r.x1)
        .fold(f64::INFINITY, f64::min);
    let mut align = AlignTerm::new(
        out.groups.clone(),
        AlignConfig {
            row_height: design.row_height(),
            ..cfg.align
        },
    );
    align.restrict_axes(netlist, max_row_width);
    align.begin_outer(0, 0.0, pos);
    let align_ms = time_ms(|| {
        grad.fill(Point::ORIGIN);
        align.eval(netlist, pos, &mut grad)
    });
    m.set("gp.wl_grad_ms", wl_ms);
    m.set("gp.density_ms", density_ms);
    m.set("core.align_ms", align_ms);
    let gp_s = m.get("gp.s").unwrap_or(0.0);
    let evals = m.get("gp.evals").unwrap_or(0.0);
    m.set(
        "gp.kernel_share_est",
        evals * (wl_ms + density_ms + align_ms) / (1e3 * gp_s).max(1e-12),
    );

    if cfg.gp.cluster_threshold > 0 && netlist.num_movable() > cfg.gp.cluster_threshold {
        let t0 = Instant::now();
        black_box(cluster_netlist(netlist, 0.25));
        m.set("gp.cluster_s", t0.elapsed().as_secs_f64());
    } else {
        m.na(
            "gp.cluster_s",
            0.0,
            "design below GP's clustering threshold",
        );
    }

    if cfg.mode == FlowMode::Route {
        let res2 = 2 * res;
        m.set(
            "route.rudy_ms",
            time_ms(|| rudy_map_exec(netlist, &out.placement, design, res2, res2, &exec)),
        );
        let (grid, demand) = rudy_map_exec(netlist, &out.placement, design, res2, res2, &exec);
        let inflate = InflateConfig {
            hot_factor: 1.5,
            budget: 0.25,
            ..InflateConfig::default()
        };
        m.set(
            "route.inflate_ms",
            time_ms(|| {
                let mut factors = vec![1.0f64; netlist.num_cells()];
                inflate_cells(
                    netlist,
                    &out.placement,
                    &grid,
                    &demand,
                    &inflate,
                    &mut factors,
                    &exec,
                )
            }),
        );
    } else {
        m.na("route.rudy_ms", 0.0, "HPWL flow: no RUDY feedback");
        m.na("route.inflate_ms", 0.0, "HPWL flow: no cell inflation");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_geom::Point;

    fn tiny_case(seed: u64) -> BookshelfCase {
        let g = generate(&GenConfig::named("dp_tiny", seed).expect("preset"));
        BookshelfCase {
            netlist: g.netlist,
            design: g.design,
            placement: g.placement,
        }
    }

    #[test]
    fn a_clean_run_passes_every_check() {
        let case = tiny_case(3);
        let mut outcome = Outcome::default();
        let measured = measure(&[case], &FlowConfig::fast(), 0.0, false, &mut outcome);
        assert_eq!(measured.calls.len(), 2, "one call plus the repeat");
        assert_eq!(
            (outcome.attempted, outcome.failed),
            (2, 0),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn injected_faults_are_counted() {
        let case = tiny_case(4);
        let out = StructurePlacer::new(FlowConfig::fast()).place(
            &case.netlist,
            &case.design,
            &case.placement,
        );
        let total = out.report.hpwl.total;
        let first = Fingerprint {
            hpwl_bits: total.to_bits(),
            hash: placement_hash(&out.placement),
        };
        assert!(check_output(&out, 0, total, Some(first), FlowMode::Hpwl).is_empty());

        // A legality violation: stack two movable cells on one spot.
        let mut broken = out.clone();
        let mut movable = case.netlist.movable_ids();
        let (a, b) = (movable.next().expect("cell"), movable.next().expect("cell"));
        broken.placement.set(b, broken.placement.get(a));
        let violations = check_legal(&case.netlist, &case.design, &broken.placement).len();
        assert!(violations > 0);
        let errors = check_output(&broken, violations, total, None, FlowMode::Hpwl);
        assert_eq!(errors.len(), 1, "{errors:?}");

        // A repeat that moved one cell by a hair.
        let mut drifted = out.clone();
        let p = drifted.placement.get(a);
        drifted.placement.set(a, p + Point::new(1e-9, 0.0));
        let errors = check_output(&drifted, 0, total, Some(first), FlowMode::Hpwl);
        assert_eq!(errors.len(), 1, "{errors:?}");

        // A flow whose report disagrees with the recomputed HPWL.
        assert_eq!(
            check_output(&out, 0, total + 1.0, None, FlowMode::Hpwl).len(),
            1
        );

        // Route mode with no routed result.
        assert_eq!(check_output(&out, 0, total, None, FlowMode::Route).len(), 1);
    }

    #[test]
    fn design_seeds_shuffle_the_reference_designs_by_seed() {
        let reference: Vec<u64> = (FIRST_DESIGN_SEED..FIRST_DESIGN_SEED + 5).collect();
        let orders: Vec<Vec<u64>> = (0..20).map(|s| design_seeds(s, 5)).collect();
        for (s, order) in orders.iter().enumerate() {
            assert_eq!(
                order,
                &design_seeds(s as u64, 5),
                "deterministic in the seed"
            );
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted, reference,
                "seed {s}: a permutation of the reference designs"
            );
        }
        let distinct: std::collections::BTreeSet<&Vec<u64>> = orders.iter().collect();
        assert!(
            distinct.len() > 10,
            "seeds give different orders: {distinct:?}"
        );
        assert_eq!(design_seeds(7, 1), [FIRST_DESIGN_SEED]);
    }

    #[test]
    fn kept_ratio_counts_improving_rounds() {
        let r = |overflow, wirelength| sdp_route::RouteReport {
            overflow,
            wirelength,
            overflowed_edges: 0,
            max_utilization: 0.0,
            iterations: 0,
            segments: 0,
            grid: (1, 1),
        };
        assert_eq!(kept_ratio(&[]), 0.0);
        assert_eq!(kept_ratio(&[r(5, 1.0)]), 1.0);
        assert_eq!(
            kept_ratio(&[r(5, 1.0), r(4, 1.0), r(3, 2.0), r(3, 2.5)]),
            2.0 / 3.0
        );
    }
}
