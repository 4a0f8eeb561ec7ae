//! The end-to-end structure-aware placement flow:
//! extract → align-augmented global placement → structure-first
//! legalization → detailed placement.

use crate::align::{AlignConfig, AlignTerm};
use sdp_eval::{alignment_report, hpwl_breakdown, AlignmentReport, HpwlBreakdown};
use sdp_extract::{extract_observed, ExtractConfig};
use sdp_geom::{GroupAxis, Point};
use sdp_gp::{Executor, ExtraTerm, GlobalPlacer, GpConfig, PlaceStats};
use sdp_legal::{
    check_legal, detailed_place, legalize, legalize_abacus, DetailedOptions, DetailedStats,
    LegalStats, LegalizeOptions, RowSpace,
};
use sdp_netlist::{CellId, DatapathGroup, Design, Netlist, Placement};
use sdp_progress::{Cancelled, Observer, Phase};
use sdp_route::{
    inflate_cells, route_observed, rudy_map_exec, InflateConfig, RouteConfig, RouteReport,
};
use std::collections::HashSet;

/// Maximum feedback rounds of the route-mode loop. Convergence — routed
/// overflow stops improving, nothing left to inflate, or zero overflow —
/// usually stops it earlier.
const ROUTE_MAX_ROUNDS: usize = 5;

/// Which legalization algorithm the flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LegalizerKind {
    /// Greedy left-to-right sweep (fast, robust).
    #[default]
    Tetris,
    /// Abacus row clustering (displacement-optimal per row, slower).
    Abacus,
}

/// What the flow optimizes and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowMode {
    /// Place only and report HPWL-proxy metrics (the default).
    #[default]
    Hpwl,
    /// Routability-driven: after placement, run the congestion-feedback
    /// inflation loop against *routed* overflow and carry a
    /// [`RouteReport`] in the flow report.
    Route,
}

impl FlowMode {
    /// Stable lowercase name (used in specs and canonical hashing).
    pub fn name(self) -> &'static str {
        match self {
            FlowMode::Hpwl => "hpwl",
            FlowMode::Route => "route",
        }
    }
}

/// Configuration of the whole flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Global-placement engine settings.
    pub gp: GpConfig,
    /// Extraction settings.
    pub extract: ExtractConfig,
    /// Alignment-objective settings.
    pub align: AlignConfig,
    /// Master switch: `false` runs the oblivious baseline (no extraction,
    /// no alignment, plain legalization) through the same code path.
    pub structure_aware: bool,
    /// Snap groups onto aligned rows and keep them rigid afterwards
    /// (`true`, the maximal-regularity mode: perfectly aligned arrays at a
    /// total-wirelength premium), or let the ordinary legalizer/detailed
    /// placer handle group cells like any other cell, preserving alignment
    /// only as well as the global placement baked it in (`false`, the
    /// default: best wirelength trade-off). The F3 ablation sweeps both.
    pub rigid_groups: bool,
    /// Constrain snapped group cells to their row during detailed
    /// placement (they may slide in x, keeping the alignment intact).
    pub lock_groups_in_detailed: bool,
    /// Weight multiplier applied (during global placement only) to nets
    /// with at least two pins inside one datapath group — the placer
    /// focuses on exactly the nets structure-aware placement targets.
    /// Evaluation always uses the original weights.
    pub dp_net_weight: f64,
    /// Extra alignment-refinement outer iterations run after the main
    /// global placement converges: density pressure is already satisfied,
    /// so these iterations let the (fully ramped) alignment term tighten
    /// the arrays with the wirelength force as the only opposition.
    pub refine_outers: usize,
    /// Detailed-placement passes (0 disables the phase).
    pub detailed_passes: usize,
    /// Routability-driven rounds: after global placement, cells sitting in
    /// RUDY hotspots are inflated and the placement is re-spread (the
    /// NTUplace4-style cell-inflation loop). `0` disables the mechanism.
    pub routability_rounds: usize,
    /// Legalization algorithm.
    pub legalizer: LegalizerKind,
    /// What the flow optimizes and reports ([`FlowMode`]). `Route` runs
    /// the routed-overflow feedback loop after placement: route → inflate
    /// cells under RUDY hotspots → re-spread → re-legalize, keeping the
    /// best routed result (DESIGN.md §9).
    pub mode: FlowMode,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            gp: GpConfig::default(),
            extract: ExtractConfig::default(),
            align: AlignConfig {
                // The soft default keeps the alignment force mild: the
                // datapath-net weighting does the heavy lifting and the
                // term mostly steers orientation; `rigid()` restores the
                // full-strength force.
                beta: 0.1,
                ..AlignConfig::default()
            },
            structure_aware: true,
            rigid_groups: false,
            lock_groups_in_detailed: false,
            dp_net_weight: 2.0,
            refine_outers: 8,
            detailed_passes: 2,
            routability_rounds: 0,
            legalizer: LegalizerKind::default(),
            mode: FlowMode::default(),
        }
    }
}

impl FlowConfig {
    /// Reduced-effort profile for tests and examples.
    pub fn fast() -> Self {
        FlowConfig {
            gp: GpConfig::fast(),
            detailed_passes: 1,
            ..FlowConfig::default()
        }
    }

    /// The structure-oblivious baseline at the same effort level.
    pub fn baseline(mut self) -> Self {
        self.structure_aware = false;
        self
    }

    /// The maximal-regularity variant: groups snap to rigid arrays and
    /// stay locked through detailed placement.
    pub fn rigid(mut self) -> Self {
        self.rigid_groups = true;
        self.lock_groups_in_detailed = true;
        self.align.beta = 1.0;
        self
    }

    /// Sets the kernel thread count ([`sdp_gp::GpConfig::threads`]):
    /// `0` uses all available cores, `1` the sequential legacy path.
    /// Results are bitwise identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.gp.threads = threads;
        self
    }
}

/// Wall-clock seconds of each phase (table T5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// Datapath extraction.
    pub extract: f64,
    /// Global placement.
    pub global: f64,
    /// Legalization (including group snapping).
    pub legalize: f64,
    /// Detailed placement.
    pub detailed: f64,
    /// Global routing (route-mode flows only; zero otherwise).
    pub route: f64,
}

impl PhaseTimes {
    /// Total flow time.
    pub fn total(&self) -> f64 {
        self.extract + self.global + self.legalize + self.detailed + self.route
    }
}

/// Everything the flow measures.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Final HPWL, split by datapath membership.
    pub hpwl: HpwlBreakdown,
    /// Geometric regularity of the placed groups.
    pub alignment: AlignmentReport,
    /// Global-placement statistics and convergence trace.
    pub gp: PlaceStats,
    /// Legalization statistics.
    pub legal: LegalStats,
    /// Detailed-placement statistics.
    pub detailed: DetailedStats,
    /// Number of groups extracted (0 for the baseline).
    pub num_groups: usize,
    /// Number of cells in extracted groups.
    pub num_group_cells: usize,
    /// Group cells that found no slot on their aligned row and fell back
    /// to ordinary legalization.
    pub group_rows_fallback: usize,
    /// Routed metrics of the final placement (`Some` in route mode only).
    pub route: Option<RouteReport>,
    /// Feedback rounds the route-mode loop ran (0 in HPWL mode, and in
    /// route mode when the initial placement already routes best).
    pub route_rounds: usize,
    /// Routed result of every round the loop evaluated (route mode
    /// only). Index 0 is the one-shot route of the plain HPWL-flow
    /// placement, so `route_trace.first()` vs `route` is exactly the
    /// feedback loop's overflow/wirelength win.
    pub route_trace: Vec<RouteReport>,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
}

/// The flow's result: final placement plus everything measured on the way.
#[derive(Debug, Clone)]
pub struct FlowOutput {
    /// The final legal placement.
    pub placement: Placement,
    /// The groups used (extraction output with final orientations);
    /// empty in baseline mode.
    pub groups: Vec<DatapathGroup>,
    /// Metrics and statistics.
    pub report: FlowReport,
    /// Violations found by the independent legality checker (0 expected).
    pub legal_violations: usize,
}

/// The paper's placer: extraction + alignment + structure-first
/// legalization, or the plain baseline with `structure_aware = false`.
#[derive(Debug, Clone)]
pub struct StructurePlacer {
    config: FlowConfig,
}

impl StructurePlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        StructurePlacer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the full flow. `initial` supplies fixed-cell (pad) positions
    /// and any warm-start for movable cells.
    pub fn place(&self, netlist: &Netlist, design: &Design, initial: &Placement) -> FlowOutput {
        match self.place_with(netlist, design, initial, &Observer::noop()) {
            Ok(out) => out,
            Err(Cancelled) => unreachable!("the noop observer never cancels"),
        }
    }

    /// [`StructurePlacer::place`] with progress reporting and cooperative
    /// cancellation: `obs` is polled at every phase boundary and once per
    /// global-placement outer iteration, and supplies the clock behind
    /// every timing field in the report — `sdp-serve` hands each job an
    /// observer wired to its cancel token, and replay harnesses inject a
    /// manual clock for bitwise-stable reports. On `Err(Cancelled)` no
    /// partial placement escapes.
    pub fn place_with(
        &self,
        netlist: &Netlist,
        design: &Design,
        initial: &Placement,
        obs: &Observer,
    ) -> Result<FlowOutput, Cancelled> {
        let mut placement = initial.clone();
        let mut times = PhaseTimes::default();

        // Phase 1: extraction. Groups taller than a fraction of the core
        // are folded into stacked chunks — a 240-bit multiplier array
        // cannot stand as 240 consecutive rows in a 100-row core.
        let t0 = obs.now();
        // Narrowest core row: the width every physical group row must fit
        // into, wherever its snap window lands.
        let max_row_width = design
            .rows()
            .iter()
            .map(|r| r.x2 - r.x1)
            .fold(f64::INFINITY, f64::min);
        let groups = if self.config.structure_aware {
            let raw = extract_observed(netlist, &self.config.extract, obs)?.groups;
            let max_rows = ((design.region().height() / design.row_height() / 3.0) as usize)
                .max(self.config.extract.min_bits);
            fold_groups_to_width(fold_groups(raw, max_rows), netlist, max_row_width)
        } else {
            Vec::new()
        };
        obs.report(Phase::Extract, 1.0);
        times.extract = obs.seconds_since(t0);

        // Phase 2: global placement (+ alignment term). The placer sees a
        // netlist whose intra-group nets are up-weighted; every metric is
        // computed on the original netlist.
        let t0 = obs.now();
        let gp_netlist = if self.config.structure_aware && self.config.dp_net_weight != 1.0 {
            boost_datapath_nets(netlist, &groups, self.config.dp_net_weight)
        } else {
            None
        };
        let gp_netlist: &Netlist = gp_netlist.as_ref().unwrap_or(netlist);
        let placer = GlobalPlacer::new(self.config.gp);
        let mut align_term = AlignTerm::new(
            groups,
            AlignConfig {
                row_height: design.row_height(),
                ..self.config.align
            },
        );
        align_term.restrict_axes(netlist, max_row_width);
        let gp_stats = if self.config.structure_aware {
            let mut stats = placer.place_inflated_observed(
                gp_netlist,
                design,
                &mut placement,
                Some(&mut align_term as &mut dyn ExtraTerm),
                None,
                Some(netlist),
                obs,
            )?;
            if self.config.refine_outers > 0 {
                // Alignment refinement: never stop early, no fresh
                // clustering, moderate inner budget.
                let refine = GlobalPlacer::new(GpConfig {
                    max_outer: self.config.refine_outers,
                    target_overflow: 0.0,
                    inner_iters: self.config.gp.inner_iters.min(40),
                    cluster_threshold: 0,
                    ..self.config.gp
                });
                let rstats = refine.place_inflated_observed(
                    gp_netlist,
                    design,
                    &mut placement,
                    Some(&mut align_term as &mut dyn ExtraTerm),
                    None,
                    Some(netlist),
                    obs,
                )?;
                stats
                    .trace
                    .extend(rstats.trace.iter().map(|t| sdp_gp::IterationTrace {
                        outer: t.outer + stats.outer_iters,
                        ..*t
                    }));
                stats.outer_iters += rstats.outer_iters;
                stats.final_hpwl = rstats.final_hpwl;
                stats.final_overflow = rstats.final_overflow;
                stats.seconds += rstats.seconds;
                stats.evals += rstats.evals;
            }
            stats
        } else {
            // Iteration-fair baseline: the oblivious flow gets the same
            // extra refinement outers (plain wirelength/density only).
            let mut stats = placer.place_inflated_observed(
                netlist,
                design,
                &mut placement,
                None,
                None,
                None,
                obs,
            )?;
            if self.config.refine_outers > 0 {
                let refine = GlobalPlacer::new(GpConfig {
                    max_outer: self.config.refine_outers,
                    target_overflow: 0.0,
                    inner_iters: self.config.gp.inner_iters.min(40),
                    cluster_threshold: 0,
                    ..self.config.gp
                });
                let rstats = refine.place_inflated_observed(
                    netlist,
                    design,
                    &mut placement,
                    None,
                    None,
                    None,
                    obs,
                )?;
                stats
                    .trace
                    .extend(rstats.trace.iter().map(|t| sdp_gp::IterationTrace {
                        outer: t.outer + stats.outer_iters,
                        ..*t
                    }));
                stats.outer_iters += rstats.outer_iters;
                stats.final_hpwl = rstats.final_hpwl;
                stats.final_overflow = rstats.final_overflow;
                stats.seconds += rstats.seconds;
                stats.evals += rstats.evals;
            }
            stats
        };
        let mut gp_stats = gp_stats;
        if self.config.routability_rounds > 0 {
            gp_stats =
                self.routability_spread(gp_netlist, design, &mut placement, gp_stats, obs)?;
        }
        let groups = align_term.groups().to_vec();
        times.global = obs.seconds_since(t0);

        // Phases 3–4: legalization + detailed placement. Route mode keeps
        // the pre-legal global placement around — the feedback loop
        // re-spreads it with inflated cells and re-runs these phases.
        let global = (self.config.mode == FlowMode::Route).then(|| placement.clone());
        let (mut rows_fallback, mut legal_stats, mut detailed_stats) =
            self.finish_placement(netlist, design, &mut placement, &groups, &mut times, obs)?;

        // Phase 5 (route mode only): the routed-overflow feedback loop
        // (DESIGN.md §9). Route the legal placement, inflate cells under
        // the RUDY hotspots of the *global* placement, re-spread,
        // re-legalize, and keep the best routed result; converge when
        // routed overflow stops improving.
        let mut route_report = None;
        let mut route_rounds = 0;
        let mut route_trace = Vec::new();
        if let Some(mut working) = global {
            let route_cfg = RouteConfig::default();
            let t0 = obs.now();
            let mut best = route_observed(netlist, &placement, design, &route_cfg, obs)?;
            times.route += obs.seconds_since(t0);
            route_trace.push(best.clone());
            let exec = Executor::new(self.config.gp.threads);
            let res = 2 * sdp_gp::DensityModel::default_resolution(netlist.num_movable());
            let mut factors = vec![1.0f64; netlist.num_cells()];
            // More aggressive than the GP-overflow spreading defaults:
            // the loop is judged by *routed* overflow and keeps only
            // improving rounds, so overshooting a round is recoverable
            // while under-inflating stalls the trajectory.
            let inflate_cfg = InflateConfig {
                hot_factor: 1.5,
                budget: 0.25,
                ..InflateConfig::default()
            };
            let spreader = GlobalPlacer::new(GpConfig {
                max_outer: 6,
                inner_iters: self.config.gp.inner_iters.min(40),
                cluster_threshold: 0,
                ..self.config.gp
            });
            for round in 1..=ROUTE_MAX_ROUNDS {
                if best.overflow == 0 {
                    break;
                }
                obs.checkpoint()?;
                let (grid, demand) = rudy_map_exec(netlist, &working, design, res, res, &exec);
                let inf = inflate_cells(
                    netlist,
                    &working,
                    &grid,
                    &demand,
                    &inflate_cfg,
                    &mut factors,
                    &exec,
                );
                if inf.grown == 0 {
                    break;
                }
                let r = spreader.place_inflated_observed(
                    gp_netlist,
                    design,
                    &mut working,
                    None,
                    Some(&factors),
                    Some(netlist),
                    obs,
                )?;
                gp_stats.outer_iters += r.outer_iters;
                gp_stats.seconds += r.seconds;
                gp_stats.evals += r.evals;
                let mut trial = working.clone();
                let (fb, legal, det) =
                    self.finish_placement(netlist, design, &mut trial, &groups, &mut times, obs)?;
                let t0 = obs.now();
                let rep = route_observed(netlist, &trial, design, &route_cfg, obs)?;
                times.route += obs.seconds_since(t0);
                route_trace.push(rep.clone());
                route_rounds = round;
                // Overflow first, wirelength breaks ties; the loop stops
                // at the first round that fails to improve.
                if (rep.overflow, rep.wirelength) < (best.overflow, best.wirelength) {
                    best = rep;
                    placement = trial;
                    rows_fallback = fb;
                    legal_stats = legal;
                    detailed_stats = det;
                } else {
                    break;
                }
            }
            gp_stats.final_hpwl = sdp_gp::hpwl(netlist, placement.positions());
            route_report = Some(best);
        }

        // Metrics.
        let hpwl = hpwl_breakdown(netlist, &placement, &groups);
        let alignment = alignment_report(&placement, &groups, design.row_height());
        let legal_violations = check_legal(netlist, design, &placement).len();

        Ok(FlowOutput {
            legal_violations,
            report: FlowReport {
                hpwl,
                alignment,
                gp: gp_stats,
                legal: legal_stats,
                detailed: detailed_stats,
                num_groups: groups.len(),
                num_group_cells: groups.iter().map(|g| g.num_cells()).sum(),
                group_rows_fallback: rows_fallback,
                route: route_report,
                route_rounds,
                route_trace,
                times,
            },
            groups,
            placement,
        })
    }

    /// Phases 3–4: structure-first legalization and detailed placement,
    /// in place. Phase wall-clock accumulates into `times` (route mode
    /// runs these phases once per feedback round).
    fn finish_placement(
        &self,
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
        groups: &[DatapathGroup],
        times: &mut PhaseTimes,
        obs: &Observer,
    ) -> Result<(usize, LegalStats, DetailedStats), Cancelled> {
        // Phase 3: structure-first legalization.
        obs.checkpoint()?;
        let t0 = obs.now();
        let (locked, rows_fallback) = if self.config.structure_aware && self.config.rigid_groups {
            snap_groups(netlist, design, placement, groups)
        } else {
            (HashSet::new(), 0)
        };
        let legal_options = LegalizeOptions {
            locked: locked.clone(),
            ..LegalizeOptions::default()
        };
        let legal_stats = match self.config.legalizer {
            LegalizerKind::Tetris => legalize(netlist, design, placement, &legal_options),
            LegalizerKind::Abacus => legalize_abacus(netlist, design, placement, &legal_options),
        };
        obs.report(Phase::Legalize, 1.0);
        times.legalize += obs.seconds_since(t0);

        // Phase 4: detailed placement.
        obs.checkpoint()?;
        let t0 = obs.now();
        let detailed_stats = detailed_place(
            netlist,
            design,
            placement,
            &DetailedOptions {
                passes: self.config.detailed_passes,
                // Snapped group cells may still slide within their row —
                // that preserves the alignment while recovering the x
                // freedom the snap gave up.
                row_locked: if self.config.lock_groups_in_detailed {
                    locked
                } else {
                    HashSet::new()
                },
                ..DetailedOptions::default()
            },
        );
        obs.report(Phase::Detailed, 1.0);
        times.detailed += obs.seconds_since(t0);
        Ok((rows_fallback, legal_stats, detailed_stats))
    }
}

/// Folds groups with more than `max_rows` bit rows into several stacked
/// chunks of at most `max_rows` bits each. Chunk k of group `g` is named
/// `g.name()/k`; chunks inherit the group's axis and are aligned
/// independently (the bit order inside each chunk is preserved, so
/// carry/bus nets between neighbouring chunks stay between neighbouring
/// arrays).
fn fold_groups(groups: Vec<DatapathGroup>, max_rows: usize) -> Vec<DatapathGroup> {
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        if g.bits() <= max_rows {
            out.push(g);
            continue;
        }
        let chunks = g.bits().div_ceil(max_rows);
        // Even chunk sizes (the last chunk must not degenerate).
        let per = g.bits().div_ceil(chunks);
        out.extend(split_bits(&g, per));
    }
    out
}

/// Folds `BitsHorizontal` groups whose *stage rows* are wider than the
/// narrowest core row. Such a group lays one cell per bit side by side
/// on each row, so a wide bus can demand a row the core simply does not
/// have — no snap window exists and alignment silently degrades.
/// Splitting the bits into the fewest even chunks whose stage rows all
/// fit restores a realizable shape (`BitsVertical` groups are
/// unaffected: their bit-row width is fixed by the stage count, which
/// folding cannot reduce).
fn fold_groups_to_width(
    groups: Vec<DatapathGroup>,
    netlist: &Netlist,
    max_row_width: f64,
) -> Vec<DatapathGroup> {
    let stage_rows_fit = |g: &DatapathGroup, per: usize| -> bool {
        (0..g.bits()).step_by(per).all(|start| {
            let end = (start + per).min(g.bits());
            (0..g.stages()).all(|s| {
                let w: f64 = (start..end)
                    .filter_map(|b| g.cell_at(b, s))
                    .map(|c| netlist.cell_width(c))
                    .sum();
                w <= max_row_width + 1e-9
            })
        })
    };
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        if g.axis != GroupAxis::BitsHorizontal || !max_row_width.is_finite() {
            out.push(g);
            continue;
        }
        // Fewest even chunks whose every stage row fits.
        let mut chunks = 1;
        let per = loop {
            let per = g.bits().div_ceil(chunks);
            if per == 1 || stage_rows_fit(&g, per) {
                break per;
            }
            chunks += 1;
        };
        if g.bits() <= per {
            out.push(g);
        } else {
            out.extend(split_bits(&g, per));
        }
    }
    out
}

/// Splits a group's bits into consecutive chunks of at most `per` bits.
/// Chunk k is named `g.name()/k` and inherits the group's axis.
fn split_bits(g: &DatapathGroup, per: usize) -> Vec<DatapathGroup> {
    (0..g.bits())
        .step_by(per)
        .enumerate()
        .map(|(k, start)| {
            let end = (start + per).min(g.bits());
            let matrix: Vec<Vec<Option<sdp_netlist::CellId>>> = (start..end)
                .map(|b| (0..g.stages()).map(|s| g.cell_at(b, s)).collect())
                .collect();
            let mut chunk = DatapathGroup::new(format!("{}/{k}", g.name()), matrix);
            chunk.axis = g.axis;
            chunk
        })
        .collect()
}

impl StructurePlacer {
    /// The cell-inflation loop: estimate routing demand with RUDY, inflate
    /// cells in hotspots (demand above the mean), and re-spread with a
    /// short placement pass; repeat up to `routability_rounds` times or
    /// until no hotspot remains.
    fn routability_spread(
        &self,
        netlist: &Netlist,
        design: &Design,
        placement: &mut Placement,
        mut stats: PlaceStats,
        obs: &Observer,
    ) -> Result<PlaceStats, Cancelled> {
        let res = 2 * sdp_gp::DensityModel::default_resolution(netlist.num_movable());
        // A round must improve *routed* congestion to be kept — and the
        // judgement is made on a snapshot carried through legalization AND
        // detailed placement, because a spread that looks better at the
        // global-placement stage can reverse downstream (observed on
        // dp_large). RUDY peak was tried first and is unreliable.
        // Wirelength breaks ties. The route is observed, so a cancel
        // lands inside scoring too.
        let score = |pl: &Placement| -> Result<(u64, f64), Cancelled> {
            let mut snap = pl.clone();
            legalize(netlist, design, &mut snap, &LegalizeOptions::default());
            detailed_place(
                netlist,
                design,
                &mut snap,
                &DetailedOptions {
                    passes: 1,
                    ..DetailedOptions::default()
                },
            );
            let r = sdp_route::route_observed(
                netlist,
                &snap,
                design,
                &sdp_route::RouteConfig::default(),
                obs,
            )?;
            Ok((r.overflow, r.wirelength))
        };
        let mut best = placement.clone();
        let mut best_score = score(placement)?;
        let mut inflation = vec![1.0f64; netlist.num_cells()];
        let exec = Executor::new(self.config.gp.threads);
        for _round in 0..self.config.routability_rounds {
            obs.checkpoint()?;
            let (grid, demand) = rudy_map_exec(netlist, placement, design, res, res, &exec);
            let inf = inflate_cells(
                netlist,
                placement,
                &grid,
                &demand,
                &InflateConfig::default(),
                &mut inflation,
                &exec,
            );
            if inf.grown == 0 {
                break;
            }
            let spreader = GlobalPlacer::new(GpConfig {
                max_outer: 6,
                target_overflow: self.config.gp.target_overflow,
                inner_iters: self.config.gp.inner_iters.min(40),
                cluster_threshold: 0,
                ..self.config.gp
            });
            let r = spreader.place_inflated_observed(
                netlist,
                design,
                placement,
                None,
                Some(&inflation),
                None,
                obs,
            )?;
            stats.outer_iters += r.outer_iters;
            stats.seconds += r.seconds;
            stats.evals += r.evals;
            let s = score(placement)?;
            if s < best_score {
                best_score = s;
                best = placement.clone();
            }
        }
        *placement = best;
        stats.final_hpwl = sdp_gp::hpwl(netlist, placement.positions());
        Ok(stats)
    }
}

/// Clones the netlist with intra-group *bit-level* net weights multiplied
/// by `factor`: nets with at least two pins on group cells and bounded
/// fanout. High-fanout control nets (write enables, mux selects) touch
/// many group cells but are not bus structure — boosting them would trade
/// away exactly the wrong wirelength. Returns `None` when no net
/// qualifies.
fn boost_datapath_nets(
    netlist: &Netlist,
    groups: &[DatapathGroup],
    factor: f64,
) -> Option<Netlist> {
    const MAX_BOOST_DEGREE: usize = 6;
    let dp_cells: HashSet<CellId> = groups.iter().flat_map(|g| g.cell_set()).collect();
    if dp_cells.is_empty() {
        return None;
    }
    let mut boosted = netlist.clone();
    let mut any = false;
    for n in netlist.net_ids() {
        if netlist.net_degree(n) > MAX_BOOST_DEGREE {
            continue;
        }
        let in_group = netlist
            .net(n)
            .pins
            .iter()
            .filter(|&&p| dp_cells.contains(&netlist.pin(p).cell))
            .count();
        if in_group >= 2 {
            boosted.set_net_weight(n, netlist.net(n).weight * factor);
            any = true;
        }
    }
    any.then_some(boosted)
}

/// Snaps every group onto aligned rows: bit `b` of a group goes to row
/// `r0 + b`, where `r0` is chosen as close as possible to the fitted row
/// line the alignment objective shaped — so the whole array lands on
/// *consecutive* rows. Earlier (larger) groups can exhaust the rows under
/// a group's fitted position, so the base row is searched outward from
/// the fitted one and the nearest window where **every** cell of the
/// group fits intact wins; committing to a full window keeps each bit
/// row on a single y instead of scattering its overflow to the
/// legalizer. Each cell takes the legal slot nearest its
/// global-placement x on its assigned row. Only when no window can hold
/// the whole group are the unplaceable cells left for Tetris (counted as
/// fallback). Returns the snapped (locked) cells and the fallback count.
fn snap_groups(
    netlist: &Netlist,
    design: &Design,
    placement: &mut Placement,
    groups: &[DatapathGroup],
) -> (HashSet<CellId>, usize) {
    let rows = design.rows();
    let nrows = rows.len();
    let mut spaces: Vec<RowSpace> = rows.iter().map(RowSpace::new).collect();
    // Fixed blockages.
    for c in netlist.cell_ids() {
        if !netlist.cell(c).fixed {
            continue;
        }
        let r = placement.cell_rect(netlist, c);
        for (ri, row) in rows.iter().enumerate() {
            if r.y2() > row.y && r.y1() < row.y + row.height {
                spaces[ri].block(r.x1(), r.width());
            }
        }
    }

    let mut locked = HashSet::new();
    let mut fallback = 0usize;

    // Largest groups first: they are hardest to fit.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| usize::MAX - groups[i].num_cells());

    for &gi in &order {
        // Work on a bits-vertical view: transposed groups snap their
        // stage columns as rows.
        let g = if groups[gi].axis == GroupAxis::BitsHorizontal {
            groups[gi].transposed()
        } else {
            groups[gi].clone()
        };
        // Fitted base row: median of (row mean y − b·row_height).
        let rh = design.row_height();
        let mut offsets: Vec<f64> = (0..g.bits())
            .filter_map(|b| {
                let ys: Vec<f64> = g.bit_row(b).map(|c| placement.get(c).y).collect();
                if ys.is_empty() {
                    None
                } else {
                    Some(ys.iter().sum::<f64>() / ys.len() as f64 - b as f64 * rh)
                }
            })
            .collect();
        if offsets.is_empty() {
            continue;
        }
        offsets.sort_by(|a, b| a.total_cmp(b));
        let alpha = offsets[offsets.len() / 2];
        let max_base = nrows.saturating_sub(g.bits());
        let y0 = rows.first().map_or(0.0, |r| r.y);
        let r0 = (((alpha - y0) / rh).round() as isize).clamp(0, max_base as isize) as usize;

        // Search base rows outward from the fitted one (below before
        // above at equal distance) and commit to the nearest window that
        // holds the whole group.
        let mut snapped = false;
        if g.bits() <= nrows {
            let mut candidates: Vec<usize> = Vec::with_capacity(max_base + 1);
            candidates.push(r0);
            for d in 1..=max_base {
                if r0 >= d {
                    candidates.push(r0 - d);
                }
                if r0 + d <= max_base {
                    candidates.push(r0 + d);
                }
            }
            for base in candidates {
                if let Some((trial, placed)) =
                    try_snap_window(netlist, placement, &g, &spaces, rows, base)
                {
                    for (b, space) in trial.into_iter().enumerate() {
                        spaces[base + b] = space;
                    }
                    for (c, p) in placed {
                        placement.set(c, p);
                        locked.insert(c);
                    }
                    snapped = true;
                    break;
                }
            }
        }

        if !snapped {
            // No window holds the group intact (or it is taller than the
            // core): best-effort placement at the fitted rows, leaving
            // whatever does not fit for Tetris.
            for b in 0..g.bits() {
                let ri = (r0 + b).min(nrows - 1);
                let yc = rows[ri].y + rows[ri].height / 2.0;
                for c in sorted_by_x(placement, g.bit_row(b)) {
                    let w = netlist.cell_width(c);
                    let target_left = placement.get(c).x - w / 2.0;
                    match spaces[ri].place_near(target_left, w) {
                        Some(x) => {
                            placement.set(c, Point::new(x + w / 2.0, yc));
                            locked.insert(c);
                        }
                        None => fallback += 1,
                    }
                }
            }
        }
    }
    (locked, fallback)
}

/// Cells ordered left-to-right by current x so same-row neighbours do
/// not leapfrog when claiming slots.
fn sorted_by_x(placement: &Placement, cells: impl Iterator<Item = CellId>) -> Vec<CellId> {
    let mut ordered: Vec<CellId> = cells.collect();
    ordered.sort_by(|&a, &b| placement.get(a).x.total_cmp(&placement.get(b).x));
    ordered
}

/// The outcome of a successful [`try_snap_window`]: the updated row
/// spaces for the window plus the chosen cell positions.
type SnapWindow = (Vec<RowSpace>, Vec<(CellId, Point)>);

/// Tries to snap the whole (bits-vertical) group into the row window
/// starting at `base`. Succeeds only if *every* cell finds a slot;
/// returns the updated row spaces for the window plus the chosen
/// positions, leaving `spaces` untouched on failure.
fn try_snap_window(
    netlist: &Netlist,
    placement: &Placement,
    g: &DatapathGroup,
    spaces: &[RowSpace],
    rows: &[sdp_netlist::Row],
    base: usize,
) -> Option<SnapWindow> {
    let mut trial: Vec<RowSpace> = (0..g.bits()).map(|b| spaces[base + b].clone()).collect();
    let mut placed = Vec::new();
    for (b, space) in trial.iter_mut().enumerate() {
        let ri = base + b;
        let yc = rows[ri].y + rows[ri].height / 2.0;
        for c in sorted_by_x(placement, g.bit_row(b)) {
            let w = netlist.cell_width(c);
            let target_left = placement.get(c).x - w / 2.0;
            let x = space.place_near(target_left, w)?;
            placed.push((c, Point::new(x + w / 2.0, yc)));
        }
    }
    Some((trial, placed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};

    fn run(name: &str, seed: u64, aware: bool) -> FlowOutput {
        let d = generate(&GenConfig::named(name, seed).unwrap());
        let cfg = if aware {
            FlowConfig::fast()
        } else {
            FlowConfig::fast().baseline()
        };
        StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement)
    }

    fn run_rigid(name: &str, seed: u64) -> FlowOutput {
        let d = generate(&GenConfig::named(name, seed).unwrap());
        StructurePlacer::new(FlowConfig::fast().rigid()).place(&d.netlist, &d.design, &d.placement)
    }

    #[test]
    fn both_flows_produce_legal_placements() {
        for aware in [false, true] {
            let out = run("dp_tiny", 1, aware);
            assert_eq!(
                out.legal_violations, 0,
                "structure_aware={aware} must be legal"
            );
            assert!(out.report.hpwl.total > 0.0);
        }
    }

    #[test]
    fn structure_aware_improves_alignment() {
        let base = run("dp_tiny", 2, false);
        let aware = run_rigid("dp_tiny", 2);
        // Baseline has no groups to measure; measure its geometry against
        // the aware run's groups for a fair comparison.
        let d = generate(&GenConfig::named("dp_tiny", 2).unwrap());
        let base_align =
            sdp_eval::alignment_report(&base.placement, &aware.groups, d.design.row_height());
        assert!(
            aware.report.alignment.aligned_row_fraction > base_align.aligned_row_fraction,
            "aligned fraction: aware {} vs baseline {}",
            aware.report.alignment.aligned_row_fraction,
            base_align.aligned_row_fraction
        );
    }

    #[test]
    fn baseline_mode_extracts_nothing() {
        let out = run("dp_tiny", 3, false);
        assert_eq!(out.report.num_groups, 0);
        assert_eq!(out.report.num_group_cells, 0);
        assert!(out.groups.is_empty());
    }

    #[test]
    fn deterministic() {
        let a = run("dp_tiny", 4, true);
        let b = run("dp_tiny", 4, true);
        assert_eq!(a.placement.positions(), b.placement.positions());
    }

    #[test]
    fn fold_groups_splits_tall_groups_evenly() {
        use sdp_netlist::CellId;
        let tall = DatapathGroup::from_dense(
            "mul",
            (0..100)
                .map(|b| vec![CellId::new(2 * b), CellId::new(2 * b + 1)])
                .collect(),
        );
        let folded = fold_groups(vec![tall], 30);
        assert_eq!(folded.len(), 4);
        // Chunks cover all bits exactly once, in order.
        let total: usize = folded.iter().map(|g| g.bits()).sum();
        assert_eq!(total, 100);
        assert!(folded.iter().all(|g| g.bits() <= 30));
        let mut seen = std::collections::HashSet::new();
        for g in &folded {
            for (_, _, c) in g.iter() {
                assert!(seen.insert(c));
            }
        }
        assert_eq!(seen.len(), 200);
        // Short groups pass through untouched.
        let short =
            DatapathGroup::from_dense("s", (0..8).map(|b| vec![CellId::new(1000 + b)]).collect());
        let kept = fold_groups(vec![short.clone()], 30);
        assert_eq!(kept[0].bits(), 8);
        assert_eq!(kept[0].name(), short.name());
    }

    #[test]
    fn boost_marks_only_low_degree_group_nets() {
        let d = generate(&GenConfig::named("dp_tiny", 14).unwrap());
        let r = sdp_extract::extract(&d.netlist, &sdp_extract::ExtractConfig::default());
        let boosted = boost_datapath_nets(&d.netlist, &r.groups, 3.0).expect("some dp nets");
        let mut raised = 0;
        for n in d.netlist.net_ids() {
            let w0 = d.netlist.net(n).weight;
            let w1 = boosted.net(n).weight;
            if w1 != w0 {
                assert_eq!(w1, w0 * 3.0);
                assert!(boosted.net_degree(n) <= 6, "only low-degree nets");
                raised += 1;
            }
        }
        assert!(raised > 10, "boosted {raised} nets");
        // No groups → no boost.
        assert!(boost_datapath_nets(&d.netlist, &[], 3.0).is_none());
    }

    #[test]
    fn abacus_legalizer_flows_legally() {
        let d = generate(&GenConfig::named("dp_tiny", 12).unwrap());
        let mut cfg = FlowConfig::fast();
        cfg.legalizer = crate::flow::LegalizerKind::Abacus;
        let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
        assert_eq!(out.legal_violations, 0);
    }

    #[test]
    fn routability_rounds_keep_the_flow_legal() {
        let d = generate(&GenConfig::named("dp_tiny", 11).unwrap());
        let mut cfg = FlowConfig::fast();
        cfg.routability_rounds = 2;
        let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
        assert_eq!(out.legal_violations, 0);
        assert!(out.report.hpwl.total > 0.0);
    }

    #[test]
    fn routability_scoring_is_cancellable() {
        use sdp_progress::{CancelToken, ManualClock, Observer, Phase, TokenSink};
        use std::sync::{Arc, Mutex};

        // Dense enough that the scorer's route starts with overflow and
        // so runs rip-up & reroute, whose checkpoints see the cancel.
        let mut gen = GenConfig::named("dp_small", 1).unwrap();
        gen.utilization = 0.92;
        let d = generate(&gen);
        let mut cfg = FlowConfig::fast();
        cfg.routability_rounds = 1;
        // Cancel at the scorer's first route report; HPWL mode routes
        // nowhere else.
        let token = CancelToken::new();
        let t2 = token.clone();
        let routes: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let routes2 = Arc::clone(&routes);
        let sink = TokenSink::new(token, move |phase, frac| {
            if phase == Phase::Route {
                routes2.lock().unwrap().push(frac);
                t2.cancel();
            }
        });
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        let r = StructurePlacer::new(cfg).place_with(&d.netlist, &d.design, &d.placement, &obs);
        assert_eq!(r.err(), Some(Cancelled));
        // The route started and never finished: the cancel landed inside
        // scoring.
        assert_eq!(*routes.lock().unwrap(), vec![0.0]);
    }

    #[test]
    fn route_mode_reports_routed_metrics_and_stays_legal() {
        let d = generate(&GenConfig::named("dp_tiny", 11).unwrap());
        let mut cfg = FlowConfig::fast();
        cfg.mode = FlowMode::Route;
        let out = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
        assert_eq!(out.legal_violations, 0);
        let r = out.report.route.expect("route mode carries a RouteReport");
        assert!(r.wirelength > 0.0);
        assert!(r.segments > 0);
        assert!(out.report.route_rounds <= ROUTE_MAX_ROUNDS);
        // HPWL mode never routes.
        let base = run("dp_tiny", 11, true);
        assert!(base.report.route.is_none());
        assert_eq!(base.report.route_rounds, 0);
        assert_eq!(base.report.times.route, 0.0);
    }

    #[test]
    fn route_mode_is_deterministic_across_thread_counts() {
        let d = generate(&GenConfig::named("dp_tiny", 13).unwrap());
        let mut cfg = FlowConfig::fast();
        cfg.mode = FlowMode::Route;
        let a = StructurePlacer::new(cfg.clone().with_threads(1)).place(
            &d.netlist,
            &d.design,
            &d.placement,
        );
        let b =
            StructurePlacer::new(cfg.with_threads(4)).place(&d.netlist, &d.design, &d.placement);
        assert_eq!(a.placement.positions(), b.placement.positions());
        assert_eq!(a.report.route, b.report.route);
        assert_eq!(a.report.route_rounds, b.report.route_rounds);
        assert_eq!(a.report.route_trace, b.report.route_trace);
    }

    #[test]
    fn route_mode_feedback_does_not_worsen_overflow() {
        // The kept result can never route worse than the one-shot
        // placement: round 0 *is* the one-shot and only improvements
        // replace it.
        let d = generate(&GenConfig::named("dp_small", 3).unwrap());
        let mut cfg = FlowConfig::fast();
        cfg.mode = FlowMode::Route;
        let looped = StructurePlacer::new(cfg.clone())
            .place(&d.netlist, &d.design, &d.placement)
            .report;
        cfg.mode = FlowMode::Hpwl;
        let one_shot = StructurePlacer::new(cfg).place(&d.netlist, &d.design, &d.placement);
        let one_shot_routed = sdp_route::route(
            &d.netlist,
            &one_shot.placement,
            &d.design,
            &sdp_route::RouteConfig::default(),
        );
        let r = looped.route.expect("route mode reports");
        assert!(
            r.overflow <= one_shot_routed.overflow,
            "feedback loop must not regress overflow: {} -> {}",
            one_shot_routed.overflow,
            r.overflow
        );
    }

    #[test]
    fn cancellation_aborts_mid_flow() {
        use sdp_progress::{CancelToken, ManualClock, Observer, Phase, TokenSink};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let d = generate(&GenConfig::named("dp_tiny", 4).unwrap());
        let token = CancelToken::new();
        // Cancel as soon as the global phase reports its first progress:
        // extraction must have completed, the flow must stop well before
        // legalization.
        let reports = Arc::new(AtomicUsize::new(0));
        let reports2 = Arc::clone(&reports);
        let t2 = token.clone();
        let sink = TokenSink::new(token, move |phase, _frac| {
            if phase == Phase::Global {
                reports2.fetch_add(1, Ordering::Relaxed);
                t2.cancel();
            }
        });
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        let r = StructurePlacer::new(FlowConfig::fast()).place_with(
            &d.netlist,
            &d.design,
            &d.placement,
            &obs,
        );
        assert_eq!(r.err(), Some(sdp_progress::Cancelled));
        assert!(
            reports.load(Ordering::Relaxed) >= 1,
            "cancel came from a report"
        );
    }

    #[test]
    fn manual_clock_zeroes_every_timer() {
        use sdp_progress::{ManualClock, NullSink, Observer};
        use std::sync::Arc;
        let d = generate(&GenConfig::named("dp_tiny", 5).unwrap());
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(NullSink));
        let out = StructurePlacer::new(FlowConfig::fast())
            .place_with(&d.netlist, &d.design, &d.placement, &obs)
            .expect("never cancelled");
        let t = out.report.times;
        assert_eq!(
            (t.extract, t.global, t.legalize, t.detailed),
            (0.0, 0.0, 0.0, 0.0),
            "all timing flows through the injected clock"
        );
        assert_eq!(out.report.gp.seconds, 0.0);
    }

    #[test]
    fn timers_are_populated() {
        let out = run("dp_tiny", 5, true);
        let t = out.report.times;
        assert!(t.global > 0.0);
        assert!(t.extract > 0.0);
        assert!(t.total() >= t.global);
    }

    #[test]
    fn rigid_mode_is_legal_too() {
        let out = run_rigid("dp_tiny", 9);
        assert_eq!(out.legal_violations, 0);
        assert_eq!(out.report.alignment.aligned_row_fraction, 1.0);
    }

    #[test]
    fn group_cells_form_contiguous_rows() {
        let out = run_rigid("dp_tiny", 6);
        // For each group bit row whose cells were locked, all cells must
        // share a y and be contiguous in x.
        let mut shared = 0;
        let mut rows_total = 0;
        for g in &out.groups {
            let gv = if g.axis == sdp_geom::GroupAxis::BitsHorizontal {
                g.transposed()
            } else {
                g.clone()
            };
            for b in 0..gv.bits() {
                let cells: Vec<_> = gv.bit_row(b).collect();
                if cells.len() < 2 {
                    continue;
                }
                rows_total += 1;
                let y0 = out.placement.get(cells[0]).y;
                if cells.iter().all(|&c| out.placement.get(c).y == y0) {
                    shared += 1;
                }
            }
        }
        assert!(rows_total > 0);
        assert_eq!(
            shared, rows_total,
            "rigid mode puts each bit row on one row"
        );
    }
}
