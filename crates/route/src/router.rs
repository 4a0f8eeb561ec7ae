//! Net decomposition, L-pattern routing, and negotiated-congestion rip-up
//! & reroute (a compact PathFinder).

use crate::grid::{Dir, RoutingGrid};
use sdp_geom::Point;
use sdp_netlist::{Design, Netlist, Placement};
use sdp_progress::{Cancelled, Observer, Phase};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Segments between cancellation checkpoints in the per-segment loops.
/// Small enough that a `DELETE /jobs/:id` lands within milliseconds even
/// on congested designs, large enough that the atomic poll is free.
const CHECKPOINT_STRIDE: usize = 256;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Gcells per axis; `None` sizes gcells to about 4 row heights.
    pub grid: Option<(usize, usize)>,
    /// Routing tracks per gcell edge (both directions).
    pub tracks_per_gcell: u32,
    /// Maximum rip-up & reroute iterations.
    pub rrr_iters: usize,
    /// Congestion penalty multiplier per unit of overflow.
    pub congestion_penalty: f64,
    /// History cost increment per overflowed edge per iteration.
    pub history_increment: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            grid: None,
            tracks_per_gcell: 12,
            rrr_iters: 8,
            congestion_penalty: 2.0,
            history_increment: 0.5,
        }
    }
}

/// Result of routing one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteReport {
    /// Total routed wirelength (physical units).
    pub wirelength: f64,
    /// Total edge overflow after the final iteration.
    pub overflow: u64,
    /// Number of overflowed edges.
    pub overflowed_edges: usize,
    /// Maximum edge utilization.
    pub max_utilization: f64,
    /// Rip-up & reroute iterations actually run.
    pub iterations: usize,
    /// Number of 2-pin segments routed.
    pub segments: usize,
    /// Gcell grid dimensions actually used (explicit or auto-sized).
    pub grid: (usize, usize),
}

/// One routed 2-pin segment: the sequence of gcells it passes through.
#[derive(Debug, Clone)]
struct Segment {
    a: (usize, usize),
    b: (usize, usize),
    path: Vec<(usize, usize)>,
}

/// Routes a placed netlist and reports wirelength and congestion.
///
/// Pipeline: per-net rectilinear MST decomposition into 2-pin segments →
/// initial best-L routing → iterative rip-up of segments crossing
/// overflowed edges and maze rerouting with history costs.
pub fn route(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    config: &RouteConfig,
) -> RouteReport {
    match route_observed(netlist, placement, design, config, &Observer::noop()) {
        Ok(r) => r,
        Err(Cancelled) => unreachable!("the noop observer never cancels"),
    }
}

/// [`route`] with progress reporting and cooperative cancellation:
/// `obs` is polled every [`CHECKPOINT_STRIDE`] segments and at every
/// rip-up & reroute iteration boundary, and [`Phase::Route`] progress is
/// reported against the configured `rrr_iters` maximum. On
/// `Err(Cancelled)` no partial report escapes.
pub fn route_observed(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    config: &RouteConfig,
    obs: &Observer,
) -> Result<RouteReport, Cancelled> {
    route_segments(netlist, placement, design, config, obs).map(|(report, _)| report)
}

/// [`route_observed`] returning the final segments next to the report.
fn route_segments(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    config: &RouteConfig,
    obs: &Observer,
) -> Result<(RouteReport, Vec<Segment>), Cancelled> {
    obs.checkpoint()?;
    let region = design.region();
    let (nx, ny) = config.grid.unwrap_or_else(|| {
        let pitch = design.row_height() * 4.0;
        (
            ((region.width() / pitch).round() as usize).clamp(2, 256),
            ((region.height() / pitch).round() as usize).clamp(2, 256),
        )
    });
    let grid = RoutingGrid::new(
        region,
        nx,
        ny,
        config.tracks_per_gcell,
        config.tracks_per_gcell,
    );

    // Decompose nets into 2-pin gcell segments.
    let mut segments: Vec<Segment> = Vec::new();
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        let mut cells: Vec<(usize, usize)> = net
            .pins
            .iter()
            .map(|&p| {
                let at = placement.pin_position(netlist, p);
                grid.gcell_of(region.clamp_point(at))
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        if cells.len() < 2 {
            continue;
        }
        for (a, b) in mst_edges(&cells) {
            segments.push(Segment {
                a,
                b,
                path: Vec::new(),
            });
        }
    }

    // Initial routing: best of the two L shapes by current congestion.
    let mut router = Router::new(grid, config);
    for (i, seg) in segments.iter_mut().enumerate() {
        if i % CHECKPOINT_STRIDE == 0 {
            obs.checkpoint()?;
        }
        seg.path = router.best_l_path(seg.a, seg.b);
        router.commit(&seg.path, 1);
    }

    // Negotiated-congestion rip-up & reroute. Not monotone in general, so
    // the best solution seen is kept and restored at the end.
    type SavedPaths = Vec<Vec<(usize, usize)>>;
    let mut iterations = 0;
    let mut best_paths: Option<(u64, SavedPaths)> = None;
    for iter in 0..config.rrr_iters {
        obs.checkpoint()?;
        obs.report(Phase::Route, iter as f64 / config.rrr_iters.max(1) as f64);
        let (overflow, _) = router.grid.total_overflow();
        if best_paths.as_ref().is_none_or(|&(b, _)| overflow < b) {
            best_paths = Some((overflow, segments.iter().map(|s| s.path.clone()).collect()));
        }
        if overflow == 0 {
            break;
        }
        iterations += 1;
        router.bump_history();
        // Rip up and reroute segments crossing overflowed edges.
        for (i, seg) in segments.iter_mut().enumerate() {
            if i % CHECKPOINT_STRIDE == 0 {
                obs.checkpoint()?;
            }
            if !crosses_overflow(&router.grid, &seg.path) {
                continue;
            }
            router.commit(&seg.path, -1);
            router.maze_route(seg.a, seg.b, &mut seg.path);
            router.commit(&seg.path, 1);
        }
    }

    // Restore the best solution if the last iteration regressed.
    if let Some((best, paths)) = best_paths {
        if router.grid.total_overflow().0 > best {
            for (seg, path) in segments.iter_mut().zip(paths) {
                router.commit(&seg.path, -1);
                router.commit(&path, 1);
                seg.path = path;
            }
        }
    }
    debug_assert_eq!(router.check(&segments), Ok(()));

    obs.report(Phase::Route, 1.0);
    let grid = &router.grid;
    let (overflow, overflowed_edges) = grid.total_overflow();
    let report = RouteReport {
        wirelength: grid.total_wirelength(),
        overflow,
        overflowed_edges,
        max_utilization: grid.max_utilization(),
        iterations,
        segments: segments.len(),
        grid: (nx, ny),
    };
    Ok((report, segments))
}

/// Index of edge `(x, y, d)` in the per-edge tables: the `(nx-1)·ny`
/// horizontal edges row by row, then the `nx·(ny-1)` vertical ones.
fn edge_ix(nx: usize, ny: usize, x: usize, y: usize, d: Dir) -> usize {
    match d {
        Dir::Horizontal => y * (nx - 1) + x,
        Dir::Vertical => (nx - 1) * ny + y * nx + x,
    }
}

/// Every edge of an `nx × ny` grid in [`edge_ix`] order.
fn edges(nx: usize, ny: usize) -> impl Iterator<Item = (usize, usize, Dir)> {
    let h = (0..ny).flat_map(move |y| (0..nx - 1).map(move |x| (x, y, Dir::Horizontal)));
    let v = (0..ny - 1).flat_map(move |y| (0..nx).map(move |x| (x, y, Dir::Vertical)));
    h.chain(v)
}

/// The consecutive gcell pairs of a path.
fn steps(path: &[(usize, usize)]) -> impl Iterator<Item = ((usize, usize), (usize, usize))> + '_ {
    path.iter().copied().zip(path.iter().copied().skip(1))
}

/// The edge a path step between two adjacent gcells crosses.
fn step_edge(a: (usize, usize), b: (usize, usize)) -> (usize, usize, Dir) {
    if a.1 == b.1 {
        (a.0.min(b.0), a.1, Dir::Horizontal)
    } else {
        (a.0, a.1.min(b.1), Dir::Vertical)
    }
}

/// Rectilinear MST edges over distinct gcells (Prim, O(n²)).
fn mst_edges(cells: &[(usize, usize)]) -> Vec<((usize, usize), (usize, usize))> {
    let n = cells.len();
    let dist =
        |a: (usize, usize), b: (usize, usize)| -> usize { a.0.abs_diff(b.0) + a.1.abs_diff(b.1) };
    let Some(&c0) = cells.first() else {
        return Vec::new();
    };
    let mut in_tree: Vec<bool> = (0..n).map(|i| i == 0).collect();
    // (dist, parent)
    let mut best: Vec<(usize, usize)> = cells.iter().map(|&c| (dist(c0, c), 0)).collect();
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = usize::MAX;
        for i in 0..n {
            if !in_tree[i] && best[i].0 < pick_d {
                pick_d = best[i].0;
                pick = i;
            }
        }
        in_tree[pick] = true;
        edges.push((cells[best[pick].1], cells[pick]));
        for i in 0..n {
            if !in_tree[i] {
                let d = dist(cells[pick], cells[i]);
                if d < best[i].0 {
                    best[i] = (d, pick);
                }
            }
        }
    }
    edges
}

/// Cost of pushing one more wire over the edge leaving `(x, y)` toward `d`.
fn edge_cost(
    grid: &RoutingGrid,
    history: &[f64],
    config: &RouteConfig,
    x: usize,
    y: usize,
    d: Dir,
) -> f64 {
    let usage = grid.usage(x, y, d);
    let cap = grid.capacity(d);
    let hist = history[edge_ix(grid.nx(), grid.ny(), x, y, d)];
    let over = (usage as i64 + 1 - cap as i64).max(0) as f64;
    (1.0 + hist) * (1.0 + config.congestion_penalty * over)
}

/// The state of one route call: edge usage, history and cached edge
/// costs, and the maze search buffers every reroute reuses.
struct Router<'c> {
    config: &'c RouteConfig,
    grid: RoutingGrid,
    /// History cost per edge, in [`edge_ix`] layout.
    history: Vec<f64>,
    /// [`edge_cost`] of every edge, in [`edge_ix`] layout: [`Router::commit`]
    /// rewrites the edges it touches and [`Router::bump_history`] all of
    /// them, so the searches read one value per edge.
    cost: Vec<f64>,
    maze: Maze,
}

impl<'c> Router<'c> {
    fn new(grid: RoutingGrid, config: &'c RouteConfig) -> Self {
        let (nx, ny) = (grid.nx(), grid.ny());
        let n_edges = (nx - 1) * ny + nx * (ny - 1);
        let mut router = Router {
            config,
            history: vec![0.0; n_edges],
            cost: vec![0.0; n_edges],
            maze: Maze::new(nx, ny),
            grid,
        };
        router.refresh_costs();
        router
    }

    fn refresh_costs(&mut self) {
        for (e, (x, y, d)) in edges(self.grid.nx(), self.grid.ny()).enumerate() {
            self.cost[e] = edge_cost(&self.grid, &self.history, self.config, x, y, d);
        }
    }

    /// Adds the history increment to every overflowed edge.
    fn bump_history(&mut self) {
        for (e, (x, y, d)) in edges(self.grid.nx(), self.grid.ny()).enumerate() {
            if self.grid.edge_overflow(x, y, d) > 0 {
                self.history[e] += self.config.history_increment;
            }
        }
        self.refresh_costs();
    }

    /// Adds (`delta`=1) or removes (`delta`=-1) a path's usage.
    fn commit(&mut self, path: &[(usize, usize)], delta: i32) {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        for (p, q) in steps(path) {
            let (x, y, d) = step_edge(p, q);
            self.grid.add_usage(x, y, d, delta);
            self.cost[edge_ix(nx, ny, x, y, d)] =
                edge_cost(&self.grid, &self.history, self.config, x, y, d);
        }
    }

    /// The cheaper of the two L-shaped paths from `a` to `b`.
    fn best_l_path(&self, a: (usize, usize), b: (usize, usize)) -> Vec<(usize, usize)> {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let via_corner = |corner: (usize, usize)| -> (f64, Vec<(usize, usize)>) {
            let mut path = vec![a];
            let mut cost = 0.0;
            let mut cur = a;
            for target in [corner, b] {
                while cur.0 != target.0 {
                    let (x, step) = if cur.0 < target.0 {
                        (cur.0, 1i64)
                    } else {
                        (cur.0 - 1, -1)
                    };
                    cost += self.cost[edge_ix(nx, ny, x, cur.1, Dir::Horizontal)];
                    cur.0 = (cur.0 as i64 + step) as usize;
                    path.push(cur);
                }
                while cur.1 != target.1 {
                    let (y, step) = if cur.1 < target.1 {
                        (cur.1, 1i64)
                    } else {
                        (cur.1 - 1, -1)
                    };
                    cost += self.cost[edge_ix(nx, ny, cur.0, y, Dir::Vertical)];
                    cur.1 = (cur.1 as i64 + step) as usize;
                    path.push(cur);
                }
            }
            (cost, path)
        };
        let (c1, p1) = via_corner((b.0, a.1));
        let (c2, p2) = via_corner((a.0, b.1));
        if c1 <= c2 {
            p1
        } else {
            p2
        }
    }

    /// Overwrites `path` with the cheapest path from `a` to `b` under the
    /// cached edge costs.
    fn maze_route(&mut self, a: (usize, usize), b: (usize, usize), path: &mut Vec<(usize, usize)>) {
        self.maze.search(a, b, &self.cost, path);
    }

    /// Independent check of the final state: every segment path is a
    /// 4-connected gcell walk from its `a` to its `b`, the usage
    /// recomputed from all paths equals the grid's counters, and the
    /// cost table equals [`edge_cost`] recomputed for every edge.
    fn check(&self, segments: &[Segment]) -> Result<(), String> {
        let (nx, ny) = (self.grid.nx(), self.grid.ny());
        let mut usage = vec![0u32; self.cost.len()];
        for (i, s) in segments.iter().enumerate() {
            if s.path.first() != Some(&s.a) || s.path.last() != Some(&s.b) {
                return Err(format!(
                    "segment {i} does not run from {:?} to {:?}",
                    s.a, s.b
                ));
            }
            for (p, q) in steps(&s.path) {
                let inside = p.0.max(q.0) < nx && p.1.max(q.1) < ny;
                if !inside || p.0.abs_diff(q.0) + p.1.abs_diff(q.1) != 1 {
                    return Err(format!("segment {i} steps from {p:?} to {q:?}"));
                }
                let (x, y, d) = step_edge(p, q);
                usage[edge_ix(nx, ny, x, y, d)] += 1;
            }
        }
        for (e, (x, y, d)) in edges(nx, ny).enumerate() {
            if usage[e] != self.grid.usage(x, y, d) {
                return Err(format!(
                    "edge {:?} has usage {} but its paths use it {} times",
                    (x, y, d),
                    self.grid.usage(x, y, d),
                    usage[e]
                ));
            }
            let fresh = edge_cost(&self.grid, &self.history, self.config, x, y, d);
            if self.cost[e].to_bits() != fresh.to_bits() {
                return Err(format!(
                    "edge {:?} caches cost {} but costs {fresh}",
                    (x, y, d),
                    self.cost[e]
                ));
            }
        }
        Ok(())
    }
}

/// Dijkstra search buffers, allocated once per route call and reset after
/// each search on the gcells it reached.
struct Maze {
    nx: usize,
    ny: usize,
    /// Distance from the source per gcell (`y * nx + x`); infinite
    /// between searches.
    dist: Vec<f64>,
    /// Predecessor per gcell. Only read along the chain from the target,
    /// whose every link the current search wrote, so it is never reset.
    prev: Vec<u32>,
    /// Gcells whose `dist` the current search set.
    touched: Vec<usize>,
    /// Min-heap of packed [`Maze::key`]s.
    heap: BinaryHeap<Reverse<u128>>,
}

impl Maze {
    fn new(nx: usize, ny: usize) -> Self {
        assert!(
            u32::try_from(nx * ny).is_ok(),
            "gcell indices must fit in 32 bits"
        );
        Maze {
            nx,
            ny,
            dist: vec![f64::INFINITY; nx * ny],
            prev: vec![u32::MAX; nx * ny],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Heap key of gcell `(x, y)` at distance `d`: the bits of `d`, then
    /// `x`, then `y`. A non-negative `f64` orders like its bit pattern, so
    /// keys order by cost and break ties by gcell, and as every push
    /// strictly lowers its gcell's distance no two keys are equal.
    fn key(d: f64, x: usize, y: usize) -> Reverse<u128> {
        Reverse(u128::from(d.to_bits()) << 64 | (x as u128) << 32 | y as u128)
    }

    /// Overwrites `path` with the cheapest `a`→`b` gcell walk under the
    /// per-edge `cost` (in [`edge_ix`] layout).
    fn search(
        &mut self,
        a: (usize, usize),
        b: (usize, usize),
        cost: &[f64],
        path: &mut Vec<(usize, usize)>,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let v0 = (nx - 1) * ny;
        self.relax(a.1 * nx + a.0, 0.0, a, u32::MAX);
        while let Some(Reverse(k)) = self.heap.pop() {
            let d = f64::from_bits((k >> 64) as u64);
            let (x, y) = ((k >> 32) as u32 as usize, k as u32 as usize);
            if (x, y) == b {
                break;
            }
            let cur = y * nx + x;
            if d > self.dist[cur] {
                continue;
            }
            let from = cur as u32;
            if x + 1 < nx {
                self.relax(cur + 1, d + cost[y * (nx - 1) + x], (x + 1, y), from);
            }
            if x > 0 {
                self.relax(cur - 1, d + cost[y * (nx - 1) + x - 1], (x - 1, y), from);
            }
            if y + 1 < ny {
                self.relax(cur + nx, d + cost[v0 + cur], (x, y + 1), from);
            }
            if y > 0 {
                self.relax(cur - nx, d + cost[v0 + cur - nx], (x, y - 1), from);
            }
        }
        path.clear();
        path.push(b);
        let (mut cur, src) = (b.1 * nx + b.0, a.1 * nx + a.0);
        while cur != src {
            let p = self.prev[cur];
            debug_assert!(p != u32::MAX, "maze route failed to reach the source");
            cur = p as usize;
            path.push((cur % nx, cur / nx));
        }
        path.reverse();
        for i in self.touched.drain(..) {
            self.dist[i] = f64::INFINITY;
        }
        self.heap.clear();
    }

    /// Lowers gcell `at` (`= (x, y)`) to distance `nd` via `from` if that
    /// improves it.
    fn relax(&mut self, at: usize, nd: f64, (x, y): (usize, usize), from: u32) {
        let old = self.dist[at];
        if nd < old {
            if old == f64::INFINITY {
                self.touched.push(at);
            }
            self.dist[at] = nd;
            self.prev[at] = from;
            self.heap.push(Self::key(nd, x, y));
        }
    }
}

/// Does the path cross any currently-overflowed edge?
fn crosses_overflow(grid: &RoutingGrid, path: &[(usize, usize)]) -> bool {
    steps(path).any(|(p, q)| {
        let (x, y, d) = step_edge(p, q);
        grid.edge_overflow(x, y, d) > 0
    })
}

/// Lower-bound wirelength: sum of HPWLs snapped to the grid (for sanity
/// checks: routed length can never beat it).
pub fn grid_hpwl_lower_bound(
    netlist: &Netlist,
    placement: &Placement,
    design: &Design,
    nx: usize,
    ny: usize,
) -> f64 {
    let region = design.region();
    let grid = RoutingGrid::new(region, nx, ny, 1, 1);
    let mut total = 0.0;
    for n in netlist.net_ids() {
        let net = netlist.net(n);
        let mut min = (usize::MAX, usize::MAX);
        let mut max = (0usize, 0usize);
        let mut pins = 0;
        for &p in &net.pins {
            let at: Point = placement.pin_position(netlist, p);
            let g = grid.gcell_of(region.clamp_point(at));
            min = (min.0.min(g.0), min.1.min(g.1));
            max = (max.0.max(g.0), max.1.max(g.1));
            pins += 1;
        }
        if pins >= 2 {
            total +=
                (max.0 - min.0) as f64 * grid.pitch_x() + (max.1 - min.1) as f64 * grid.pitch_y();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_dpgen::{generate, GenConfig};
    use sdp_gp::{GlobalPlacer, GpConfig};
    use sdp_legal::{legalize, LegalizeOptions};

    fn placed(seed: u64) -> (Netlist, Design, Placement) {
        let mut d = generate(&GenConfig::named("dp_tiny", seed).unwrap());
        GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
        legalize(
            &d.netlist,
            &d.design,
            &mut d.placement,
            &LegalizeOptions::default(),
        );
        (d.netlist, d.design, d.placement)
    }

    /// FNV-1a over every segment's endpoints and path, in segment order.
    fn segments_hash(segments: &[Segment]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let words = segments.iter().flat_map(|s| {
            let ends = [s.a, s.b, (usize::MAX, s.path.len())];
            ends.into_iter().chain(s.path.iter().copied())
        });
        for (x, y) in words {
            for w in [x as u64, y as u64] {
                for b in w.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Golden hash of every final segment path of `dp_small` at
    /// utilization 0.92 after a fast global placement (the design of
    /// `tests/golden.rs`), captured before the maze search moved to
    /// reused state, cached edge costs and packed heap keys.
    const DP_SMALL_SEGMENTS_GOLDEN: u64 = 9_640_620_021_978_542_004;

    #[test]
    fn final_segment_paths_match_golden() {
        let mut cfg = GenConfig::named("dp_small", 1).unwrap();
        cfg.utilization = 0.92;
        let mut d = generate(&cfg);
        GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
        let (report, segments) = route_segments(
            &d.netlist,
            &d.placement,
            &d.design,
            &RouteConfig::default(),
            &Observer::noop(),
        )
        .unwrap();
        assert!(
            report.iterations > 0,
            "the design must reach the maze router"
        );
        assert_eq!(segments_hash(&segments), DP_SMALL_SEGMENTS_GOLDEN);
    }

    #[test]
    fn routes_a_placed_design() {
        let (nl, design, pl) = placed(1);
        let report = route(&nl, &pl, &design, &RouteConfig::default());
        assert!(report.segments > 0);
        assert!(report.wirelength > 0.0);
        // Routed length must be at least the grid HPWL lower bound.
        let lb = grid_hpwl_lower_bound(&nl, &pl, &design, 16, 16);
        assert!(
            report.wirelength >= lb * 0.5,
            "routed {} vs lower bound {lb}",
            report.wirelength
        );
    }

    #[test]
    fn rrr_reduces_overflow() {
        let (nl, design, pl) = placed(2);
        // Starve the router to force congestion.
        let starved = RouteConfig {
            tracks_per_gcell: 2,
            rrr_iters: 0,
            ..RouteConfig::default()
        };
        let before = route(&nl, &pl, &design, &starved);
        let with_rrr = RouteConfig {
            tracks_per_gcell: 2,
            rrr_iters: 10,
            ..RouteConfig::default()
        };
        let after = route(&nl, &pl, &design, &with_rrr);
        assert!(
            after.overflow <= before.overflow,
            "rrr must not worsen overflow: {} -> {}",
            before.overflow,
            after.overflow
        );
        if before.overflow > 0 {
            assert!(after.iterations > 0);
        }
    }

    #[test]
    fn cancellation_aborts_mid_route() {
        use sdp_progress::{CancelToken, ManualClock, TokenSink};
        use std::sync::Arc;
        let (nl, design, pl) = placed(4);
        let token = CancelToken::new();
        token.cancel();
        let sink = TokenSink::new(token, |_, _| {});
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        let r = route_observed(&nl, &pl, &design, &RouteConfig::default(), &obs);
        assert_eq!(r, Err(Cancelled));
    }

    #[test]
    fn observed_route_reports_progress_and_matches_unobserved() {
        use sdp_progress::{CancelToken, ManualClock, TokenSink};
        use std::sync::{Arc, Mutex};
        let (nl, design, pl) = placed(2);
        let starved = RouteConfig {
            tracks_per_gcell: 2,
            ..RouteConfig::default()
        };
        let seen: Arc<Mutex<Vec<(Phase, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let sink = TokenSink::new(CancelToken::new(), move |p, f| {
            seen2.lock().unwrap().push((p, f));
        });
        let obs = Observer::new(Arc::new(ManualClock::new()), Arc::new(sink));
        let observed = route_observed(&nl, &pl, &design, &starved, &obs).unwrap();
        assert_eq!(observed, route(&nl, &pl, &design, &starved));
        let seen = seen.lock().unwrap();
        assert!(seen.iter().all(|&(p, _)| p == Phase::Route));
        assert_eq!(seen.last(), Some(&(Phase::Route, 1.0)));
    }

    #[test]
    fn deterministic() {
        let (nl, design, pl) = placed(3);
        let a = route(&nl, &pl, &design, &RouteConfig::default());
        let b = route(&nl, &pl, &design, &RouteConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_grid_is_respected_and_tighter_grids_cost_more() {
        let (nl, design, pl) = placed(5);
        let coarse = route(
            &nl,
            &pl,
            &design,
            &RouteConfig {
                grid: Some((8, 8)),
                ..RouteConfig::default()
            },
        );
        let fine = route(
            &nl,
            &pl,
            &design,
            &RouteConfig {
                grid: Some((32, 32)),
                ..RouteConfig::default()
            },
        );
        assert!(coarse.segments > 0 && fine.segments > 0);
        // Finer grids resolve more detail; both wirelengths stay sane.
        assert!(coarse.wirelength > 0.0 && fine.wirelength > 0.0);
    }

    #[test]
    fn zero_rrr_iters_reports_initial_solution() {
        let (nl, design, pl) = placed(6);
        let r = route(
            &nl,
            &pl,
            &design,
            &RouteConfig {
                rrr_iters: 0,
                ..RouteConfig::default()
            },
        );
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn mst_edges_span_all_cells() {
        let cells = vec![(0, 0), (3, 0), (0, 4), (5, 5)];
        let edges = mst_edges(&cells);
        assert_eq!(edges.len(), 3);
        // Union-find check that the edges connect everything.
        let mut parent: Vec<usize> = (0..cells.len()).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        for (a, b) in &edges {
            let ia = cells.iter().position(|c| c == a).unwrap();
            let ib = cells.iter().position(|c| c == b).unwrap();
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        assert!((0..cells.len()).all(|i| find(&mut parent, i) == root));
    }

    #[test]
    fn l_path_is_monotone_and_connected() {
        let grid = RoutingGrid::new(sdp_geom::Rect::new(0.0, 0.0, 10.0, 10.0), 10, 10, 4, 4);
        let cfg = RouteConfig::default();
        let p = Router::new(grid, &cfg).best_l_path((1, 1), (7, 5));
        assert_eq!(p.first(), Some(&(1, 1)));
        assert_eq!(p.last(), Some(&(7, 5)));
        assert_eq!(p.len(), 1 + 6 + 4);
        for w in p.windows(2) {
            let d = w[0].0.abs_diff(w[1].0) + w[0].1.abs_diff(w[1].1);
            assert_eq!(d, 1, "path steps one gcell at a time");
        }
    }

    #[test]
    fn maze_route_avoids_congestion() {
        let mut grid = RoutingGrid::new(sdp_geom::Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8, 2, 2);
        // Saturate the straight corridor between (0,4) and (7,4).
        for x in 0..7 {
            grid.add_usage(x, 4, Dir::Horizontal, 2);
        }
        let cfg = RouteConfig::default();
        let mut router = Router::new(grid, &cfg);
        let mut p = Vec::new();
        router.maze_route((0, 4), (7, 4), &mut p);
        assert_eq!(p.first(), Some(&(0, 4)));
        assert_eq!(p.last(), Some(&(7, 4)));
        // The path must detour off row 4 somewhere.
        assert!(
            p.iter().any(|&(_, y)| y != 4),
            "maze route should detour around the saturated corridor: {p:?}"
        );
        // The reused search state is clean: a second search agrees.
        let mut again = Vec::new();
        router.maze_route((0, 4), (7, 4), &mut again);
        assert_eq!(again, p);
    }

    /// A small routed state: three segments on a 6×5 grid, one L-routed
    /// and two maze-routed, with one history bump in between.
    fn small_state(cfg: &RouteConfig) -> (Router<'_>, Vec<Segment>) {
        let grid = RoutingGrid::new(sdp_geom::Rect::new(0.0, 0.0, 6.0, 5.0), 6, 5, 1, 1);
        let mut router = Router::new(grid, cfg);
        let mut segments: Vec<Segment> = [((0, 0), (5, 4)), ((0, 4), (5, 0)), ((1, 2), (4, 2))]
            .into_iter()
            .map(|(a, b)| Segment {
                a,
                b,
                path: Vec::new(),
            })
            .collect();
        segments[0].path = router.best_l_path(segments[0].a, segments[0].b);
        router.commit(&segments[0].path, 1);
        router.bump_history();
        for seg in &mut segments[1..] {
            router.maze_route(seg.a, seg.b, &mut seg.path);
            router.commit(&seg.path, 1);
        }
        (router, segments)
    }

    #[test]
    fn independent_check_catches_broken_paths_usage_and_costs() {
        let cfg = RouteConfig::default();
        let broken = |corrupt: &dyn Fn(&mut Router<'_>, &mut Vec<Segment>)| {
            let (mut router, mut segments) = small_state(&cfg);
            corrupt(&mut router, &mut segments);
            router.check(&segments)
        };
        assert_eq!(broken(&|_, _| {}), Ok(()));
        let jumped = broken(&|_, s| {
            s[2].path.remove(1);
        });
        assert!(jumped.unwrap_err().contains("segment 2 steps"));
        let short = broken(&|_, s| {
            s[1].path.pop();
        });
        assert!(short.unwrap_err().contains("segment 1 does not run"));
        let stray = broken(&|r, _| r.grid.add_usage(2, 3, Dir::Vertical, 1));
        assert!(stray
            .unwrap_err()
            .contains("has usage 1 but its paths use it 0"));
        let stale = broken(&|r, _| r.cost[4] += 1.0);
        assert!(stale.unwrap_err().contains("caches cost"));
    }
}
