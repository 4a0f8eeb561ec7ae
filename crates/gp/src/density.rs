//! NTUplace3-style bell-shaped density penalty.
//!
//! The placement region is divided into a uniform bin grid. Every movable
//! cell spreads a smooth "potential" over nearby bins through the classic
//! C¹-continuous bell-shaped kernel; the penalty is the squared overfill of
//! each bin:
//!
//! ```text
//! D(x, y) = Σ_b ( max(0, pot_b − cap_b) )²
//! ```
//!
//! where `cap_b` is the bin's capacity (bin area × target density − fixed
//! area already in the bin). Both the value and the analytic gradient with
//! respect to every movable cell centre are provided.
//!
//! The kernel is separable, `θx(|dx|)·θy(|dy|)`, and bin centres form a
//! lattice, so each cell evaluates its bells once per window column and
//! row rather than once per bin (see `Window`).

use crate::exec::{chunk_count, chunk_range, Executor};
use sdp_geom::{BinGrid, Point, Rect};
use sdp_netlist::{CellId, Netlist};

/// The bell-shaped kernel on one axis.
///
/// For a cell of width `w` and bin width `wb` at centre distance `d`:
///
/// ```text
/// θ(d) = 1 − a·d²                      0 ≤ d ≤ w/2 + wb
///      = b·(d − w/2 − 2wb)²            w/2 + wb ≤ d ≤ w/2 + 2wb
///      = 0                             otherwise
/// a = 4 / ((w + 2wb)(w + 4wb)),  b = 2 / (wb (w + 4wb))
/// ```
#[derive(Debug, Clone, Copy)]
struct Bell {
    half_w: f64,
    wb: f64,
    a: f64,
    b: f64,
}

impl Bell {
    fn new(w: f64, wb: f64) -> Self {
        Bell {
            half_w: w / 2.0,
            wb,
            a: 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb)),
            b: 2.0 / (wb * (w + 4.0 * wb)),
        }
    }

    /// Influence radius: beyond this distance θ = 0.
    fn radius(&self) -> f64 {
        self.half_w + 2.0 * self.wb
    }

    /// Kernel value at distance `d ≥ 0`.
    fn theta(&self, d: f64) -> f64 {
        if d <= self.half_w + self.wb {
            1.0 - self.a * d * d
        } else if d <= self.half_w + 2.0 * self.wb {
            let t = d - self.half_w - 2.0 * self.wb;
            self.b * t * t
        } else {
            0.0
        }
    }

    /// Kernel derivative dθ/dd at distance `d ≥ 0`.
    fn dtheta(&self, d: f64) -> f64 {
        if d <= self.half_w + self.wb {
            -2.0 * self.a * d
        } else if d <= self.half_w + 2.0 * self.wb {
            2.0 * self.b * (d - self.half_w - 2.0 * self.wb)
        } else {
            0.0
        }
    }
}

/// The density model: bin grid, capacities, and scratch potential field.
#[derive(Debug, Clone)]
pub struct DensityModel {
    grid: BinGrid,
    /// Per-bin capacity after subtracting fixed-cell area.
    capacity: Vec<f64>,
    /// Scratch: per-bin accumulated potential.
    potential: Vec<f64>,
    /// Per-cell kernel normalization constants, recomputed each evaluation.
    norm: Vec<f64>,
    /// Per-cell area inflation factors (routability-driven placement
    /// widens cells in congested regions); `1.0` = no inflation.
    inflation: Vec<f64>,
    /// Movable-cell ids in netlist order, cached so evaluation does not
    /// rebuild the list every call.
    movable: Vec<CellId>,
    /// Total movable area, for the overflow ratio.
    movable_area: f64,
}

impl DensityModel {
    /// Builds the model for a netlist over `region` with the given target
    /// density (utilization ceiling) and grid resolution.
    ///
    /// Fixed cells overlapping the region consume bin capacity. `fixed_pos`
    /// supplies all cell positions (only fixed ones are read).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_density <= 1` and `nx, ny > 0`.
    pub fn new(
        netlist: &Netlist,
        region: Rect,
        fixed_pos: &[Point],
        target_density: f64,
        nx: usize,
        ny: usize,
    ) -> Self {
        assert!(
            target_density > 0.0 && target_density <= 1.0,
            "target density must be in (0, 1]"
        );
        let grid = BinGrid::new(region, nx, ny);
        let mut capacity = vec![grid.bin_area() * target_density; grid.len()];
        for c in netlist.cell_ids() {
            if !netlist.cell(c).fixed {
                continue;
            }
            let m = netlist.master_of(c);
            let r = Rect::centered_at(fixed_pos[c.ix()], m.width, m.height);
            if let Some(overlap) = r.intersection(&region) {
                grid.splat_area(&overlap, |bix, a| {
                    let f = grid.flat(bix);
                    capacity[f] = (capacity[f] - a).max(0.0);
                });
            }
        }
        let len = grid.len();
        DensityModel {
            grid,
            capacity,
            potential: vec![0.0; len],
            norm: vec![0.0; netlist.num_cells()],
            inflation: vec![1.0; netlist.num_cells()],
            movable: netlist.movable_ids().collect(),
            movable_area: netlist.movable_area().max(1e-12),
        }
    }

    /// Sets per-cell area inflation factors (≥ 1). Inflated cells demand
    /// proportionally more bin capacity, pushing neighbours away — the
    /// classic cell-inflation mechanism of routability-driven placement.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the netlist or any
    /// factor is below 1.
    pub fn set_inflation(&mut self, inflation: Vec<f64>) {
        assert_eq!(inflation.len(), self.norm.len(), "one factor per cell");
        assert!(
            inflation.iter().all(|&f| f >= 1.0),
            "inflation factors must be >= 1"
        );
        // `movable_area` (the overflow denominator) deliberately stays the
        // *uninflated* area: inflation raises measured overflow, which is
        // exactly the spreading pressure the caller wants.
        self.inflation = inflation;
    }

    /// A sensible default grid resolution for a netlist: roughly
    /// `√(movable cells)/2` bins per axis, clamped to `[8, 160]`.
    pub fn default_resolution(num_movable: usize) -> usize {
        sdp_geom::cast::saturating_usize(((num_movable as f64).sqrt() / 2.0).round()).clamp(8, 160)
    }

    /// The bin grid.
    pub fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// Evaluates the density penalty `Σ (overfill)²` at `pos`, accumulating
    /// the gradient into `grad` (one entry per cell; caller zeroes it).
    /// Also refreshes the internal potential field used by
    /// [`DensityModel::overflow`].
    pub fn eval(&mut self, netlist: &Netlist, pos: &[Point], grad: &mut [Point]) -> f64 {
        self.eval_with(netlist, pos, grad, &SEQUENTIAL)
    }

    /// Like [`DensityModel::eval`], evaluated across `exec`'s thread pool.
    ///
    /// The evaluation runs in three phases: (1) per-cell kernel masses
    /// and potential deposits are computed in parallel over contiguous
    /// chunks of the movable-cell list, then applied to the shared
    /// potential field sequentially in chunk order; (2) the O(bins)
    /// penalty fold stays sequential; (3) per-cell gradients are computed
    /// in parallel (each cell's gradient is written by exactly one chunk).
    /// Phases 1 and 3 fill each cell's `Window` once per pass. The result
    /// is bitwise identical at any thread count, `exec` of one thread
    /// included: `eval` is this same path on an inline executor.
    pub fn eval_with(
        &mut self,
        netlist: &Netlist,
        pos: &[Point],
        grad: &mut [Point],
        exec: &Executor,
    ) -> f64 {
        let chunks = chunk_count(self.movable.len(), CELL_CHUNK);

        // Phase 1: masses and deposits in parallel, applied in cell order.
        let parts: Vec<PotentialChunk> = {
            let this = &*self;
            exec.map(chunks, |ci| this.deposits(netlist, pos, ci))
        };
        self.potential.fill(0.0);
        for part in parts {
            for (cell, norm) in part.norms {
                self.norm[cell] = norm;
            }
            for (f, v) in part.deposits {
                self.potential[f] += v;
            }
        }
        let penalty = self.penalty();

        // Phase 3: per-cell gradients. Each cell belongs to exactly one
        // chunk, so there is no cross-chunk accumulation to order.
        let grads: Vec<Vec<Point>> = {
            let this = &*self;
            exec.map(chunks, |ci| this.gradients(netlist, pos, ci))
        };
        for (ci, part) in grads.into_iter().enumerate() {
            let cells = chunk_range(self.movable.len(), CELL_CHUNK, ci);
            for (&c, g) in self.movable[cells].iter().zip(part) {
                grad[c.ix()].x += g.x;
                grad[c.ix()].y += g.y;
            }
        }
        penalty
    }

    /// The bells of cell `c` on each axis.
    fn bells(&self, netlist: &Netlist, c: CellId) -> (Bell, Bell) {
        let m = netlist.master_of(c);
        let bx = Bell::new(m.width * self.inflation[c.ix()], self.grid.bin_w());
        (bx, Bell::new(m.height, self.grid.bin_h()))
    }

    /// Chunk `ci`'s kernel normalizations and potential deposits.
    fn deposits(&self, netlist: &Netlist, pos: &[Point], ci: usize) -> PotentialChunk {
        let cells = chunk_range(self.movable.len(), CELL_CHUNK, ci);
        let nx = self.grid.nx();
        let mut w = Window::default();
        let mut part = PotentialChunk {
            // sdp-lint: allow(hot-loop-alloc) -- one exact-sized buffer
            // per 128-cell chunk, amortized over the chunk.
            norms: Vec::with_capacity(cells.len()),
            // sdp-lint: allow(hot-loop-alloc) -- per-chunk deposit list;
            // grows once then amortizes across the chunk.
            deposits: Vec::new(),
        };
        for &c in &self.movable[cells] {
            let (bx, by) = self.bells(netlist, c);
            w.fill(&self.grid, &bx, &by, pos[c.ix()], false);
            // Kernel mass for normalization (Σ θxθy → cell area).
            let mut mass = 0.0;
            for &ty in &w.ty {
                for &tx in &w.tx {
                    mass += tx * ty;
                }
            }
            let area = netlist.master_of(c).area() * self.inflation[c.ix()];
            let norm = if mass > 1e-12 { area / mass } else { 0.0 };
            part.norms.push((c.ix(), norm));
            // sdp-lint: allow(float-soundness) -- exact sentinel: the
            // branch above assigns literal 0.0, never a computed value.
            if norm == 0.0 {
                continue;
            }
            for (row, &ty) in w.ty.iter().enumerate() {
                let base = (w.iy_lo + row) * nx + w.ix_lo;
                for (col, &tx) in w.tx.iter().enumerate() {
                    let t = tx * ty;
                    if t > 0.0 {
                        part.deposits.push((base + col, norm * t));
                    }
                }
            }
        }
        part
    }

    /// Chunk `ci`'s per-cell density gradients, given the current
    /// potential field and normalizations.
    fn gradients(&self, netlist: &Netlist, pos: &[Point], ci: usize) -> Vec<Point> {
        let cells = chunk_range(self.movable.len(), CELL_CHUNK, ci);
        let mut w = Window::default();
        let nx = self.grid.nx();
        // sdp-lint: allow(hot-loop-alloc) -- one exact-sized gradient list
        // per 128-cell chunk.
        let mut out = Vec::with_capacity(cells.len());
        for &c in &self.movable[cells] {
            let norm = self.norm[c.ix()];
            // sdp-lint: allow(float-soundness) -- exact sentinel: `norm`
            // entries are a guarded quotient or literal 0.0.
            if norm == 0.0 {
                out.push(Point::ORIGIN);
                continue;
            }
            let (bx, by) = self.bells(netlist, c);
            w.fill(&self.grid, &bx, &by, pos[c.ix()], true);
            let (mut gx, mut gy) = (0.0, 0.0);
            for (row, (&ty, &dty)) in w.ty.iter().zip(&w.dty).enumerate() {
                let base = (w.iy_lo + row) * nx + w.ix_lo;
                for (col, (&tx, &dtx)) in w.tx.iter().zip(&w.dtx).enumerate() {
                    let f = base + col;
                    let over = self.potential[f] - self.capacity[f];
                    if over <= 0.0 {
                        continue;
                    }
                    // d/dx Σ (over_b)⁺² = Σ 2 over_b⁺ · c_i · θy · dθx/dx.
                    let k = 2.0 * over * norm;
                    gx += k * dtx * ty;
                    gy += k * tx * dty;
                }
            }
            out.push(Point::new(gx, gy));
        }
        out
    }

    /// The penalty fold over the current potential field.
    fn penalty(&self) -> f64 {
        let mut penalty = 0.0;
        for (f, &p) in self.potential.iter().enumerate() {
            let over = p - self.capacity[f];
            if over > 0.0 {
                penalty += over * over;
            }
        }
        penalty
    }

    /// Total overflow ratio at the last-evaluated positions: the summed
    /// per-bin overfill divided by the total movable area. `0` means every
    /// bin is at or under its capacity.
    pub fn overflow(&self) -> f64 {
        let over: f64 = self
            .potential
            .iter()
            .zip(&self.capacity)
            .map(|(&p, &c)| (p - c).max(0.0))
            .sum();
        over / self.movable_area
    }
}

/// The executor [`DensityModel::eval`] runs on: inline, no pool.
static SEQUENTIAL: Executor = Executor::sequential();

/// Movable-cell chunk size for parallel evaluation. Purely a scheduling
/// granularity: results never depend on it.
const CELL_CHUNK: usize = 128;

/// One chunk's phase-1 output: per-cell normalization constants and
/// potential deposits, both in cell order.
struct PotentialChunk {
    norms: Vec<(usize, f64)>,
    deposits: Vec<(usize, f64)>,
}

/// One cell's clipped bin window and its separable kernel tables: `θx`
/// per column from `ix_lo`, `θy` per row from `iy_lo`, and for the
/// gradient `θx'·sign dx` and `θy'·sign dy`. One scratch window per chunk
/// is refilled for every cell in every pass.
///
/// `bin_center((ix, iy)).x` depends only on `ix` (and `.y` only on `iy`),
/// so the kernel `θx(|dx|)·θy(|dy|)` of every bin in the window is a
/// product of one column entry and one row entry: O(wx + wy) bell
/// evaluations replace O(wx·wy). The mass, deposit and gradient loops
/// visit the bins row by row, column by column, and form each product
/// with the same operands in the same order as a direct per-bin
/// evaluation, so every sum is bitwise unchanged.
#[derive(Default)]
struct Window {
    ix_lo: usize,
    iy_lo: usize,
    tx: Vec<f64>,
    ty: Vec<f64>,
    dtx: Vec<f64>,
    dty: Vec<f64>,
}

impl Window {
    /// Refills the window for a cell at `center`, with the derivative
    /// tables only when `derivs`. A cell whose kernel misses the region
    /// gets empty tables.
    fn fill(&mut self, grid: &BinGrid, bx: &Bell, by: &Bell, center: Point, derivs: bool) {
        for t in [&mut self.tx, &mut self.ty, &mut self.dtx, &mut self.dty] {
            t.clear();
        }
        let reach = Rect::centered_at(center, 2.0 * bx.radius(), 2.0 * by.radius());
        let Some(clipped) = reach.intersection(&grid.region()) else {
            return;
        };
        let ((ix_lo, ix_hi), (iy_lo, iy_hi)) = grid.bins_overlapping(&clipped);
        (self.ix_lo, self.iy_lo) = (ix_lo, iy_lo);
        for ix in ix_lo..=ix_hi {
            let d = center.x - grid.bin_center((ix, iy_lo)).x;
            self.tx.push(bx.theta(d.abs()));
            if derivs {
                self.dtx.push(bx.dtheta(d.abs()) * d.signum());
            }
        }
        for iy in iy_lo..=iy_hi {
            let d = center.y - grid.bin_center((ix_lo, iy)).y;
            self.ty.push(by.theta(d.abs()));
            if derivs {
                self.dty.push(by.dtheta(d.abs()) * d.signum());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_netlist::{CellId, NetlistBuilder, PinDir};

    fn nl_with_cells(n: usize, w: f64) -> Netlist {
        let mut b = NetlistBuilder::new();
        let l = b.add_lib_cell("C", w, 1.0, 1, 1);
        let cells: Vec<CellId> = (0..n).map(|i| b.add_cell(&format!("u{i}"), l)).collect();
        for pair in cells.windows(2) {
            b.add_net(
                &format!("n{}", pair[0]),
                [
                    (pair[0], Point::ORIGIN, PinDir::Output),
                    (pair[1], Point::ORIGIN, PinDir::Input),
                ],
            );
        }
        b.finish().unwrap()
    }

    #[test]
    fn bell_kernel_is_continuous() {
        let bell = Bell::new(3.0, 2.0);
        let d1 = 3.0 / 2.0 + 2.0;
        let d2 = 3.0 / 2.0 + 4.0;
        // Continuity at the knee and at the support edge.
        assert!((bell.theta(d1 - 1e-9) - bell.theta(d1 + 1e-9)).abs() < 1e-6);
        assert!(bell.theta(d2 + 1e-9) == 0.0);
        assert!(bell.theta(d2 - 1e-6) < 1e-9);
        // Derivative continuity at the knee.
        assert!((bell.dtheta(d1 - 1e-9) - bell.dtheta(d1 + 1e-9)).abs() < 1e-6);
        // Peak at zero.
        assert_eq!(bell.theta(0.0), 1.0);
        assert_eq!(bell.dtheta(0.0), 0.0);
    }

    #[test]
    fn clustered_cells_overflow_spread_cells_do_not() {
        let nl = nl_with_cells(16, 2.0);
        let region = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut model = DensityModel::new(&nl, region, &vec![Point::ORIGIN; 16], 0.7, 8, 8);
        let mut grad = vec![Point::ORIGIN; 16];

        // All cells in one corner → overflow.
        let clustered: Vec<Point> = (0..16).map(|_| Point::new(2.0, 2.0)).collect();
        let p1 = model.eval(&nl, &clustered, &mut grad);
        let of1 = model.overflow();

        // Spread on a grid → little or no overflow.
        let spread: Vec<Point> = (0..16)
            .map(|i| Point::new(4.0 + 8.0 * (i % 4) as f64, 4.0 + 8.0 * (i / 4) as f64))
            .collect();
        grad.fill(Point::ORIGIN);
        let p2 = model.eval(&nl, &spread, &mut grad);
        let of2 = model.overflow();

        assert!(p1 > p2 * 10.0, "clustered {p1} >> spread {p2}");
        assert!(of1 > of2, "overflow {of1} > {of2}");
        assert!(of2 < 0.05, "spread overflow {of2} should be tiny");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let nl = nl_with_cells(4, 2.0);
        let region = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut model = DensityModel::new(&nl, region, &[Point::ORIGIN; 4], 0.6, 8, 8);
        // Overlapping positions so overfill (and gradient) is nonzero.
        let pos = vec![
            Point::new(5.0, 5.0),
            Point::new(5.5, 5.2),
            Point::new(6.0, 5.4),
            Point::new(5.2, 5.8),
        ];
        let mut grad = vec![Point::ORIGIN; 4];
        model.eval(&nl, &pos, &mut grad);
        let h = 1e-5;
        let mut scratch = vec![Point::ORIGIN; 4];
        for i in 0..4 {
            for axis in 0..2 {
                let mut p1 = pos.clone();
                let mut p2 = pos.clone();
                if axis == 0 {
                    p1[i].x -= h;
                    p2[i].x += h;
                } else {
                    p1[i].y -= h;
                    p2[i].y += h;
                }
                scratch.fill(Point::ORIGIN);
                let f1 = model.eval(&nl, &p1, &mut scratch);
                scratch.fill(Point::ORIGIN);
                let f2 = model.eval(&nl, &p2, &mut scratch);
                let fd = (f2 - f1) / (2.0 * h);
                let an = if axis == 0 { grad[i].x } else { grad[i].y };
                // The normalization constant is treated as locally constant,
                // so allow a few percent slack.
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + an.abs().max(fd.abs())),
                    "cell {i} axis {axis}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn fixed_cells_consume_capacity() {
        let mut b = NetlistBuilder::new();
        let big = b.add_lib_cell("MACRO", 8.0, 8.0, 1, 1);
        let small = b.add_lib_cell("INV", 2.0, 1.0, 1, 1);
        let m = b.add_fixed_cell("m", big);
        let u = b.add_cell("u", small);
        b.add_net(
            "n",
            [
                (m, Point::ORIGIN, PinDir::Output),
                (u, Point::ORIGIN, PinDir::Input),
            ],
        );
        let nl = b.finish().unwrap();
        let region = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut pos = vec![Point::ORIGIN; 2];
        pos[m.ix()] = Point::new(4.0, 4.0); // macro occupies lower-left quadrant
        pos[u.ix()] = Point::new(4.0, 4.0);

        let model_with = DensityModel::new(&nl, region, &pos, 1.0, 4, 4);
        // Bin (0,0) covers [0,4)², fully under the macro → zero capacity.
        assert_eq!(model_with.capacity[0], 0.0);
        // Far bin keeps full capacity.
        assert_eq!(model_with.capacity[15], 16.0);

        // A movable cell sitting on the macro must overflow immediately.
        let mut model = model_with.clone();
        let mut grad = vec![Point::ORIGIN; 2];
        let pen = model.eval(&nl, &pos, &mut grad);
        assert!(pen > 0.0);
        assert!(model.overflow() > 0.0);
    }

    #[test]
    fn total_potential_equals_movable_area() {
        let nl = nl_with_cells(9, 3.0);
        let region = Rect::new(0.0, 0.0, 24.0, 24.0);
        let mut model = DensityModel::new(&nl, region, &[Point::ORIGIN; 9], 0.8, 6, 6);
        let pos: Vec<Point> = (0..9)
            .map(|i| Point::new(4.0 + 8.0 * (i % 3) as f64, 4.0 + 8.0 * (i / 3) as f64))
            .collect();
        let mut grad = vec![Point::ORIGIN; 9];
        model.eval(&nl, &pos, &mut grad);
        let total: f64 = model.potential.iter().sum();
        let area = nl.movable_area();
        assert!(
            (total - area).abs() / area < 1e-6,
            "potential {total} vs area {area}"
        );
    }

    #[test]
    fn inflation_raises_demand() {
        let nl = nl_with_cells(8, 2.0);
        let region = Rect::new(0.0, 0.0, 16.0, 16.0);
        let pos: Vec<Point> = (0..8).map(|_| Point::new(8.0, 8.0)).collect();
        let mut grad = vec![Point::ORIGIN; 8];
        let mut plain = DensityModel::new(&nl, region, &pos, 0.7, 8, 8);
        let p0 = plain.eval(&nl, &pos, &mut grad);
        let of0 = plain.overflow();

        let mut inflated = DensityModel::new(&nl, region, &pos, 0.7, 8, 8);
        inflated.set_inflation(vec![2.0; 8]);
        grad.fill(Point::ORIGIN);
        let p1 = inflated.eval(&nl, &pos, &mut grad);
        let of1 = inflated.overflow();
        assert!(p1 > p0, "inflated penalty {p1} > {p0}");
        assert!(of1 > of0, "inflated overflow {of1} > {of0}");
    }

    #[test]
    #[should_panic(expected = "one factor per cell")]
    fn wrong_inflation_length_panics() {
        let nl = nl_with_cells(4, 2.0);
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut m = DensityModel::new(&nl, region, &[Point::ORIGIN; 4], 0.7, 4, 4);
        m.set_inflation(vec![1.0; 3]);
    }

    #[test]
    fn parallel_eval_is_bitwise_identical_to_sequential() {
        use crate::exec::Executor;
        use sdp_dpgen::{generate, GenConfig};
        let d = generate(&GenConfig::named("dp_tiny", 13).unwrap());
        let pos = d.placement.positions();
        let region = d.design.region();
        let base = DensityModel::new(&d.netlist, region, pos, 0.8, 16, 16);

        let mut m1 = base.clone();
        let mut g1 = vec![Point::ORIGIN; pos.len()];
        let p1 = m1.eval(&d.netlist, pos, &mut g1);

        for threads in [2usize, 4, 8] {
            let exec = Executor::new(threads);
            let mut mn = base.clone();
            let mut gn = vec![Point::ORIGIN; pos.len()];
            let pn = mn.eval_with(&d.netlist, pos, &mut gn, &exec);
            assert_eq!(p1.to_bits(), pn.to_bits(), "penalty @ {threads} threads");
            assert_eq!(
                m1.overflow().to_bits(),
                mn.overflow().to_bits(),
                "overflow @ {threads} threads"
            );
            for (k, (a, b)) in g1.iter().zip(&gn).enumerate() {
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "grad[{k}] @ {threads} threads"
                );
            }
        }
    }

    #[test]
    fn default_resolution_clamps() {
        assert_eq!(DensityModel::default_resolution(4), 8);
        assert_eq!(DensityModel::default_resolution(10_000), 50);
        assert_eq!(DensityModel::default_resolution(10_000_000), 160);
    }
}
