//! The density model against a direct per-bin reference.
//!
//! The reference below evaluates the bell kernel afresh at every bin of
//! every cell's window, with no separable tables, and is written against
//! the public API only. The model must match it bit for bit — penalty,
//! overflow and every gradient component — at one and at several
//! threads, on the window shapes the tables have to get right: clipped
//! at each region edge, wholly outside, inflated, and in-region but with
//! zero kernel mass.

use sdp_geom::{BinGrid, Point, Rect};
use sdp_gp::{DensityModel, Executor};
use sdp_netlist::{CellId, Netlist, NetlistBuilder, PinDir};

/// An 8×8 grid of 2×2 bins over the 16×16 region.
const BINS: usize = 8;
/// Low enough that a few overlapping cells overfill their bins.
const TARGET: f64 = 0.15;

/// `n` chained movable cells of width `w` and height 1.
fn chain(n: usize, w: f64) -> Netlist {
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

/// The NTUplace3 bell of a cell of width `w` over bins of width `wb`:
/// `(θ(d), dθ/dd)` at distance `d ≥ 0`.
fn bell(w: f64, wb: f64, d: f64) -> (f64, f64) {
    let hw = w / 2.0;
    let a = 4.0 / ((w + 2.0 * wb) * (w + 4.0 * wb));
    let b = 2.0 / (wb * (w + 4.0 * wb));
    if d <= hw + wb {
        (1.0 - a * d * d, -2.0 * a * d)
    } else if d <= hw + 2.0 * wb {
        let t = d - hw - 2.0 * wb;
        (b * t * t, 2.0 * b * t)
    } else {
        (0.0, 0.0)
    }
}

fn region() -> Rect {
    Rect::new(0.0, 0.0, 16.0, 16.0)
}

/// The rectangle a cell's kernel reaches: its bell radius on each axis.
fn reach(nl: &Netlist, grid: &BinGrid, c: CellId, infl: f64, center: Point) -> Rect {
    let m = nl.master_of(c);
    let (wb, hb) = (grid.bin_w(), grid.bin_h());
    Rect::centered_at(center, m.width * infl + 4.0 * wb, m.height + 4.0 * hb)
}

/// `(penalty, overflow, gradient)` evaluated bin by bin.
fn per_bin(nl: &Netlist, infl: &[f64], pos: &[Point]) -> (f64, f64, Vec<Point>) {
    let model = DensityModel::new(nl, region(), pos, TARGET, BINS, BINS);
    let grid = model.grid();
    let cap = grid.bin_area() * TARGET;
    // Per movable cell: its (flat bin, θx, θx'·sign, θy, θy'·sign) list.
    let kernel = |c: CellId| -> Vec<(usize, f64, f64, f64, f64)> {
        let m = nl.master_of(c);
        let p = pos[c.ix()];
        let Some(clipped) = reach(nl, grid, c, infl[c.ix()], p).intersection(&grid.region()) else {
            return Vec::new();
        };
        let ((x0, x1), (y0, y1)) = grid.bins_overlapping(&clipped);
        let mut out = Vec::new();
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                let d = p - grid.bin_center((ix, iy));
                let (tx, dtx) = bell(m.width * infl[c.ix()], grid.bin_w(), d.x.abs());
                let (ty, dty) = bell(m.height, grid.bin_h(), d.y.abs());
                let f = grid.flat((ix, iy));
                out.push((f, tx, dtx * d.x.signum(), ty, dty * d.y.signum()));
            }
        }
        out
    };

    let mut potential = vec![0.0; grid.len()];
    let mut norm = vec![0.0; pos.len()];
    for c in nl.movable_ids() {
        let bins = kernel(c);
        let mut mass = 0.0;
        for &(_, tx, _, ty, _) in &bins {
            mass += tx * ty;
        }
        if mass <= 1e-12 {
            continue;
        }
        norm[c.ix()] = nl.master_of(c).area() * infl[c.ix()] / mass;
        for &(f, tx, _, ty, _) in &bins {
            if tx * ty > 0.0 {
                potential[f] += norm[c.ix()] * (tx * ty);
            }
        }
    }
    let mut penalty = 0.0;
    for &p in &potential {
        if p - cap > 0.0 {
            penalty += (p - cap) * (p - cap);
        }
    }
    let over: f64 = potential.iter().map(|&p| (p - cap).max(0.0)).sum();
    let mut grad = vec![Point::ORIGIN; pos.len()];
    for c in nl.movable_ids() {
        let ci = norm[c.ix()];
        for (f, tx, dtx, ty, dty) in kernel(c) {
            let over = potential[f] - cap;
            if ci > 0.0 && over > 0.0 {
                grad[c.ix()].x += 2.0 * over * ci * dtx * ty;
                grad[c.ix()].y += 2.0 * over * ci * tx * dty;
            }
        }
    }
    (penalty, over / nl.movable_area(), grad)
}

/// Asserts the model matches [`per_bin`] bit for bit at 1 and 3 threads,
/// and returns the gradient.
fn assert_matches(nl: &Netlist, infl: &[f64], pos: &[Point]) -> Vec<Point> {
    let (penalty, overflow, grad) = per_bin(nl, infl, pos);
    assert!(penalty > 0.0, "the case must overfill some bin");
    for threads in [1, 3] {
        let mut model = DensityModel::new(nl, region(), pos, TARGET, BINS, BINS);
        model.set_inflation(infl.to_vec());
        let mut g = vec![Point::ORIGIN; pos.len()];
        let p = model.eval_with(nl, pos, &mut g, &Executor::new(threads));
        assert_eq!(p.to_bits(), penalty.to_bits(), "penalty @ {threads}");
        assert_eq!(
            model.overflow().to_bits(),
            overflow.to_bits(),
            "overflow @ {threads}"
        );
        for (k, (a, b)) in g.iter().zip(&grad).enumerate() {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "grad[{k}] @ {threads}"
            );
        }
    }
    grad
}

#[test]
fn windows_clipped_at_each_region_edge() {
    let nl = chain(12, 2.0);
    // Two cells at each edge and in two corners, so every clipped window
    // also overfills its bins.
    let spots = [
        Point::new(0.4, 7.0),
        Point::new(15.6, 9.0),
        Point::new(6.0, 0.3),
        Point::new(10.0, 15.7),
        Point::new(0.2, 0.2),
        Point::new(15.9, 15.9),
    ];
    let pos: Vec<Point> = (0..12).map(|i| spots[i / 2]).collect();
    let plain = vec![1.0; 12];
    let ids: Vec<CellId> = nl.movable_ids().collect();
    let grid = BinGrid::new(region(), BINS, BINS);
    let r = |k: usize| reach(&nl, &grid, ids[k], 1.0, pos[k]);
    assert!(r(0).x1() < region().x1(), "left edge clips");
    assert!(r(2).x2() > region().x2(), "right edge clips");
    assert!(r(4).y1() < region().y1(), "bottom edge clips");
    assert!(r(6).y2() > region().y2(), "top edge clips");
    assert_matches(&nl, &plain, &pos);
    let ramp: Vec<f64> = (0..12).map(|i| 1.0 + 0.25 * i as f64).collect();
    assert_matches(&nl, &ramp, &pos);
}

#[test]
fn cell_outside_the_region_deposits_nothing_and_feels_no_gradient() {
    let nl = chain(4, 2.0);
    let mut pos = vec![Point::new(8.0, 8.0); 4];
    pos[3] = Point::new(-40.0, 30.0);
    let c3 = nl.movable_ids().nth(3).unwrap();
    let grid = BinGrid::new(region(), BINS, BINS);
    assert!(reach(&nl, &grid, c3, 1.0, pos[3])
        .intersection(&region())
        .is_none());
    let grad = assert_matches(&nl, &[1.0; 4], &pos);
    assert_eq!(grad[3], Point::ORIGIN);
}

#[test]
fn inflated_cells() {
    let nl = chain(6, 1.5);
    let infl = [1.0, 1.5, 2.0, 3.0, 1.0, 4.5];
    let pos: Vec<Point> = (0..6)
        .map(|i| Point::new(6.0 + 0.7 * i as f64, 7.0 + 0.3 * i as f64))
        .collect();
    assert_matches(&nl, &infl, &pos);
}

#[test]
fn zero_mass_cell_takes_the_zero_norm_sentinel() {
    let nl = chain(4, 2.0);
    // Three cells overfill bin row 0 ...
    let mut pos = vec![Point::new(8.0, 1.0); 4];
    // ... and the kernel reaches 4.5 vertically: from y = -4.4 the
    // fourth cell's window clips to that row, but the row's centre
    // (y = 1) is 5.4 away, so every θ in its window is zero and its
    // kernel mass is 0.
    pos[3] = Point::new(8.0, -4.4);
    let c3 = nl.movable_ids().nth(3).unwrap();
    let grid = BinGrid::new(region(), BINS, BINS);
    assert!(reach(&nl, &grid, c3, 1.0, pos[3])
        .intersection(&region())
        .is_some());
    let grad = assert_matches(&nl, &[1.0; 4], &pos);
    assert_eq!(grad[3], Point::ORIGIN);
}
