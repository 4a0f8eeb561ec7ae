//! Golden fingerprints of the density kernel and of a whole global
//! placement on `dp_small`.
//!
//! The constants below were captured from the per-bin density kernel
//! before it moved to separable per-cell window tables. Kernel work must
//! either stay bitwise neutral against them or update them knowingly,
//! with the reason in the change log.

use sdp_dpgen::{generate, GenConfig};
use sdp_geom::Point;
use sdp_gp::{DensityModel, Executor, GlobalPlacer, GpConfig};

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn point_bits(pts: &[Point]) -> u64 {
    fnv(pts.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]))
}

/// A deterministic scatter of every movable cell over the region grown
/// by 10% on each side, so some kernel windows clip at an edge and a few
/// cells sit wholly outside.
fn scatter(d: &sdp_dpgen::GeneratedDesign) -> Vec<Point> {
    let r = d.design.region();
    let mut pos = d.placement.positions().to_vec();
    let mut s = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    for c in d.netlist.movable_ids() {
        pos[c.ix()] = Point::new(
            r.x1() - 0.1 * r.width() + 1.2 * r.width() * next(),
            r.y1() - 0.1 * r.height() + 1.2 * r.height() * next(),
        );
    }
    pos
}

/// `(penalty bits, overflow bits, gradient hash)` of one density eval.
fn density_fingerprint(threads: usize) -> (u64, u64, u64) {
    let d = generate(&GenConfig::named("dp_small", 1).unwrap());
    let pos = scatter(&d);
    let res = DensityModel::default_resolution(d.netlist.num_movable());
    let mut model = DensityModel::new(&d.netlist, d.design.region(), &pos, 0.9, res, res);
    let mut grad = vec![Point::ORIGIN; pos.len()];
    let penalty = model.eval_with(&d.netlist, &pos, &mut grad, &Executor::new(threads));
    (
        penalty.to_bits(),
        model.overflow().to_bits(),
        point_bits(&grad),
    )
}

const DENSITY_GOLDEN: (u64, u64, u64) = (
    4_671_105_258_926_806_567,
    4_594_513_954_104_614_014,
    4_338_347_997_438_781_403,
);
const PLACE_GOLDEN: u64 = 11_254_635_433_821_258_627;

#[test]
fn density_eval_matches_golden_at_one_and_two_threads() {
    for threads in [1, 2] {
        assert_eq!(
            density_fingerprint(threads),
            DENSITY_GOLDEN,
            "density fingerprint @ {threads} threads"
        );
    }
}

#[test]
fn global_placement_matches_golden() {
    let mut d = generate(&GenConfig::named("dp_small", 1).unwrap());
    let placer = GlobalPlacer::new(GpConfig {
        threads: 1,
        ..GpConfig::fast()
    });
    placer.place(&d.netlist, &d.design, &mut d.placement, None);
    assert_eq!(point_bits(d.placement.positions()), PLACE_GOLDEN);
}
