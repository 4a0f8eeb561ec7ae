//! Golden fingerprints of whole routes on congested designs.
//!
//! Every `RouteReport` field is pinned as bits for `dp_tiny` and
//! `dp_small` at utilization 0.92 after a fast global placement, so both
//! designs run rip-up & reroute and reach the maze router. The constants
//! were captured before the maze search moved to reused state, a cached
//! edge-cost table and packed heap keys. Router work must either stay
//! bitwise neutral against them or update them knowingly, with the reason
//! in the change log.

use sdp_dpgen::{generate, GenConfig};
use sdp_gp::{GlobalPlacer, GpConfig};
use sdp_route::{route, RouteConfig, RouteReport};

/// `RouteReport` as bits: wirelength, overflow, overflowed edges, max
/// utilization, iterations, segments, grid x, grid y.
type ReportBits = [u64; 8];

fn bits(r: &RouteReport) -> ReportBits {
    [
        r.wirelength.to_bits(),
        r.overflow,
        r.overflowed_edges as u64,
        r.max_utilization.to_bits(),
        r.iterations as u64,
        r.segments as u64,
        r.grid.0 as u64,
        r.grid.1 as u64,
    ]
}

fn congested_route(preset: &str) -> RouteReport {
    let mut cfg = GenConfig::named(preset, 1).unwrap();
    cfg.utilization = 0.92;
    let mut d = generate(&cfg);
    GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
    route(&d.netlist, &d.placement, &d.design, &RouteConfig::default())
}

const DP_TINY_GOLDEN: ReportBits = [
    4_656_059_794_554_992_348,
    0,
    0,
    4_607_182_418_800_017_408,
    1,
    303,
    7,
    7,
];
const DP_SMALL_GOLDEN: ReportBits = [
    4_671_521_556_949_023_906,
    40,
    35,
    4_607_933_018_737_912_491,
    8,
    2273,
    19,
    19,
];

#[test]
fn dp_tiny_route_matches_golden() {
    assert_eq!(bits(&congested_route("dp_tiny")), DP_TINY_GOLDEN);
}

#[test]
fn dp_small_route_matches_golden() {
    assert_eq!(bits(&congested_route("dp_small")), DP_SMALL_GOLDEN);
}
