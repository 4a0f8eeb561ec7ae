//! Criterion benchmark for the global router (L-pattern + RRR) and the
//! RUDY estimator on a placed design, plus a congested design whose
//! route runs rip-up & reroute through the maze router.

use criterion::{criterion_group, criterion_main, Criterion};
use sdp_dpgen::{generate, GenConfig, GeneratedDesign};
use sdp_gp::{GlobalPlacer, GpConfig};
use sdp_route::{route, rudy_map, RouteConfig};
use std::hint::black_box;

/// `dp_small` (seed 1) at `utilization` (`None` keeps the preset's)
/// after a fast global placement.
fn placed_dp_small(utilization: Option<f64>) -> GeneratedDesign {
    let mut gen = GenConfig::named("dp_small", 1).expect("preset");
    if let Some(u) = utilization {
        gen.utilization = u;
    }
    let mut d = generate(&gen);
    GlobalPlacer::new(GpConfig::fast()).place(&d.netlist, &d.design, &mut d.placement, None);
    d
}

fn bench_routing(c: &mut Criterion) {
    let d = placed_dp_small(None);
    let congested = placed_dp_small(Some(0.92));
    let cfg = RouteConfig::default();

    let mut g = c.benchmark_group("routing/dp_small");
    g.bench_function("route_full", |b| {
        b.iter(|| black_box(route(&d.netlist, &d.placement, &d.design, &cfg)))
    });
    g.bench_function("route_full_u092", |b| {
        b.iter(|| {
            let (nl, pl, design) = (&congested.netlist, &congested.placement, &congested.design);
            black_box(route(nl, pl, design, &cfg))
        })
    });
    g.bench_function("rudy_32x32", |b| {
        b.iter(|| black_box(rudy_map(&d.netlist, &d.placement, &d.design, 32, 32)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing
}
criterion_main!(benches);
