//! A legalizer defect the benchmark's workloads no longer meet.
//!
//! At utilization 0.92 the Tetris legalizer sometimes finds no room for a
//! few cells; they keep their global-placement positions and overlap. On
//! congested `dp_medium` it hits about one design in two hundred, so a
//! workload drawing fresh designs from every seed would fail a run now
//! and then; `route_congested` places fixed reference designs instead.
//! This test keeps one failing design on record. It fails on the current
//! legalizer and is ignored until that is fixed:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored
//! ```

use sdp_core::{FlowConfig, FlowMode, StructurePlacer};
use sdp_dpgen::{generate, GenConfig};
use sdp_legal::check_legal;
use sdp_netlist::{read_bookshelf, write_bookshelf};

/// `dp_medium` design that leaves 3 cells unplaced in route mode.
const FAILING_DESIGN_SEED: u64 = 12_013_518_963_520_482_434;

#[test]
#[ignore = "known defect: the Tetris legalizer leaves 3 cells of this design unplaced"]
fn congested_dp_medium_design_places_legally_in_route_mode() {
    let mut cfg = GenConfig::named("dp_medium", FAILING_DESIGN_SEED).expect("preset");
    cfg.utilization = 0.92;
    let g = generate(&cfg);
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("known-defect");
    let aux =
        write_bookshelf(&dir, "case", &g.netlist, &g.design, &g.placement).expect("bundle written");
    let case = read_bookshelf(&aux).expect("bundle read");
    let flow = FlowConfig {
        mode: FlowMode::Route,
        ..FlowConfig::default()
    }
    .with_threads(0);
    let out = StructurePlacer::new(flow).place(&case.netlist, &case.design, &case.placement);
    let violations = check_legal(&case.netlist, &case.design, &out.placement);
    assert!(
        violations.is_empty(),
        "{} check_legal violations, {} cells the legalizer could not place",
        violations.len(),
        out.report.legal.failed
    );
}
