//! Regression guard for the planned, index-backed join pipeline: converging
//! the query_optimizations scenario (PATH-VECTOR on a ladder, the workload
//! `benches/query_optimizations.rs` times) and the maintenance_overhead
//! scenario (MINCOST on a ladder) must examine exactly the recorded number
//! of join candidates. `join_probes` is a deterministic work counter, so
//! any change to the planner, the posting lists or the probe kernel that
//! alters join work shows up here as an exact mismatch.

use nettrails::{NetTrails, NetTrailsConfig};
use simnet::Topology;

fn converge(program: &str) -> NetTrails {
    let mut nt = NetTrails::new(program, Topology::ladder(4), NetTrailsConfig::default())
        .expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    nt
}

#[test]
fn pathvector_ladder_join_probes_are_pinned() {
    let nt = converge(protocols::pathvector::PROGRAM);
    assert!(
        !nt.relation("bestPathCost").is_empty(),
        "scenario must actually derive state for the count to mean anything"
    );
    assert_eq!(nt.stats().engine.join_probes, 1876);
}

#[test]
fn mincost_ladder_join_probes_are_pinned() {
    let nt = converge(protocols::mincost::PROGRAM);
    assert!(!nt.relation("minCost").is_empty());
    assert_eq!(nt.stats().engine.join_probes, 312);
}
