//! Batched-shipping correctness: incremental maintenance over batched delta
//! shipping must reach exactly the state a from-scratch recomputation does.
//!
//! For random topologies and random link-churn sequences, pathvector and
//! mincost runs must end with the same fixpoint tables and an isomorphic
//! provenance graph as `NetTrails::recompute_from_scratch` over the churned
//! topology (the `graph_shape` isomorphism helper mirrors
//! `proptest_prov_equivalence.rs` in the `provenance` crate). Batching may
//! only coalesce the wire packaging: never more messages than records.

use nettrails::{NetTrails, NetTrailsConfig};
use proptest::prelude::*;
use provenance::{ProvGraph, ProvVertex};
use simnet::{Topology, TopologyEvent};

/// The structure of a provenance graph up to isomorphism on the display
/// cache: vertex ids with home/base (and rule/node for executions) plus the
/// sorted edge list. Vertex ids are content-addressed digests of resolved
/// strings, so they are stable across platform instances.
fn graph_shape(g: &ProvGraph) -> Vec<String> {
    let mut shape: Vec<String> = g
        .vertices
        .iter()
        .map(|(id, v)| match v {
            ProvVertex::Tuple { home, is_base, .. } => {
                format!("{id:?}@{home} base={is_base}")
            }
            ProvVertex::RuleExec { rule, node, .. } => {
                format!("{id:?}@{node} rule={rule}")
            }
        })
        .collect();
    shape.extend(g.edges.iter().map(|e| format!("{:?}->{:?}", e.from, e.to)));
    shape.sort();
    shape
}

/// Every visible (non-outbox) tuple across all nodes, sorted.
fn table_dump(nt: &NetTrails) -> Vec<String> {
    let mut rows = Vec::new();
    for node in nt.nodes() {
        let engine = nt.engine(&node).expect("engine exists");
        for table in engine.database().tables() {
            if table.schema.name.starts_with("__out::") {
                continue;
            }
            for tuple in table.tuples() {
                rows.push(format!("{node}: {tuple}"));
            }
        }
    }
    rows.sort();
    rows
}

fn churned_run(program: &str, topology: &Topology, events: &[TopologyEvent]) -> NetTrails {
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
        .expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    for event in events {
        nt.apply_topology_event(event);
    }
    nt
}

fn topology_for(kind: usize, size: usize) -> Topology {
    match kind % 3 {
        0 => Topology::line(2 + size % 3),
        1 => Topology::ring(3 + size % 3),
        _ => Topology::ladder(2 + size % 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_shipping_matches_recompute_from_scratch(
        kind in 0usize..3,
        size in 0usize..6,
        program_idx in 0usize..2,
        churn in proptest::collection::vec((0usize..8, 0usize..8, 0i64..4), 0..4),
    ) {
        let topology = topology_for(kind, size);
        let nodes: Vec<String> = topology.nodes().map(str::to_string).collect();
        // Random link failures and cost changes between existing nodes
        // (no-ops when the pair has no link are fine — the platform treats
        // them as empty events).
        let events: Vec<TopologyEvent> = churn
            .into_iter()
            .map(|(a, b, cost)| {
                let (a, b) = (nodes[a % nodes.len()].clone(), nodes[b % nodes.len()].clone());
                if cost == 0 {
                    TopologyEvent::LinkDown { a, b }
                } else {
                    TopologyEvent::CostChange { a, b, cost }
                }
            })
            .collect();
        let program = if program_idx == 0 {
            protocols::mincost::PROGRAM
        } else {
            protocols::pathvector::PROGRAM
        };

        let churned = churned_run(program, &topology, &events);
        let (fresh, _) = churned.recompute_from_scratch().expect("program compiles");

        prop_assert_eq!(table_dump(&churned), table_dump(&fresh));
        prop_assert_eq!(
            graph_shape(&churned.provenance_graph()),
            graph_shape(&fresh.provenance_graph())
        );
        // Batching may only coalesce: never more messages than records.
        let network = churned.stats().network;
        prop_assert!(network.messages <= network.records);
    }
}
