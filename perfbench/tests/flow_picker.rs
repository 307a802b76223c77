//! The locality-bounded traffic picker behind `sharded_local`.

use manet_netsim::{Duration, SimConfig};
use manet_wire::NodeId;
use perfbench::workload::{hop_distances, initial_topology, pick_local_flows};
use std::collections::HashSet;

fn topology(n: u16, seed: u64) -> Vec<Vec<NodeId>> {
    let mut sim = SimConfig::scaled_environment(n, 10.0, seed);
    sim.duration = Duration::from_secs(1.0);
    initial_topology(&sim)
}

#[test]
fn picked_endpoints_are_exactly_k_hops_apart_and_distinct() {
    let adjacency = topology(600, 7);
    for hops in [1, 2, 3] {
        let flows = pick_local_flows(&adjacency, 20, hops, 7);
        assert_eq!(flows.len(), 20);
        let mut endpoints = HashSet::new();
        for &(src, dst) in &flows {
            // An unbounded search, so a shorter path anywhere would show.
            let dist = hop_distances(&adjacency, src, usize::MAX);
            assert_eq!(dist[dst.index()], hops, "{src:?} -> {dst:?}");
            assert!(
                endpoints.insert(src) && endpoints.insert(dst),
                "endpoint reused"
            );
        }
    }
}

#[test]
fn the_same_seed_picks_the_same_flows_and_another_seed_does_not() {
    let adjacency = topology(600, 3);
    let a = pick_local_flows(&adjacency, 15, 3, 11);
    assert_eq!(a, pick_local_flows(&adjacency, 15, 3, 11));
    assert_ne!(a, pick_local_flows(&adjacency, 15, 3, 12));
}

#[test]
fn neighbour_lists_are_symmetric_unit_disk_links() {
    let adjacency = topology(300, 5);
    for (i, nbrs) in adjacency.iter().enumerate() {
        for n in nbrs {
            assert!(adjacency[n.index()].contains(&NodeId(i as u16)));
        }
    }
}

#[test]
fn on_a_path_graph_every_flow_spans_exactly_k_positions() {
    let n = 40u16;
    let adjacency: Vec<Vec<NodeId>> = (0..n)
        .map(|i| {
            [i.checked_sub(1), (i + 1 < n).then_some(i + 1)]
                .into_iter()
                .flatten()
                .map(NodeId)
                .collect()
        })
        .collect();
    for (src, dst) in pick_local_flows(&adjacency, 8, 3, 1) {
        assert_eq!(src.0.abs_diff(dst.0), 3);
    }
}

#[test]
#[should_panic(expected = "cannot host")]
fn an_impossible_request_panics_instead_of_spinning() {
    let adjacency: Vec<Vec<NodeId>> = vec![vec![NodeId(1)], vec![NodeId(0)]];
    pick_local_flows(&adjacency, 1, 2, 1);
}
