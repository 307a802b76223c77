//! The named workloads: which scenarios one pass runs, generated from the
//! `--seed` argument, and the locality-bounded traffic picker they share.

use manet_adversary::AttackConfig;
use manet_experiments::{Protocol, Scenario, TrafficFlow};
use manet_netsim::mobility::RandomWaypoint;
use manet_netsim::rng::RngStreams;
use manet_netsim::{Ctx, Duration, Execution, NodeStack, SimConfig, Simulator, TimerToken};
use manet_wire::{NetPacket, NodeId, SharedPacket};
use rand::Rng;
use std::collections::VecDeque;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2000 scaled nodes, 20 random flows: flood- and MAC-polling-bound.
    DenseN2000,
    /// 2000 nodes, 5 packet flows next to 195 fluid flows, telemetry on.
    HybridObserved,
    /// 10,000 nodes on the sharded engine with 3-hop local flows.
    ShardedLocal,
    /// The paper's protocol × speed × attack grid at 50 nodes.  Runnable,
    /// but not in `BENCHMARK.json`: its cost across seeds is heavy-tailed
    /// (see `README.md`).
    PaperGrid,
}

/// Nodes in `dense_n2000` and `hybrid_observed`.
const DENSE_NODES: u16 = 2000;
/// Independent replicas per pass.  One replica's instructions vary from
/// seed to seed by 13–16% between the quartiles, and its cycles by ~30%;
/// summing independent replicas narrows that spread by √n.
const DENSE_REPLICAS: u64 = 16;
const HYBRID_REPLICAS: u64 = 32;
/// Simulated seconds of one `dense_n2000` replica: the flood start-up.
const DENSE_SECS: f64 = 2.5;
/// Offered flows in `hybrid_observed`, and how many of them stay packet-level.
const HYBRID_FLOWS: u16 = 200;
const HYBRID_PACKET_FLOWS: usize = 5;
/// Simulated seconds of one `hybrid_observed` run.
const HYBRID_SECS: f64 = 20.0;
/// Hop distance of every locality-bounded flow.
const LOCAL_HOPS: usize = 3;
/// `sharded_local` shape.
const SHARDED_NODES: u16 = 10_000;
const SHARDED_FLOWS: usize = 100;
const SHARDED_SHARDS: u16 = 8;
const SHARDED_WORKERS: u16 = 2;

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in its order.
    pub const MANIFEST: [Workload; 3] = [
        Workload::DenseN2000,
        Workload::HybridObserved,
        Workload::ShardedLocal,
    ];

    /// Every workload the command line accepts.
    pub const ALL: [Workload; 4] = [
        Workload::DenseN2000,
        Workload::HybridObserved,
        Workload::ShardedLocal,
        Workload::PaperGrid,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseN2000 => "dense_n2000",
            Workload::HybridObserved => "hybrid_observed",
            Workload::ShardedLocal => "sharded_local",
            Workload::PaperGrid => "paper_grid",
        }
    }

    /// Why the workload exists (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::DenseN2000 => {
                "16 x Scenario::scaled(MTS, 2000), 20 random flows, 2.5 sim-s, seeds from --seed: RREQ floods and MAC deferral polls on a working set beyond cache"
            }
            Workload::HybridObserved => {
                "32 x 2000 nodes, 5 packet flows 3 hops apart + 195 fluid, 20 sim-s, telemetry to NDJSON, seeds from --seed: the only fluid and telemetry load"
            }
            Workload::ShardedLocal => {
                "10,000 scaled nodes, 8 shards on 2 workers, 1 sim-s, 100 flows 3 hops apart from --seed: the only shard-barrier and worker-thread load"
            }
            Workload::PaperGrid => {
                "the paper's grid: 50 nodes, 200 sim-s, DSR/AODV/MTS/MTS-H x 1/10/20 m/s x clean/blackhole(2), seed = --seed"
            }
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the sharded engine.
    pub fn sharded(self) -> bool {
        self == Workload::ShardedLocal
    }

    /// The cells of one pass, generated from `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let replica = |n: u64, i: u64| seed.wrapping_mul(n).wrapping_add(i);
        match self {
            Workload::DenseN2000 => (0..DENSE_REPLICAS)
                .map(|i| {
                    let sub = replica(DENSE_REPLICAS, i);
                    let mut scenario = Scenario::scaled(Protocol::Mts, DENSE_NODES, 10.0, sub);
                    scenario.sim.duration = Duration::from_secs(DENSE_SECS);
                    Cell::clean(format!("dense_n2000 seed {sub}"), scenario)
                })
                .collect(),
            Workload::HybridObserved => (0..HYBRID_REPLICAS)
                .map(|i| {
                    let sub = replica(HYBRID_REPLICAS, i);
                    Cell::clean(format!("hybrid_observed seed {sub}"), hybrid(sub))
                })
                .collect(),
            Workload::ShardedLocal => {
                let mut scenario =
                    local_scenario(SHARDED_NODES, 10.0, 1.0, SHARDED_FLOWS, LOCAL_HOPS, seed);
                scenario.sim.execution = Execution::Sharded {
                    shards: SHARDED_SHARDS,
                    workers: SHARDED_WORKERS,
                    window: None,
                };
                vec![Cell::clean(format!("sharded_local seed {seed}"), scenario)]
            }
            Workload::PaperGrid => paper_grid(seed),
        }
    }
}

/// One `hybrid_observed` replica: `Scenario::random_pairs` with its first
/// five flows replaced by local packet flows — so the replica's cost does not
/// hinge on how far apart a handful of random pairs happen to be — and the
/// other 195 run through the fluid layer, telemetry on.
fn hybrid(seed: u64) -> Scenario {
    let mut scenario = Scenario::random_pairs(Protocol::Mts, DENSE_NODES, HYBRID_FLOWS, 10.0, seed);
    scenario.sim.duration = Duration::from_secs(HYBRID_SECS);
    let local = local_flows(&scenario.sim, HYBRID_PACKET_FLOWS, LOCAL_HOPS, seed);
    for (flow, local) in scenario.flows.iter_mut().zip(local) {
        *flow = local;
    }
    for flow in scenario.flows.iter_mut().skip(HYBRID_PACKET_FLOWS) {
        flow.fluid = true;
    }
    // The random-pairs eavesdropper may now be a packet endpoint.
    scenario.eavesdropper = None;
    scenario
        .with_background(bench::hybrid_background())
        .with_telemetry(manet_netsim::TelemetryConfig {
            enabled: true,
            window_secs: Some(1.0),
            trace_packet: None,
        })
}

/// An MTS scenario over the scaled `nodes`-node environment whose `flows`
/// bulk flows each join two nodes exactly `hops` hops apart at time zero.
pub fn local_scenario(
    nodes: u16,
    max_speed: f64,
    secs: f64,
    flows: usize,
    hops: usize,
    seed: u64,
) -> Scenario {
    let mut sim = SimConfig::scaled_environment(nodes, max_speed, seed);
    sim.duration = Duration::from_secs(secs);
    let flows = local_flows(&sim, flows, hops, seed);
    Scenario::custom(Protocol::Mts, sim, flows)
}

/// `count` bulk flows `hops` hops apart in `sim`'s initial topology.
pub fn local_flows(sim: &SimConfig, count: usize, hops: usize, seed: u64) -> Vec<TrafficFlow> {
    pick_local_flows(&initial_topology(sim), count, hops, seed)
        .into_iter()
        .map(|(src, dst)| TrafficFlow::bulk(src, dst))
        .collect()
}

/// One simulation run of a pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable label (protocol, speed, attack).
    pub label: String,
    /// The scenario to run.
    pub scenario: Scenario,
    /// No adversary is armed: the run must deliver data and lose none to a
    /// hostile relay.  Attacked cells are exempt from both checks — black
    /// holes absorbing traffic is the modelled outcome, not a fault.
    pub clean: bool,
}

impl Cell {
    fn clean(label: String, scenario: Scenario) -> Cell {
        Cell {
            label,
            scenario,
            clean: true,
        }
    }
}

fn paper_grid(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(24);
    for protocol in Protocol::WITH_HARDENED {
        for speed in [1.0, 10.0, 20.0] {
            for attacked in [false, true] {
                let mut scenario = Scenario::paper(protocol, speed, seed);
                if attacked {
                    scenario = scenario.with_attack(AttackConfig::blackhole(2));
                }
                cells.push(Cell {
                    label: format!(
                        "{}@{speed}m/s{}",
                        protocol.name(),
                        if attacked { "+blackhole" } else { "" }
                    ),
                    scenario,
                    clean: !attacked,
                });
            }
        }
    }
    cells
}

/// A stack that does nothing: lets a [`Simulator`] be built just to read
/// its initial topology.
struct NullStack;

impl NodeStack for NullStack {
    fn start(&mut self, _: &mut Ctx<'_>) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerToken) {}
    fn on_receive(&mut self, _: &mut Ctx<'_>, _: NodeId, _: SharedPacket) {}
    fn on_link_failure(&mut self, _: &mut Ctx<'_>, _: NodeId, _: NetPacket) {}
}

/// Neighbour lists of every node at time zero, as the engine sees them
/// (`World::neighbors_of` over the random-waypoint placement the run uses).
pub fn initial_topology(sim: &SimConfig) -> Vec<Vec<NodeId>> {
    let mobility = RandomWaypoint::new(sim.field_width, sim.field_height, sim.mobility);
    let stacks: Vec<Box<dyn NodeStack>> = (0..sim.num_nodes)
        .map(|_| Box::new(NullStack) as Box<dyn NodeStack>)
        .collect();
    let probe = Simulator::new(sim.clone(), Box::new(mobility), stacks);
    (0..sim.num_nodes)
        .map(|i| probe.world().neighbors_of(NodeId(i)))
        .collect()
}

/// Hop distance from `src` to every node (`usize::MAX` when unreachable),
/// exploring no further than `max_hops`.
pub fn hop_distances(adjacency: &[Vec<NodeId>], src: NodeId, max_hops: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adjacency.len()];
    let mut frontier = VecDeque::from([src]);
    dist[src.index()] = 0;
    while let Some(node) = frontier.pop_front() {
        let d = dist[node.index()];
        if d == max_hops {
            continue;
        }
        for &next in &adjacency[node.index()] {
            if dist[next.index()] == usize::MAX {
                dist[next.index()] = d + 1;
                frontier.push_back(next);
            }
        }
    }
    dist
}

/// Pick `count` flows whose endpoints are exactly `hops` hops apart in
/// `adjacency`, with every endpoint distinct across all flows.  Sources are
/// drawn uniformly from a stream seeded by `seed`; each destination is drawn
/// uniformly from the source's untaken nodes at exactly `hops` hops.
///
/// # Panics
/// Panics if the topology cannot host that many such flows.
pub fn pick_local_flows(
    adjacency: &[Vec<NodeId>],
    count: usize,
    hops: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let n = adjacency.len();
    let mut rngs = RngStreams::new(seed ^ 0x10ca_1f10);
    let rng = rngs.scenario();
    let mut taken = vec![false; n];
    let mut flows = Vec::with_capacity(count);
    let mut draws = 0usize;
    while flows.len() < count {
        draws += 1;
        assert!(
            draws <= 100 * n,
            "topology cannot host {count} distinct {hops}-hop flows"
        );
        let src = NodeId(rng.gen_range(0..n as u16));
        if taken[src.index()] {
            continue;
        }
        let dist = hop_distances(adjacency, src, hops);
        let candidates: Vec<NodeId> = (0..n)
            .filter(|&i| dist[i] == hops && !taken[i])
            .map(|i| NodeId(i as u16))
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let dst = candidates[rng.gen_range(0..candidates.len())];
        taken[src.index()] = true;
        taken[dst.index()] = true;
        flows.push((src, dst));
    }
    flows
}
