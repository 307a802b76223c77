//! Grid-vs-brute-force equivalence.
//!
//! The spatial grid is an index, not an approximation: for any mobility
//! history and any query time, `neighbors_of` / `neighbors_into` under
//! [`NeighborIndex::Grid`] must return exactly the nodes the O(N²) scan
//! under [`NeighborIndex::BruteForce`] returns.  These tests drive both
//! configurations through the public API over seeded random scenarios —
//! including nodes placed exactly on the range circle — and require
//! bit-identical results.  The transmit path (receiver and carrier-sense
//! sets resolved from per-node neighbour lists) is held to the same
//! standard by a beaconing run under fast mobility.

use manet_netsim::mobility::{RandomWaypoint, StaticPlacement};
use manet_netsim::{
    Ctx, Duration, NeighborIndex, NodeStack, Position, SimConfig, SimTime, TimerToken,
};
use manet_wire::{ConnectionId, DataPacket, NetPacket, NodeId, PacketId, SharedPacket, TcpSegment};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// A stack that samples its own neighbourhood on a jittered periodic timer
/// and logs `(time, node, neighbors)` into a shared trace.
struct Sampler {
    me: NodeId,
    period: Duration,
    scratch: Vec<NodeId>,
    log: Rc<RefCell<Vec<(SimTime, NodeId, Vec<NodeId>)>>>,
}

impl NodeStack for Sampler {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Stagger the nodes so samples land at many distinct event times.
        let offset = Duration::from_millis(37.0 * f64::from(self.me.0) + 11.0);
        ctx.schedule_timer(offset, TimerToken(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        ctx.neighbors_into(&mut self.scratch);
        let now = ctx.now();
        self.log
            .borrow_mut()
            .push((now, self.me, self.scratch.clone()));
        // Consistency within one run: the allocating API agrees with the
        // scratch-buffer API, and `is_neighbor` with the membership test.
        assert_eq!(ctx.neighbors(), self.scratch);
        for &n in &self.scratch {
            assert!(ctx.is_neighbor(n));
        }
        let period = self.period;
        ctx.schedule_timer(period, TimerToken(0));
    }
    fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {}
    fn on_link_failure(&mut self, _ctx: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
}

type SampleLog = Vec<(SimTime, NodeId, Vec<NodeId>)>;

fn sample_run(
    config: SimConfig,
    mobility: impl Fn() -> Box<dyn manet_netsim::MobilityModel + Send>,
    index: NeighborIndex,
) -> SampleLog {
    let mut config = config;
    config.neighbor_index = index;
    let log = Rc::new(RefCell::new(Vec::new()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..config.num_nodes)
        .map(|i| {
            Box::new(Sampler {
                me: NodeId(i),
                period: Duration::from_millis(400.0),
                scratch: Vec::new(),
                log: Rc::clone(&log),
            }) as Box<dyn NodeStack>
        })
        .collect();
    let sim = manet_netsim::Simulator::new(config, mobility(), stacks);
    let _rec = sim.run();
    Rc::try_unwrap(log)
        .expect("stacks dropped with the simulator")
        .into_inner()
}

#[test]
fn grid_matches_brute_force_across_random_waypoint_runs() {
    for seed in [1u64, 7, 42, 1337] {
        let mut config = SimConfig::default();
        config.num_nodes = 40;
        config.duration = Duration::from_secs(12.0);
        config.seed = seed;
        config.mobility.min_speed = 1.0;
        config.mobility.max_speed = 20.0;
        config.mobility.pause = Duration::from_secs(0.5);
        let mobility = || {
            Box::new(RandomWaypoint::new(
                1000.0,
                1000.0,
                SimConfig::default().mobility,
            )) as Box<dyn manet_netsim::MobilityModel + Send>
        };
        // Both runs share the seed, so mobility histories are identical; the
        // sampled neighbourhoods must be too.
        let grid = sample_run(config.clone(), mobility, NeighborIndex::Grid);
        let brute = sample_run(config, mobility, NeighborIndex::BruteForce);
        assert!(!grid.is_empty());
        assert_eq!(
            grid, brute,
            "seed {seed}: grid and brute-force samples diverged"
        );
    }
}

#[test]
fn grid_matches_brute_force_with_small_slack_and_fast_nodes() {
    // A tight slack forces frequent drift refreshes; fast nodes maximise the
    // drift rate.  Correctness must not depend on the slack value.
    let mut config = SimConfig::default();
    config.num_nodes = 25;
    config.duration = Duration::from_secs(8.0);
    config.seed = 99;
    config.mobility.min_speed = 10.0;
    config.mobility.max_speed = 20.0;
    config.grid_slack_m = 2.0;
    let mobility = || {
        Box::new(RandomWaypoint::new(
            600.0,
            600.0,
            SimConfig::default().mobility,
        )) as Box<dyn manet_netsim::MobilityModel + Send>
    };
    let grid = sample_run(config.clone(), mobility, NeighborIndex::Grid);
    let brute = sample_run(config, mobility, NeighborIndex::BruteForce);
    assert_eq!(grid, brute);
}

#[test]
fn grid_matches_brute_force_on_range_circle_boundaries() {
    // Static layouts with distances engineered to land exactly on, just
    // inside and just outside the 250 m range circle, in many directions.
    let range = SimConfig::default().radio.range_m;
    let mut rng = SmallRng::seed_from_u64(0xc1_5c1e);
    for case in 0..20 {
        let mut positions = vec![Position::new(500.0, 500.0)];
        for k in 0..24usize {
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            // Cycle exact / inside / outside placements relative to node 0.
            let dist = match k % 3 {
                0 => range,
                1 => range - rng.gen_range(0.0..5.0),
                _ => range + rng.gen_range(1e-9..5.0),
            };
            positions.push(Position::new(
                500.0 + dist * angle.cos(),
                500.0 + dist * angle.sin(),
            ));
        }
        let mut config = SimConfig::default();
        config.num_nodes = positions.len() as u16;
        config.duration = Duration::from_secs(1.0);
        config.seed = case;
        config.mobility.max_speed = 0.0;
        let mobility = {
            let positions = positions.clone();
            move || {
                Box::new(StaticPlacement::new(positions.clone()))
                    as Box<dyn manet_netsim::MobilityModel + Send>
            }
        };
        let grid = sample_run(config.clone(), &mobility, NeighborIndex::Grid);
        let brute = sample_run(config, &mobility, NeighborIndex::BruteForce);
        assert_eq!(grid, brute, "case {case}: boundary neighbourhoods diverged");
        // Sanity: node 0 sees every on-circle and inside node (distance <=
        // range counts as in range), never the outside ones.
        let expected: Vec<NodeId> = positions
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, p)| p.distance_sq(positions[0]) <= range * range)
            .map(|(i, _)| NodeId(i as u16))
            .collect();
        let (_, _, first_sample) = grid
            .iter()
            .find(|(_, node, _)| *node == NodeId(0))
            .expect("node 0 sampled at least once");
        assert_eq!(first_sample, &expected, "case {case}");
    }
}

#[test]
fn grid_runs_report_index_perf_counters() {
    let mut config = SimConfig::default();
    config.num_nodes = 30;
    config.duration = Duration::from_secs(10.0);
    config.mobility.min_speed = 5.0;
    config.mobility.max_speed = 15.0;
    let mk = |index: NeighborIndex| {
        let mut c = config.clone();
        c.neighbor_index = index;
        let stacks: Vec<Box<dyn NodeStack>> = (0..c.num_nodes)
            .map(|i| {
                Box::new(Sampler {
                    me: NodeId(i),
                    period: Duration::from_millis(250.0),
                    scratch: Vec::new(),
                    log: Rc::new(RefCell::new(Vec::new())),
                }) as Box<dyn NodeStack>
            })
            .collect();
        let mobility = RandomWaypoint::new(1000.0, 1000.0, c.mobility);
        manet_netsim::Simulator::new(c, Box::new(mobility), stacks).run()
    };
    let grid_perf = mk(NeighborIndex::Grid).engine_perf();
    let brute_perf = mk(NeighborIndex::BruteForce).engine_perf();
    assert_eq!(grid_perf.neighbor_queries, brute_perf.neighbor_queries);
    assert!(
        grid_perf.grid_refreshes > 0,
        "mobile grid runs must refresh anchors"
    );
    assert_eq!(brute_perf.grid_refreshes, 0);
    assert_eq!(brute_perf.grid_rebinds, 0);
    assert!(
        grid_perf.candidates_scanned <= brute_perf.candidates_scanned,
        "the grid must never scan more candidates than the full scan \
         (grid {} vs brute {})",
        grid_perf.candidates_scanned,
        brute_perf.candidates_scanned
    );
    assert!(grid_perf.position_cache_hits > 0);
}

/// A stack that broadcasts a beacon on a randomly jittered timer and logs
/// every reception as `(time, receiver, sender, packet)`.
struct Beacon {
    me: NodeId,
    sent: u64,
    log: Rc<RefCell<Vec<(SimTime, NodeId, NodeId, u64)>>>,
}

impl NodeStack for Beacon {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let offset = Duration::from_millis(ctx.rng().gen_range(0.0..100.0));
        ctx.schedule_timer(offset, TimerToken(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        self.sent += 1;
        let id = (u64::from(self.me.0) << 32) | self.sent;
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, 64);
        let beacon = DataPacket::new(PacketId(id), self.me, NodeId(u16::MAX), segment);
        ctx.send_broadcast(NetPacket::Data(beacon));
        let period = Duration::from_millis(ctx.rng().gen_range(60.0..140.0));
        ctx.schedule_timer(period, TimerToken(0));
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        let NetPacket::Data(dp) = &*packet else {
            panic!("only beacons are on the air");
        };
        let now = ctx.now();
        self.log.borrow_mut().push((now, self.me, from, dp.id.0));
    }
    fn on_link_failure(&mut self, _ctx: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
}

#[test]
fn beaconing_under_fast_mobility_hears_identically_under_both_indexes() {
    // Fast random-waypoint motion (5–40 m/s, short pauses) makes neighbour
    // lists expire every fraction of a second and legs change while lists
    // are live; a 2 m slack makes the grid re-anchor nodes constantly.
    let mut config = SimConfig::default();
    config.num_nodes = 40;
    config.duration = Duration::from_secs(30.0);
    config.seed = 2024;
    config.mobility.min_speed = 5.0;
    config.mobility.max_speed = 40.0;
    config.mobility.pause = Duration::from_secs(0.2);
    config.grid_slack_m = 2.0;
    let run = |index: NeighborIndex| {
        let mut c = config.clone();
        c.neighbor_index = index;
        let log = Rc::new(RefCell::new(Vec::new()));
        let stacks: Vec<Box<dyn NodeStack>> = (0..c.num_nodes)
            .map(|i| {
                Box::new(Beacon {
                    me: NodeId(i),
                    sent: 0,
                    log: Rc::clone(&log),
                }) as Box<dyn NodeStack>
            })
            .collect();
        let mobility = RandomWaypoint::new(900.0, 900.0, c.mobility);
        let rec = manet_netsim::Simulator::new(c, Box::new(mobility), stacks).run();
        let log = Rc::try_unwrap(log)
            .expect("stacks dropped with the simulator")
            .into_inner();
        (log, rec)
    };
    let (grid_log, grid) = run(NeighborIndex::Grid);
    let (brute_log, brute) = run(NeighborIndex::BruteForce);
    assert!(
        grid_log.len() > 10_000,
        "only {} receptions",
        grid_log.len()
    );
    assert!(grid.collisions() > 0, "the run must exercise collisions");
    assert_eq!(grid_log, brute_log, "reception logs diverged");
    assert_eq!(grid.collisions(), brute.collisions());
    assert_eq!(grid.control_transmissions(), brute.control_transmissions());
    assert_eq!(grid.data_transmissions(), brute.data_transmissions());
    let (g, b) = (grid.engine_perf(), brute.engine_perf());
    assert_eq!(g.neighbor_queries, b.neighbor_queries);
    assert_eq!(g.neighbor_list_rebuilds, b.neighbor_list_rebuilds);
    assert_eq!(g.neighbor_exact_checks, b.neighbor_exact_checks);
    assert!(
        g.neighbor_list_rebuilds > u64::from(config.num_nodes) * 10,
        "lists must expire many times over the run ({} rebuilds)",
        g.neighbor_list_rebuilds
    );
    assert!(
        g.neighbor_list_rebuilds < g.neighbor_queries,
        "some transmissions must reuse a live list"
    );
    assert!(g.neighbor_exact_checks > 0, "band entries get exact checks");
}
