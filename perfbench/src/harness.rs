//! Running one cell through the public entry points — stack construction,
//! `Simulator::new`/`run` or `run_sharded`, `RunMetrics::extract` and, when
//! telemetry is on, `write_ndjson` — and reading the run's public counters.

use crate::trace::{LayerTotals, Ledger, TimedAgent, TimedMobility, TimedStack};
use crate::workload::Cell;
use manet_adversary::{AttackKind, BlackholeStack};
use manet_experiments::invariants::{delivers_data, no_adversary_capture};
use manet_experiments::stack::{ManetStack, SharedTcpStats, TcpRunReport};
use manet_experiments::{RunMetrics, Scenario};
use manet_netsim::mobility::{MobilityModel, RandomWaypoint};
use manet_netsim::telemetry::{write_ndjson, TelemetrySink};
use manet_netsim::{
    run_sharded, DropReason, Duration, EnginePerf, Execution, NodeStack, Recorder, Simulator,
};
use manet_routing::{RoutingAgent, RoutingStats};
use manet_wire::{ConnectionId, NodeId};
use parking_lot::Mutex;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Counters of one run that must repeat exactly for the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    /// Engine counters with the wall-clock shard phase timers zeroed.
    pub perf: EnginePerf,
    /// Unique data packets delivered.
    pub delivered_packets: u64,
    /// In-order application bytes delivered by TCP.
    pub tcp_bytes_delivered: u64,
    /// TCP data segments sent, retransmissions included.
    pub tcp_segments_sent: u64,
    /// TCP retransmissions.
    pub tcp_retransmissions: u64,
    /// TCP retransmission timeouts.
    pub tcp_timeouts: u64,
    /// Corrupted receptions.
    pub collisions: u64,
    /// Routing control transmissions (every hop).
    pub control_tx: u64,
    /// Routing control bytes transmitted.
    pub control_bytes: u64,
    /// Data frame transmissions (every hop).
    pub data_tx: u64,
    /// Packets dropped because route discovery gave up.
    pub discovery_failed: u64,
    /// Packets absorbed by hostile relays.
    pub adversary_drops: u64,
    /// Data packets absorbed by hostile relays.
    pub adversary_data_drops: u64,
    /// Bytes the fluid layer was offered.
    pub fluid_offered_bytes: u64,
    /// Bytes the fluid layer delivered.
    pub fluid_delivered_bytes: u64,
    /// Telemetry events collected.
    pub telemetry_events: u64,
    /// Bytes of NDJSON the telemetry encoded to.
    pub ndjson_bytes: u64,
    /// Simulated seconds of the run.
    pub sim_secs: f64,
}

impl Counters {
    /// Application bytes delivered: TCP payload plus fluid.
    pub fn delivered_app_bytes(&self) -> u64 {
        self.tcp_bytes_delivered + self.fluid_delivered_bytes
    }
}

/// Wall-clock facts of one run (not deterministic).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Scenario-to-first-event seconds, when the run can tell them apart.
    pub setup_s: Option<f64>,
    /// `RunMetrics::extract` nanoseconds.
    pub extract_ns: u64,
    /// `write_ndjson` nanoseconds.
    pub encode_ns: u64,
    /// Sharded-engine phase timers: execute, barrier, apply.
    pub shard_phase_ns: [u64; 3],
}

/// Spans of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedSpans {
    /// Wrapper span totals.
    pub layers: LayerTotals,
    /// Routing statistics summed over the agents.
    pub routing: RoutingStats,
    /// Nanoseconds from the engine call to the return of the recorder.
    pub run_ns: u64,
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Deterministic counters.
    pub counters: Counters,
    /// Wall-clock timings.
    pub timings: Timings,
    /// Spans, for a traced run.
    pub spans: Option<TracedSpans>,
    /// The failed correctness check, if any.
    pub failure: Option<String>,
}

/// An in-memory telemetry sink that counts the encoded bytes and drops them,
/// as a stream to a file or socket would.  Keeping a ~20 MB string per run
/// instead would make peak memory jump with the allocator's growth steps.
#[derive(Default)]
struct CountingSink {
    bytes: u64,
}

impl TelemetrySink for CountingSink {
    fn line(&mut self, line: &str) -> std::io::Result<()> {
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }
}

fn build_agent(
    scenario: &Scenario,
    me: NodeId,
    ledger: Option<&Arc<Ledger>>,
) -> Box<dyn RoutingAgent> {
    let agent = scenario.protocol.build_agent(me, scenario.mts);
    match ledger {
        Some(l) => Box::new(TimedAgent::new(agent, l)),
        None => agent,
    }
}

/// Node `me`'s stack exactly as the experiment runner builds it — the
/// connection-table stack, wrapped into a black hole when `me` is one — with
/// the timing pass-throughs added when `ledger` is set.
pub fn build_stack(
    scenario: &Scenario,
    stats: &SharedTcpStats,
    me: NodeId,
    ledger: Option<&Arc<Ledger>>,
) -> Box<dyn NodeStack + Send> {
    let mut node = ManetStack::new(me, build_agent(scenario, me, ledger), Arc::clone(stats));
    for (idx, flow) in scenario.flows.iter().enumerate() {
        let conn = ConnectionId(idx as u32);
        if flow.fluid {
            if flow.src == me {
                node.add_fluid(conn, flow.dst);
            }
        } else {
            if flow.src == me {
                node.add_sender(conn, flow.dst, scenario.tcp, flow.profile());
            }
            if flow.dst == me {
                node.add_receiver(conn, flow.src);
            }
        }
    }
    let mut stack: Box<dyn NodeStack + Send> = Box::new(node);
    if let AttackKind::Blackhole { drop_fraction, .. } = scenario.attack.kind {
        if scenario.attackers.contains(&me) {
            stack = Box::new(BlackholeStack::new(
                me,
                stack,
                drop_fraction,
                scenario.sim.seed,
            ));
        }
    }
    match ledger {
        Some(l) => Box::new(TimedStack::new(stack, l)),
        None => stack,
    }
}

/// The scenario's random-waypoint mobility, wrapped when `ledger` is set.
pub fn build_mobility(
    scenario: &Scenario,
    ledger: Option<&Arc<Ledger>>,
) -> Box<dyn MobilityModel + Send> {
    let sim = &scenario.sim;
    let model: Box<dyn MobilityModel + Send> = Box::new(RandomWaypoint::new(
        sim.field_width,
        sim.field_height,
        sim.mobility,
    ));
    match ledger {
        Some(l) => Box::new(TimedMobility::new(model, l)),
        None => model,
    }
}

fn counters_of(recorder: &Recorder, tcp: &TcpRunReport, sim_secs: f64) -> Counters {
    let agg = &tcp.aggregate;
    Counters {
        perf: recorder.engine_perf().without_phase_timers(),
        delivered_packets: recorder.delivered_data_packets(),
        tcp_bytes_delivered: agg.bytes_delivered,
        tcp_segments_sent: agg.segments_sent,
        tcp_retransmissions: agg.retransmissions,
        tcp_timeouts: agg.timeouts,
        collisions: recorder.collisions(),
        control_tx: recorder.control_transmissions(),
        control_bytes: recorder.control_bytes(),
        data_tx: recorder.data_transmissions(),
        discovery_failed: recorder.drops(DropReason::DiscoveryFailed),
        adversary_drops: recorder.adversary_drops(),
        adversary_data_drops: recorder.adversary_data_drops(),
        fluid_offered_bytes: recorder.fluid_offered_bytes(),
        fluid_delivered_bytes: recorder.fluid_delivered_bytes(),
        telemetry_events: recorder.telemetry.events().len() as u64,
        ndjson_bytes: 0,
        sim_secs,
    }
}

/// Run `cell.scenario`; with `traced` set, through the timing pass-throughs.
/// A panic anywhere in the run, or a failed delivery / capture check, makes
/// the outcome a failure.
pub fn run_cell(cell: &Cell, traced: bool) -> CellOutcome {
    let ledger = traced.then(Ledger::new);
    let result = catch_unwind(AssertUnwindSafe(|| run_cell_inner(cell, ledger.as_ref())));
    match result {
        Ok(outcome) => outcome,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            CellOutcome {
                counters: Counters::default(),
                timings: Timings::default(),
                spans: None,
                failure: Some(format!("{}: panicked: {msg}", cell.label)),
            }
        }
    }
}

fn run_cell_inner(cell: &Cell, ledger: Option<&Arc<Ledger>>) -> CellOutcome {
    let scenario = &cell.scenario;
    let t_setup = Instant::now();
    scenario.validate().expect("workload scenarios are valid");
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let mut timings = Timings::default();
    let t_run;
    let recorder = match scenario.sim.execution {
        Execution::Serial => {
            let stacks: Vec<Box<dyn NodeStack>> = (0..scenario.sim.num_nodes)
                .map(|i| build_stack(scenario, &stats, NodeId(i), ledger) as Box<dyn NodeStack>)
                .collect();
            let sim = Simulator::new(
                scenario.effective_sim(),
                build_mobility(scenario, ledger),
                stacks,
            );
            timings.setup_s = Some(t_setup.elapsed().as_secs_f64());
            t_run = Instant::now();
            sim.run()
        }
        Execution::Sharded { .. } => {
            t_run = Instant::now();
            let recorder = run_sharded(
                scenario.effective_sim(),
                || build_mobility(scenario, ledger),
                |me| build_stack(scenario, &stats, me, ledger),
                false,
            );
            let perf = recorder.engine_perf();
            timings.shard_phase_ns = [
                perf.phase_execute_nanos,
                perf.phase_barrier_nanos,
                perf.phase_apply_nanos,
            ];
            recorder
        }
    };
    let run_ns = t_run.elapsed().as_nanos() as u64;
    if let Some(first) = ledger.and_then(|l| l.first_start()) {
        timings.setup_s = Some(first.duration_since(t_setup).as_secs_f64());
    }
    let tcp = stats.lock().clone();
    let t_extract = Instant::now();
    black_box(RunMetrics::extract(scenario, &recorder, &tcp));
    timings.extract_ns = t_extract.elapsed().as_nanos() as u64;
    let mut counters = counters_of(&recorder, &tcp, scenario.sim.duration.as_secs());
    if scenario.sim.telemetry.enabled {
        let t_encode = Instant::now();
        let mut sink = CountingSink::default();
        write_ndjson(recorder.telemetry.events(), &mut sink).expect("in-memory sink never fails");
        timings.encode_ns = t_encode.elapsed().as_nanos() as u64;
        counters.ndjson_bytes = sink.bytes;
    }
    let failure = if cell.clean {
        delivers_data(&recorder)
            .and_then(|()| no_adversary_capture(&recorder))
            .err()
    } else {
        None
    };
    CellOutcome {
        counters,
        timings,
        // The run has dropped its stacks and mobility models, so every
        // wrapper has flushed its spans.
        spans: ledger.map(|l| TracedSpans {
            layers: l.totals(),
            routing: l.routing_stats(),
            run_ns,
        }),
        failure: failure.map(|f| format!("{}: {f}", cell.label)),
    }
}

/// Build `scenario` on the sharded engine and run it with the horizon cut
/// to one nanosecond, so nothing past the time-zero start-up executes: the
/// stack and engine construction a sharded run pays before its first event.
pub fn sharded_setup_only(scenario: &Scenario) {
    let mut sim = scenario.effective_sim();
    sim.duration = Duration::from_secs(1e-9);
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    black_box(run_sharded(
        sim,
        || build_mobility(scenario, None),
        |me| build_stack(scenario, &stats, me, None),
        false,
    ));
}
