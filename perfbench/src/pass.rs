//! One pass of a workload — every cell once, measured from outside — and
//! the end-to-end and per-layer values computed from a run's passes.

use crate::harness::{run_cell, CellOutcome, Counters};
use crate::pmu::{cpu_seconds, peak_rss_mb, Pmu, PmuSample};
use crate::workload::Workload;
use std::time::Instant;

/// One pass over a workload's cells.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    /// User plus system CPU seconds, all threads.
    pub cpu_s: f64,
    /// User-space instructions and cycles, when the PMU is available.
    pub pmu: Option<PmuSample>,
    /// Whether the cells ran through the timing pass-throughs.
    pub traced: bool,
    /// Seconds spent generating the pass's scenarios from the seed.
    pub gen_s: f64,
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellOutcome>,
}

impl Pass {
    /// Generate the workload's cells from `seed` and run each once.
    pub fn run(workload: Workload, seed: u64, traced: bool, pmu: Option<&Pmu>) -> Pass {
        let pmu0 = pmu.map(Pmu::read);
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let cells = workload.cells(seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let outcomes = cells.iter().map(|c| run_cell(c, traced)).collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let pmu = pmu.zip(pmu0).map(|(p, before)| p.read().since(before));
        Pass {
            wall_s,
            cpu_s,
            pmu,
            traced,
            gen_s,
            cells: outcomes,
        }
    }

    /// The deterministic counters of every cell.
    pub fn counters(&self) -> Vec<Counters> {
        self.cells.iter().map(|c| c.counters).collect()
    }

    /// Set-up seconds: scenario generation plus every cell's set-up
    /// (`None` if a cell cannot separate its set-up from its run).
    pub fn setup_s(&self) -> Option<f64> {
        let cells: Option<f64> = self.cells.iter().map(|c| c.timings.setup_s).sum();
        cells.map(|s| s + self.gen_s)
    }

    /// Application bytes delivered over the pass.
    pub fn delivered_app_bytes(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.counters.delivered_app_bytes())
            .sum()
    }

    /// Simulated seconds over the pass.
    pub fn sim_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.counters.sim_secs).sum()
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer values of one traced pass, plus the untraced counterpart it is
/// checked against.  Names match [`crate::spec::PER_LAYER`].
pub fn layer_values(traced: &Pass, untraced: &Pass) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&Counters) -> u64| -> f64 {
        traced.cells.iter().map(|c| f(&c.counters) as f64).sum()
    };
    let spans = |f: &dyn Fn(&crate::harness::TracedSpans) -> u64| -> f64 {
        traced
            .cells
            .iter()
            .filter_map(|c| c.spans.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    // Shard phase timers come from the untraced pass: they are the engine's
    // own clocks, and the wrappers would inflate them.
    let phase = |i: usize| -> f64 {
        untraced
            .cells
            .iter()
            .map(|c| c.timings.shard_phase_ns[i] as f64)
            .sum()
    };
    let perf = |f: &dyn Fn(&manet_netsim::EnginePerf) -> u64| sum(&|c| f(&c.perf));
    let sharded = traced.cells.iter().any(|c| c.counters.perf.shards > 1);

    let routing_ns = spans(&|s| s.layers.routing_ns);
    let stack_ns = spans(&|s| s.layers.stack_ns);
    let mobility_ns = spans(&|s| s.layers.mobility_ns);
    // Engine self time: the engine's span minus the stack and mobility spans
    // inside it.  Under sharding the spans are summed over worker threads, so
    // the engine span is the workers' execute time plus the barrier apply.
    let engine_ns = if sharded {
        let execute_apply: f64 = traced
            .cells
            .iter()
            .map(|c| (c.timings.shard_phase_ns[0] + c.timings.shard_phase_ns[2]) as f64)
            .sum();
        execute_apply
    } else {
        spans(&|s| s.run_ns)
    };
    let events = perf(&|p| p.events_processed);
    let tx = sum(&|c| c.control_tx + c.data_tx);
    let delivered = sum(&|c| c.delivered_packets);
    let queries = perf(&|p| p.neighbor_queries);
    let hits = perf(&|p| p.position_cache_hits);
    let misses = perf(&|p| p.position_cache_misses);
    let fluid_offered = sum(&|c| c.fluid_offered_bytes);
    let fluid_delivered = sum(&|c| c.fluid_delivered_bytes);
    let imbalance = traced
        .cells
        .iter()
        .map(|c| {
            let p = &c.counters.perf;
            if p.shards > 1 {
                p.shard_events_max as f64 / p.shard_events_min.max(1) as f64
            } else {
                1.0
            }
        })
        .fold(1.0, f64::max);
    let (execute, barrier, apply) = (phase(0), phase(1), phase(2));
    let overhead = match (traced.pmu, untraced.pmu) {
        (Some(t), Some(u)) => (t.instructions as f64 - u.instructions as f64) / 1e9,
        _ => 0.0,
    };
    let overhead_share = match untraced.pmu {
        Some(u) => ratio(overhead * 1e9, u.instructions as f64),
        None => 0.0,
    };
    vec![
        (
            "experiments.setup_ns",
            traced.setup_s().unwrap_or(0.0) * 1e9,
        ),
        (
            "experiments.extract_ns",
            traced
                .cells
                .iter()
                .map(|c| c.timings.extract_ns as f64)
                .sum(),
        ),
        ("experiments.peak_rss_mb", peak_rss_mb()),
        (
            "experiments.sim_goodput_Bps",
            ratio(traced.delivered_app_bytes() as f64, traced.sim_secs()),
        ),
        (
            "experiments.instr_per_delivered_byte",
            ratio(
                untraced.pmu.map_or(0.0, |u| u.instructions as f64),
                untraced.delivered_app_bytes() as f64,
            ),
        ),
        ("routing.calls", spans(&|s| s.layers.routing_calls)),
        ("routing.discoveries", spans(&|s| s.routing.discoveries)),
        ("routing.ns", routing_ns),
        (
            "routing.on_packet_calls",
            spans(&|s| s.layers.routing_on_packet_calls),
        ),
        ("routing.control_tx", sum(&|c| c.control_tx)),
        (
            "routing.control_bytes_per_data_byte",
            ratio(sum(&|c| c.control_bytes), sum(&|c| c.tcp_bytes_delivered)),
        ),
        ("routing.discovery_failed", sum(&|c| c.discovery_failed)),
        ("stack.calls", spans(&|s| s.layers.stack_calls)),
        ("stack.self_ns", (stack_ns - routing_ns).max(0.0)),
        ("transport.segments_sent", sum(&|c| c.tcp_segments_sent)),
        ("transport.retransmissions", sum(&|c| c.tcp_retransmissions)),
        ("transport.timeouts", sum(&|c| c.tcp_timeouts)),
        (
            "transport.bytes_delivered_per_segment",
            ratio(
                sum(&|c| c.tcp_bytes_delivered),
                sum(&|c| c.tcp_segments_sent),
            ),
        ),
        (
            "netsim.self_ns",
            (engine_ns - stack_ns - mobility_ns).max(0.0),
        ),
        ("netsim.events", events),
        ("netsim.events_per_tx", ratio(events, tx)),
        ("netsim.events_per_delivered", ratio(events, delivered)),
        ("netsim.queue.pushes", perf(&|p| p.queue_pushes)),
        (
            "netsim.queue.max_occupancy",
            traced
                .cells
                .iter()
                .map(|c| c.counters.perf.queue_max_occupancy as f64)
                .fold(0.0, f64::max),
        ),
        (
            "netsim.queue.calendar_resizes",
            perf(&|p| p.calendar_resizes),
        ),
        ("netsim.mac.transmissions", tx),
        ("netsim.mac.collisions", sum(&|c| c.collisions)),
        ("netsim.grid.neighbor_queries", queries),
        (
            "netsim.grid.candidates_per_query",
            ratio(perf(&|p| p.candidates_scanned), queries),
        ),
        (
            "netsim.grid.position_cache_hit_rate",
            ratio(hits, hits + misses),
        ),
        (
            "netsim.payload.deep_clones",
            perf(&|p| p.payload_deep_clones),
        ),
        ("netsim.mobility.legs", spans(&|s| s.layers.mobility_legs)),
        ("netsim.mobility.ns", mobility_ns),
        ("netsim.grid.rebinds", perf(&|p| p.grid_rebinds)),
        ("netsim.fluid.offered_bytes", fluid_offered),
        ("netsim.fluid.delivered_bytes", fluid_delivered),
        (
            "netsim.fluid.delivered_share",
            ratio(fluid_delivered, fluid_offered),
        ),
        ("telemetry.events", sum(&|c| c.telemetry_events)),
        ("telemetry.ndjson_bytes", sum(&|c| c.ndjson_bytes)),
        (
            "telemetry.encode_ns",
            traced
                .cells
                .iter()
                .map(|c| c.timings.encode_ns as f64)
                .sum(),
        ),
        ("netsim.shard.windows", perf(&|p| p.windows)),
        ("netsim.shard.cross_frames", perf(&|p| p.cross_shard_frames)),
        (
            "netsim.shard.announcements_skipped",
            perf(&|p| p.announcements_skipped),
        ),
        ("netsim.shard.imbalance", imbalance),
        ("netsim.shard.execute_ns", execute),
        ("netsim.shard.barrier_ns", barrier),
        ("netsim.shard.apply_ns", apply),
        (
            "netsim.shard.barrier_share",
            ratio(barrier, execute + barrier),
        ),
        ("adversary.drops", sum(&|c| c.adversary_drops)),
        ("adversary.data_drops", sum(&|c| c.adversary_data_drops)),
        ("host.wall_s", untraced.wall_s),
        ("host.cpu_s", untraced.cpu_s),
        (
            "host.gcycles",
            untraced.pmu.map_or(0.0, |u| u.cycles as f64 / 1e9),
        ),
        ("trace.overhead_ginstr", overhead),
        ("trace.overhead_share", overhead_share),
        ("trace.wall_s", traced.wall_s),
    ]
}
