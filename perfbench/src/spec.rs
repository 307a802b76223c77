//! The benchmark's declared surface: its command, workloads and metrics,
//! rendered into `BENCHMARK.json`.  `--manifest` prints the rendering; a
//! test checks that the committed file matches it.

use crate::json::quote;
use crate::workload::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 12;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories holding the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with `--trace 0`.  Each is for one pass of
/// the workload.  Host time (`wall_s`, `cpu_s`, `gcycles`) is printed with
/// every run but is not among them: on a shared host it drifts by up to 30%
/// between runs of identical work, wider than any bound could allow.
pub const END_TO_END: [Metric; 2] = [
    e2e("ginstr", "Ginstr", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, reported with `--trace 1`, grouped by layer.  The
/// end-to-end metric each should move, and on which workload, is in
/// `perfbench/README.md`.
pub const PER_LAYER: [Metric; 56] = [
    // experiments: scenario set-up and metric extraction spans, peak memory,
    // and the model outcome a pure speed-up must leave unchanged.
    layer("experiments.setup_ns", "ns", Lower),
    layer("experiments.extract_ns", "ns", Lower),
    layer("experiments.peak_rss_mb", "MiB", Lower),
    layer("experiments.sim_goodput_Bps", "B/s", Higher),
    layer("experiments.instr_per_delivered_byte", "instr/B", Lower),
    // routing: the wrapped RoutingAgent.
    layer("routing.calls", "count", Lower),
    layer("routing.discoveries", "count", Lower),
    layer("routing.ns", "ns", Lower),
    layer("routing.on_packet_calls", "count", Lower),
    layer("routing.control_tx", "count", Lower),
    layer("routing.control_bytes_per_data_byte", "B/B", Lower),
    layer("routing.discovery_failed", "count", Lower),
    // stack / transport: the wrapped NodeStack minus nested routing spans.
    layer("stack.calls", "count", Lower),
    layer("stack.self_ns", "ns", Lower),
    layer("transport.segments_sent", "count", Lower),
    layer("transport.retransmissions", "count", Lower),
    layer("transport.timeouts", "count", Lower),
    layer("transport.bytes_delivered_per_segment", "B/segment", Higher),
    // netsim: engine self time and counters.
    layer("netsim.self_ns", "ns", Lower),
    layer("netsim.events", "count", Lower),
    layer("netsim.events_per_tx", "events/tx", Lower),
    layer("netsim.events_per_delivered", "events/pkt", Lower),
    layer("netsim.queue.pushes", "count", Lower),
    layer("netsim.queue.max_occupancy", "count", Lower),
    layer("netsim.queue.calendar_resizes", "count", Lower),
    layer("netsim.mac.transmissions", "count", Lower),
    layer("netsim.mac.collisions", "count", Lower),
    layer("netsim.grid.neighbor_queries", "count", Lower),
    layer("netsim.grid.candidates_per_query", "nodes/query", Lower),
    layer("netsim.grid.position_cache_hit_rate", "ratio", Higher),
    layer("netsim.payload.deep_clones", "count", Lower),
    // netsim.mobility: the wrapped MobilityModel.
    layer("netsim.mobility.legs", "count", Lower),
    layer("netsim.mobility.ns", "ns", Lower),
    layer("netsim.grid.rebinds", "count", Lower),
    // netsim.fluid: the analytic background layer.
    layer("netsim.fluid.offered_bytes", "B", Lower),
    layer("netsim.fluid.delivered_bytes", "B", Higher),
    layer("netsim.fluid.delivered_share", "ratio", Higher),
    // telemetry: event stream and NDJSON encoding.
    layer("telemetry.events", "count", Lower),
    layer("telemetry.ndjson_bytes", "B", Lower),
    layer("telemetry.encode_ns", "ns", Lower),
    // netsim.shard: the sharded engine's counters and phase timers.
    layer("netsim.shard.windows", "count", Lower),
    layer("netsim.shard.cross_frames", "count", Lower),
    layer("netsim.shard.announcements_skipped", "count", Higher),
    layer("netsim.shard.imbalance", "max/min", Lower),
    layer("netsim.shard.execute_ns", "ns", Lower),
    layer("netsim.shard.barrier_ns", "ns", Lower),
    layer("netsim.shard.apply_ns", "ns", Lower),
    layer("netsim.shard.barrier_share", "ratio", Lower),
    // adversary: hostile relays.
    layer("adversary.drops", "count", Lower),
    layer("adversary.data_drops", "count", Lower),
    // Host time of the untraced pass of each pair.
    layer("host.wall_s", "s", Lower),
    layer("host.cpu_s", "s", Lower),
    layer("host.gcycles", "Gcycles", Lower),
    // The traced run's own cost.
    layer("trace.overhead_ginstr", "Ginstr", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.wall_s", "s", Lower),
];

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Whether `unit` is a valid unit: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn metric_line(m: &Metric) -> String {
    let mut line = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quote(m.name),
        quote(m.unit),
        quote(m.better.as_str())
    );
    if let Some(b) = m.bound {
        line.push_str(&format!(", \"bound\": {b}"));
    }
    line.push('}');
    line
}

fn list(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

/// The `BENCHMARK.json` text for this benchmark.
pub fn manifest() -> String {
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let paths: Vec<String> = PATHS.iter().map(|p| quote(p)).collect();
    let workloads: Vec<String> = Workload::MANIFEST
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        paths.join(", "),
        list(&workloads),
        list(&e2e),
        list(&per_layer),
    )
}
