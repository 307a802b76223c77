//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints a table of its
//! metrics, then one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`.  `--trace 0` reports the end-to-end metrics of untraced
//! passes; `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics.  Exits 1 when any correctness check fails, 2 on bad
//! arguments.  `perfbench --manifest` prints `BENCHMARK.json`.

use perfbench::harness::sharded_setup_only;
use perfbench::json::quote;
use perfbench::pass::{layer_values, median, Pass};
use perfbench::pmu::{peak_rss_mb, HostFacts, Pmu, PmuSample};
use perfbench::spec::{self, Metric};
use perfbench::workload::Workload;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Untraced passes a `--trace 0` run makes at least, so its medians rest
/// on more than one sample.
const MIN_PASSES: usize = 2;
/// Set-up-only repetitions of a sharded workload.
const SETUP_REPS: usize = 9;
/// Per-layer metrics computed from PMU counts, left out without a PMU.
const NEEDS_PMU: [&str; 4] = [
    "experiments.instr_per_delivered_byte",
    "host.gcycles",
    "trace.overhead_ginstr",
    "trace.overhead_share",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --manifest";

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--manifest"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// A measured metric and the samples whose median it reports.
struct Value {
    metric: &'static Metric,
    samples: Vec<f64>,
}

fn find(list: &'static [Metric], name: &str) -> &'static Metric {
    list.iter()
        .find(|m| m.name == name)
        .expect("every reported metric is declared in spec")
}

/// One PMU count per pass, ×10⁻⁹, or `None` without a PMU.
fn pmu_series(passes: &[Pass], f: fn(&PmuSample) -> u64) -> Option<Vec<f64>> {
    passes
        .iter()
        .map(|p| p.pmu.as_ref().map(|s| f(s) as f64 / 1e9))
        .collect()
}

/// One table row: median, unit, sample count and quartiles.
fn row(name: &str, unit: &str, samples: &[f64]) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    println!(
        "{:<40} {:>18.6} {:<10} {:>3} {:>13.6} ..{:>13.6}",
        name,
        median(samples),
        unit,
        v.len(),
        at(0.25),
        at(0.75)
    );
}

fn main() -> ExitCode {
    // Open the counters before anything spawns a thread: `inherit` only
    // covers threads created afterwards.
    let pmu = Pmu::open();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", spec::manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::collect(pmu.is_some());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={} cpu=\"{}\" perf_event_paranoid={} pmu={}",
        host.nproc,
        host.cpu_model,
        host.perf_event_paranoid,
        if host.pmu { "available" } else { "unavailable" }
    );

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let pmu = pmu.as_ref();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut setup_samples: Vec<f64> = Vec::new();
    if args.trace {
        loop {
            untraced.push(Pass::run(args.workload, args.seed, false, pmu));
            traced.push(Pass::run(args.workload, args.seed, true, pmu));
            if start.elapsed() >= budget {
                break;
            }
        }
    } else {
        if args.workload.sharded() {
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                let cells = args.workload.cells(args.seed);
                for cell in &cells {
                    sharded_setup_only(&cell.scenario);
                }
                setup_samples.push(t.elapsed().as_secs_f64());
            }
        }
        while untraced.len() < MIN_PASSES || start.elapsed() < budget {
            untraced.push(Pass::run(args.workload, args.seed, false, pmu));
        }
    }

    // Correctness: every cell's own checks, then exact repetition of the
    // deterministic counters across passes, traced or not.
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let reference = untraced[0].counters();
    for (i, pass) in untraced.iter().chain(&traced).enumerate() {
        attempted += pass.cells.len() as u64;
        let mut failed_cells = vec![false; pass.cells.len()];
        for (j, cell) in pass.cells.iter().enumerate() {
            if let Some(f) = &cell.failure {
                failures.push(format!("pass {}: {f}", i + 1));
                failed_cells[j] = true;
            }
        }
        for (j, (got, want)) in pass.counters().iter().zip(&reference).enumerate() {
            if !failed_cells[j] && got != want {
                failures.push(format!(
                    "pass {} ({}): cell {j} counters differ from pass 1",
                    i + 1,
                    if pass.traced { "traced" } else { "untraced" }
                ));
            }
        }
    }

    let mut values: Vec<Value> = Vec::new();
    if args.trace {
        let per_pass: Vec<Vec<(&'static str, f64)>> = traced
            .iter()
            .zip(&untraced)
            .map(|(t, u)| layer_values(t, u))
            .collect();
        for (k, (name, _)) in per_pass[0].iter().enumerate() {
            if !host.pmu && NEEDS_PMU.contains(name) {
                continue;
            }
            values.push(Value {
                metric: find(&spec::PER_LAYER, name),
                samples: per_pass.iter().map(|p| p[k].1).collect(),
            });
        }
    } else {
        let e2e = |name: &str, samples: Vec<f64>| Value {
            metric: find(&spec::END_TO_END, name),
            samples,
        };
        if let Some(instr) = pmu_series(&untraced, |s| s.instructions) {
            values.push(e2e("ginstr", instr));
        }
        if !args.workload.sharded() {
            setup_samples = untraced.iter().filter_map(Pass::setup_s).collect();
        }
        values.push(e2e("setup_s", setup_samples));
    }

    println!(
        "{:<40} {:>18} {:<10} {:>3} {:>28}",
        "metric", "value", "unit", "n", "quartiles"
    );
    for v in &values {
        row(v.metric.name, v.metric.unit, &v.samples);
    }
    if !args.trace {
        println!("# host time, printed but not gated (it drifts with the host's load):");
        row(
            "wall_s",
            "s",
            &untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        );
        row(
            "cpu_s",
            "s",
            &untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>(),
        );
        if let Some(cycles) = pmu_series(&untraced, |s| s.cycles) {
            row("gcycles", "Gcycles", &cycles);
        }
    }
    if !host.pmu {
        println!(
            "# ginstr and {}: unavailable (no PMU)",
            NEEDS_PMU.join(", ")
        );
    }
    let failed = failures.len() as u64;
    println!(
        "{:<40} {:>18.6} {:<10} {:>3}",
        "failed_share",
        failed as f64 / attempted as f64,
        "ratio",
        attempted
    );
    let first = &untraced[0];
    println!(
        "# outcome: {} B delivered over {} sim-s = {:.1} B/s goodput; peak RSS {:.1} MiB",
        first.delivered_app_bytes(),
        first.sim_secs(),
        first.delivered_app_bytes() as f64 / first.sim_secs(),
        peak_rss_mb()
    );
    for f in &failures {
        println!("# FAILED {f}");
    }

    let mut metrics: Vec<String> = Vec::new();
    for v in &values {
        let value = median(&v.samples);
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(v.metric.name),
            quote(v.metric.unit)
        ));
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
