//! The timing pass-throughs change nothing the simulation computes, and the
//! benchmark's untraced run is the run the experiment runner makes.

use manet_adversary::AttackConfig;
use manet_experiments::runner::run_scenario_with_recorder;
use manet_experiments::{Protocol, Scenario};
use manet_netsim::{Duration, Execution};
use perfbench::harness::run_cell;
use perfbench::pass::median;
use perfbench::workload::Cell;

fn cell(scenario: Scenario, clean: bool) -> Cell {
    Cell {
        label: "test".into(),
        scenario,
        clean,
    }
}

fn paper(protocol: Protocol, seed: u64, secs: f64) -> Scenario {
    let mut s = Scenario::paper(protocol, 10.0, seed);
    s.sim.duration = Duration::from_secs(secs);
    s
}

#[test]
fn traced_runs_repeat_the_untraced_counters_exactly() {
    let attacked = paper(Protocol::Mts, 3, 20.0).with_attack(AttackConfig::blackhole(2));
    for c in [
        cell(paper(Protocol::Mts, 3, 20.0), true),
        cell(paper(Protocol::Dsr, 4, 20.0), true),
        cell(attacked, false),
    ] {
        let plain = run_cell(&c, false);
        let traced = run_cell(&c, true);
        assert_eq!(plain.failure, None);
        assert_eq!(traced.failure, None);
        assert_eq!(plain.counters, traced.counters);
        assert!(plain.spans.is_none());
        let spans = traced.spans.expect("a traced run has spans");
        assert!(spans.layers.routing_calls > 0 && spans.layers.stack_calls > 0);
        assert!(
            spans.layers.mobility_legs > 0,
            "10 m/s for 20 s completes legs"
        );
        assert!(
            spans.layers.stack_ns >= spans.layers.routing_ns,
            "routing nests in stacks"
        );
        assert!(spans.run_ns >= spans.layers.stack_ns);
    }
}

#[test]
fn sharded_traced_runs_repeat_the_untraced_counters_exactly() {
    let mut s = Scenario::scaled(Protocol::Mts, 200, 10.0, 2);
    s.sim.duration = Duration::from_secs(2.0);
    s.sim.execution = Execution::Sharded {
        shards: 2,
        workers: 2,
        window: None,
    };
    let c = cell(s, false);
    let plain = run_cell(&c, false);
    let traced = run_cell(&c, true);
    assert_eq!(plain.counters, traced.counters);
    assert_eq!(plain.counters.perf.shards, 2);
    assert!(
        plain.timings.setup_s.is_none(),
        "sharded set-up is not separable untraced"
    );
    assert!(
        traced.timings.setup_s.is_some(),
        "the first stack start ends set-up"
    );
}

#[test]
fn the_untraced_run_matches_the_experiment_runner() {
    let attacked = paper(Protocol::Aodv, 5, 15.0).with_attack(AttackConfig::blackhole(2));
    for s in [paper(Protocol::MtsHardened, 5, 15.0), attacked] {
        let ours = run_cell(&cell(s.clone(), false), false).counters;
        let (metrics, recorder) = run_scenario_with_recorder(&s);
        assert_eq!(ours.perf, recorder.engine_perf().without_phase_timers());
        assert_eq!(ours.delivered_packets, recorder.delivered_data_packets());
        assert_eq!(ours.control_tx, metrics.control_overhead);
        assert_eq!(ours.collisions, recorder.collisions());
        assert_eq!(ours.adversary_drops, recorder.adversary_drops());
        assert_eq!(ours.tcp_retransmissions, metrics.tcp_retransmissions);
    }
}

#[test]
fn a_panicking_run_is_a_failed_run() {
    let mut s = paper(Protocol::Mts, 1, 5.0);
    s.flows[0].dst = s.flows[0].src;
    let out = run_cell(&cell(s, true), false);
    assert!(out
        .failure
        .expect("invalid scenario fails")
        .contains("panicked"));
}

#[test]
fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}
