//! `BENCHMARK.json`: the committed file is the rendering of the spec, reads
//! back to the same content, and stays inside the manifest's limits.

use perfbench::json::{self, Json};
use perfbench::spec::{self, valid_name, valid_unit, Better, END_TO_END, PER_LAYER};
use perfbench::workload::Workload;
use std::collections::HashSet;

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn the_committed_manifest_is_the_rendered_spec() {
    assert_eq!(
        committed(),
        spec::manifest(),
        "regenerate with `perfbench --manifest > BENCHMARK.json`"
    );
}

#[test]
fn the_manifest_round_trips_through_json() {
    let doc = json::parse(&spec::manifest()).expect("manifest parses");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("command"), spec::COMMAND);
    assert_eq!(strings("paths"), spec::PATHS);
    assert_eq!(
        doc.get("run_seconds").unwrap().as_f64(),
        Some(f64::from(spec::RUN_SECONDS))
    );
    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), Workload::MANIFEST.len());
    for (w, v) in Workload::MANIFEST.iter().zip(workloads) {
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert_eq!(v.get("name").unwrap().as_str(), Some(w.name()));
        assert_eq!(v.get("why").unwrap().as_str(), Some(w.why()));
    }
    for (key, declared) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(key).unwrap().as_array().unwrap();
        assert_eq!(listed.len(), declared.len());
        for (m, v) in declared.iter().zip(listed) {
            assert_eq!(v.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(v.get("better").unwrap().as_str(), Some(m.better.as_str()));
            assert_eq!(v.get("bound").and_then(Json::as_f64), m.bound);
        }
    }
}

#[test]
fn names_units_and_limits_follow_the_manifest_grammar() {
    assert!(spec::COMMAND.len() <= 32 && spec::COMMAND.iter().all(|c| c.len() <= 200));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    assert!((2..=8).contains(&Workload::MANIFEST.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!(spec::manifest().len() <= 64 * 1024);
    let mut seen = HashSet::new();
    for w in Workload::ALL {
        assert!(valid_name(w.name()) && seen.insert(w.name()));
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
    let mut seen = HashSet::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}", m.unit);
        assert!(seen.insert(m.name), "{} declared twice", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
}

#[test]
fn the_name_grammar_accepts_and_rejects_what_it_should() {
    for ok in ["wall_s", "netsim.queue.pushes", "a-b.c_d", "9lives"] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        ".hidden",
        "_x",
        "has space",
        "per/sec",
        "ümlaut",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["ms", "s", "1/s", "count", "B/B", "%", "instr/B"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "bytes per s", "0123456789abcdefg"] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
fn the_binary_prints_the_manifest_and_rejects_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    let out = std::process::Command::new(exe)
        .arg("--manifest")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), spec::manifest());
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "paper_grid",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "paper_grid"],
    ] {
        let out = std::process::Command::new(exe).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "no result line on bad arguments");
    }
}

#[test]
fn the_traced_run_reports_every_declared_per_layer_metric_in_order() {
    use perfbench::harness::{CellOutcome, Counters, Timings, TracedSpans};
    use perfbench::pass::{layer_values, Pass};
    use perfbench::pmu::PmuSample;
    let pass = Pass {
        wall_s: 1.0,
        cpu_s: 1.0,
        pmu: Some(PmuSample {
            instructions: 1,
            cycles: 1,
        }),
        traced: true,
        gen_s: 0.0,
        cells: vec![CellOutcome {
            counters: Counters::default(),
            timings: Timings::default(),
            spans: Some(TracedSpans::default()),
            failure: None,
        }],
    };
    let names: Vec<&str> = layer_values(&pass, &pass).iter().map(|(n, _)| *n).collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, declared);
}
