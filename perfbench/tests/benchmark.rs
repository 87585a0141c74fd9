//! The benchmark's own checks: metric names against `BENCHMARK.json`,
//! the result-line schema, argument parsing, the reference table, and
//! corrupted references that must surface as failed steps.

use asuca_gpu::multi::{MultiGpuConfig, OverlapMode};
use asuca_perfbench::report::{expected, valid_name, valid_unit, Outcome, END_TO_END};
use asuca_perfbench::workload::{
    Driver, Precision, Reference, Workload, EXTRA, NAMES, REFERENCE_TSV,
};
use asuca_perfbench::{e2e, record, Args};
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use vgpu::{DeviceSpec, ExecMode};

/// `(name, unit)` of every object in one array section of
/// `BENCHMARK.json` (one object per line, as the file is written).
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section end")];
    let field = |line: &str, key: &str| -> Option<String> {
        let k = format!("\"{key}\": \"");
        let i = line.find(&k)? + k.len();
        Some(line[i..i + line[i..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
        .collect()
}

#[test]
fn metric_names_and_units_are_valid_and_unique() {
    for trace in [false, true] {
        let set = expected(trace);
        for (name, unit) in &set {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<&String> = set.iter().map(|m| &m.0).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), set.len(), "duplicate metric names");
    }
    assert!(!valid_name(".leading_dot"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit(""));
    assert!(!valid_unit("s per step"));
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    let as_owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), as_owned(expected(false)));
    assert_eq!(declared("per_layer"), as_owned(expected(true)));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, NAMES.to_vec());
    assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let set = expected(false);
    let mut out = Outcome {
        attempted: 4,
        ..Default::default()
    };
    for (n, (name, _)) in set.iter().enumerate() {
        out.set(name, 0.25 * (n + 1) as f64);
    }
    let line = out.to_json(&set).unwrap();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
         \"step_cpu_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
         \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
         \"peak_rss_mib\": {\"value\": 0.75, \"unit\": \"MiB\"}}}"
    );

    out.fail(1, "fixture");
    assert!(out
        .to_json(&set)
        .unwrap()
        .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));

    out.set("setup_s", f64::NAN);
    assert!(out.to_json(&set).is_err(), "non-finite values are refused");
    out.set("setup_s", 1.0);
    out.set("unexpected", 1.0);
    assert!(out.to_json(&set).is_err(), "extra metrics are refused");
    assert!(
        Outcome::default().to_json(&set).is_err(),
        "missing metrics are refused"
    );
}

#[test]
fn failures_never_exceed_attempts() {
    let mut out = Outcome::default();
    out.attempt(1);
    out.fail(1, "sim");
    out.fail(1, "checksum");
    assert_eq!((out.attempted, out.failed), (1, 1));
    assert!(!out.correct());
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload paper_f32_t1 --seed 7 --seconds 3 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("paper_f32_t1", 7, 3.0, true)
    );
    assert!(
        Args::parse(&argv("--workload paper_f64_t2")).is_ok(),
        "unlisted workloads still run"
    );
    assert!(Args::parse(&argv("--workload nope")).is_err());
    assert!(Args::parse(&argv("--workload paper_f32_t1 --trace 2")).is_err());
    assert!(Args::parse(&argv("--workload paper_f32_t1 --seed")).is_err());
    assert!(Args::parse(&argv("--workload paper_f32_t1 --bogus 1")).is_err());
}

#[test]
fn reference_table_parses_for_every_workload() {
    for name in NAMES.iter().chain(&EXTRA) {
        let r = Reference::parse(REFERENCE_TSV, name).unwrap();
        assert!(
            r.sim_s.is_some_and(|s| s > 0.0),
            "{name}: no simulated seconds recorded"
        );
        let functional = Workload::by_name(name).unwrap().mode == ExecMode::Functional;
        assert_eq!(!r.checksums.is_empty(), functional, "{name}: checksums");
    }
    let r = Reference::parse("w sim 0.5\nw 3 00ff\nother 3 0001\n", "w").unwrap();
    assert_eq!(r.sim_s, Some(0.5));
    assert_eq!(r.checksum(3), Some(0xff));
    assert_eq!(r.checksum(4), None);
    assert!(Reference::parse("w 3 zz\n", "w").is_err());
    assert!(Reference::parse("w 3\n", "w").is_err());
}

/// A small single-device workload for the fixtures below.
fn tiny_single() -> Workload {
    let mut cfg = ModelConfig::mountain_wave(16, 16, 8);
    cfg.threads = 1;
    cfg.simd = Some(true);
    cfg.fault = None;
    cfg.checkpoint_every = 0;
    cfg.guard_every = 0;
    Workload {
        name: "tiny_single",
        cfg,
        precision: Precision::F64,
        mode: ExecMode::Functional,
        driver: Driver::Single,
    }
}

/// A small decomposed workload with checkpoints and guard scans on.
fn tiny_multi() -> Workload {
    let mut w = tiny_single();
    w.name = "tiny_multi";
    w.precision = Precision::F32;
    w.cfg.checkpoint_every = 2;
    w.cfg.guard_every = 1;
    w.driver = Driver::Multi {
        mc: Box::new(MultiGpuConfig {
            local_cfg: w.cfg.clone(),
            px: 2,
            py: 1,
            overlap: OverlapMode::Overlap,
            spec: DeviceSpec::tesla_s1070(),
            net: NetworkSpec::tsubame1_infiniband(),
            mode: ExecMode::Functional,
            steps: 0,
            detailed_profile: false,
        }),
        steps_per_call: 2,
    };
    w
}

fn recorded(w: &Workload, seed: u64) -> Reference {
    let rows = match w.precision {
        Precision::F32 => record::<f32>(w, seed),
        Precision::F64 => record::<f64>(w, seed),
    }
    .unwrap();
    let mut r = Reference::parse(&rows, w.name).unwrap();
    r.checksums.retain(|c| c.0 == seed);
    r
}

#[test]
fn single_run_passes_on_its_reference_and_fails_on_a_corrupted_checksum() {
    let w = tiny_single();
    let good = recorded(&w, 0);
    let out = e2e::run_single::<f64>(&w, 0, 0.01, &good).unwrap();
    assert!(out.correct(), "{out:?}");
    assert!(out.attempted >= 3);

    let mut bad = good.clone();
    bad.checksums[0].1 ^= 1;
    let out = e2e::run_single::<f64>(&w, 0, 0.01, &bad).unwrap();
    assert_eq!(out.failed, 1, "the checked step is reported failed");
    assert!(!out.correct());

    let mut bad_sim = good.clone();
    bad_sim.sim_s = bad_sim.sim_s.map(|s| s * 1.001);
    let out = e2e::run_single::<f64>(&w, 0, 0.01, &bad_sim).unwrap();
    assert_eq!(
        out.failed,
        out.attempted - 1,
        "every step after the first is sim-checked"
    );
}

#[test]
fn decomposed_run_fails_every_step_of_a_call_with_a_corrupted_checksum() {
    let w = tiny_multi();
    let Driver::Multi { mc, steps_per_call } = &w.driver else {
        unreachable!()
    };
    let good = recorded(&w, 3);
    let out = e2e::run_multi_workload::<f32>(&w, mc, *steps_per_call, 3, 0.01, &good).unwrap();
    assert!(out.correct(), "{out:?}");
    assert_eq!(out.attempted, 2 * *steps_per_call as u64);

    let mut bad = good.clone();
    bad.checksums[0].1 ^= 1 << 63;
    let out = e2e::run_multi_workload::<f32>(&w, mc, *steps_per_call, 3, 0.01, &bad).unwrap();
    assert_eq!(out.failed, out.attempted);
}
