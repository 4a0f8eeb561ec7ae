//! Runs every workload at `dp_tiny` size, traced and untraced, and
//! checks the result line: the contract's keys, no failed operation, and
//! exactly the metrics `BENCHMARK.json` names, each with its unit.

use sdp_json::Json;
use std::path::PathBuf;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    sdp_json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .expect("list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(dir: &PathBuf, workload: &str, trace: u8) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sdp-perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--preset", "dp_tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    (sdp_json::parse(last).expect("result line is JSON"), stdout)
}

#[test]
fn every_workload_emits_every_named_metric() {
    let m = manifest();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let workloads: Vec<String> = m
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["flow_large", "route_congested", "serve_mixed"]);
    for w in &workloads {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let (result, stdout) = run(&dir, w, trace);
            let keys: Vec<&String> = result.as_obj().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let expected = names(&m, key);
            assert_eq!(metrics.len(), expected.len(), "{w} trace {trace}");
            for (name, unit) in expected {
                let v = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert!(v
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite));
                assert_eq!(v.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
        // The traced run wrote its spans: phases and GP outer iterations.
        let trace = std::fs::read_to_string(dir.join(format!(".perfbench_traces/{w}-seed1.json")))
            .expect("trace file");
        for span in [
            "\"flow\"",
            "\"extract\"",
            "\"global\"",
            "\"gp.pass\"",
            "\"gp.outer\"",
        ] {
            assert!(trace.contains(span), "{w}: no {span} span");
        }
    }
    // Work directories are cleaned up.
    let left = std::fs::read_dir(dir.join(".perfbench_work")).map_or(0, |d| d.count());
    assert_eq!(left, 0);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serve_mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serve_mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "serve_mixed", "--seed", "1", "--trace", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sdp-perfbench"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
