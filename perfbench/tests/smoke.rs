//! Tiny-size smoke test: every workload, untraced and traced, emits
//! exactly the metrics `BENCHMARK.json` names, each with its unit, and
//! passes its output checks.

#[allow(dead_code)] // the test reads JSON; it writes none
#[path = "../src/json.rs"]
mod json;

use json::Json;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(bench: &Json, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["region_busy", "tree_incast", "lake_scan"]);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}"
            );
            let result =
                Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
            let keys: Vec<&String> = result.as_obj().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object");
            let want = declared(&bench, section);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} {section}: {:?}",
                metrics.keys()
            );
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} misses {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}
