//! Smoke run of the `vbbench` executable: every workload, untraced and
//! traced, at one second each. The result line must carry exactly the
//! metrics `BENCHMARK.json` declares for the mode, with no failed study.

use std::process::Command;
use vb_telemetry::Json;

const WORKLOADS: [&str; 4] = ["table1", "fleet_greedy", "fleet_mip", "site_cluster"];

/// The metric names BENCHMARK.json lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// One run's result line, parsed.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_vbbench"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("vbbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    // One thread per workload keeps the smoke run short.
    std::thread::scope(|scope| {
        for workload in WORKLOADS {
            let (end_to_end, per_layer) = (&end_to_end, &per_layer);
            scope.spawn(move || {
                for (trace, names) in [("0", end_to_end), ("1", per_layer)] {
                    let result = run(workload, trace);
                    let tag = format!("{workload} --trace {trace}: {}", result.emit());
                    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{tag}");
                    assert_eq!(
                        result.get("failed").and_then(Json::as_u64),
                        Some(0),
                        "{tag}"
                    );
                    assert!(
                        result.get("attempted").and_then(Json::as_u64) >= Some(1),
                        "{tag}"
                    );
                    let Some(Json::Obj(metrics)) = result.get("metrics") else {
                        panic!("{tag}: no metrics");
                    };
                    let got: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
                    assert_eq!(got, names.iter().collect::<Vec<_>>(), "{tag}");
                    for (name, m) in metrics {
                        let v = m.get("value").and_then(Json::as_f64).expect("a value");
                        assert!(v.is_finite(), "{tag}: {name}");
                        if trace == "0" {
                            assert!(v > 0.0, "{tag}: {name} must never be 0");
                        }
                    }
                }
            });
        }
    });
}
