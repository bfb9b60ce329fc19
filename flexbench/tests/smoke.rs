//! Runs `flexbench --smoke` over every workload, untraced and traced,
//! and checks that each workload `BENCHMARK.json` declares is run and
//! that every run reports exactly the metrics it declares, with the
//! declared units: the contract file and the binary cannot drift apart.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use flexvec_serve::json::{self, Json};

/// `(name, unit)` of every entry in one of the contract's metric lists.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    let Some(Json::Arr(entries)) = spec.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    entries
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in one result object.
fn reported(result: &Json) -> BTreeMap<String, String> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("result has no metrics: {result}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_declared_workload_and_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("report.json");
    let status = Command::new(env!("CARGO_BIN_EXE_flexbench"))
        .args(["--smoke", "--seed", "7", "--trace", "1", "--out"])
        .arg(&report_path)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("run flexbench");
    assert!(status.success(), "flexbench --smoke failed: {status}");
    let report = json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.get("correct").and_then(Json::as_bool), Some(true));

    let e2e = declared(&spec, "end_to_end");
    let layers = declared(&spec, "per_layer");
    let Some(Json::Arr(declared_workloads)) = spec.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let Some(Json::Obj(ran)) = report.get("workloads") else {
        panic!("the report has no workloads");
    };
    assert!(!declared_workloads.is_empty());
    for w in declared_workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert!(ran.contains_key(name), "no output for workload {name}");
    }
    // Every workload the binary runs, bounded or not, reports the
    // contract's metrics.
    for (name, entry) in ran {
        let Some(Json::Arr(runs)) = entry.get("runs") else {
            panic!("{name}: no untraced run");
        };
        assert_eq!(reported(&runs[0]), e2e, "{name}: end-to-end metrics");
        let traced = entry.get("traced").expect("traced run");
        assert_eq!(reported(traced), layers, "{name}: per-layer metrics");
        let spans = dir.join(format!("flexbench/out/spans-{name}-7.json"));
        let spans = json::parse(&std::fs::read_to_string(&spans).unwrap()).unwrap();
        assert!(
            matches!(spans.get("self_time"), Some(Json::Obj(t)) if !t.is_empty()),
            "{name}: span file has a self-time table"
        );
    }
}
