//! Runs the `vwbench` binary at its test size and checks its contract
//! with `BENCHMARK.json`: names, units, exact counts, output checks.

use std::collections::BTreeMap;
use std::process::Command;

use vw_trace::Json;

/// One run: the parsed result line and the `digest …` line from stderr.
struct Run {
    correct: bool,
    failed: f64,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
    digest: String,
}

fn vwbench(workload: &str, seed: u64, trace: u8) -> Run {
    let dir = std::env::temp_dir().join(format!("vwbench-test-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_vwbench"))
        .args(["--quick", "--seconds", "0", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--trace-dir")
        .arg(&dir)
        .output()
        .expect("vwbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{workload} seed {seed}: {stderr}");
    if trace == 1 {
        let spans = std::fs::read_to_string(dir.join(format!("{workload}.trace.json")))
            .expect("the traced pass writes its spans");
        assert!(vw_trace::validate_chrome_json(&spans).expect("loadable trace") > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line).expect("the last line is JSON");
    let obj = doc.as_obj().expect("an object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(obj["attempted"].as_num().expect("a number") >= 1.0);
    let metrics = obj["metrics"]
        .as_obj()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let m = m.as_obj().expect("metric object");
            let keys: Vec<&str> = m.keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"], "{name}");
            let value = m["value"].as_num().expect("numeric value");
            (
                name.clone(),
                (value, m["unit"].as_str().expect("unit").to_string()),
            )
        })
        .collect();
    Run {
        correct: matches!(obj["correct"], Json::Bool(true)),
        failed: obj["failed"].as_num().expect("a number"),
        metrics,
        digest: stderr
            .lines()
            .find(|l| l.starts_with("digest "))
            .expect("a digest line")
            .to_string(),
    }
}

/// `BENCHMARK.json` as `(workload names, end_to_end, per_layer)`, the
/// metric lists as name -> unit.
fn spec() -> (
    Vec<String>,
    BTreeMap<String, String>,
    BTreeMap<String, String>,
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let obj = doc.as_obj().expect("an object");
    let names = |key: &str| -> Vec<(String, String)> {
        obj[key]
            .as_arr()
            .expect("an array")
            .iter()
            .map(|e| {
                let e = e.as_obj().expect("an object");
                let name = e["name"].as_str().expect("name").to_string();
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(name.chars().all(ok) && name.len() <= 64, "{name}");
                let unit = e.get("unit").and_then(Json::as_str).unwrap_or("");
                (name, unit.to_string())
            })
            .collect()
    };
    (
        names("workloads").into_iter().map(|(n, _)| n).collect(),
        names("end_to_end").into_iter().collect(),
        names("per_layer").into_iter().collect(),
    )
}

fn units(run: &Run) -> BTreeMap<String, String> {
    run.metrics
        .iter()
        .map(|(name, (_, unit))| (name.clone(), unit.clone()))
        .collect()
}

#[test]
fn every_workload_reports_exactly_the_end_to_end_metrics_of_benchmark_json() {
    let (workloads, end_to_end, _) = spec();
    assert_eq!(workloads.len(), 6);
    for workload in &workloads {
        let run = vwbench(workload, 1, 0);
        assert!(run.correct && run.failed == 0.0, "{workload}");
        assert_eq!(units(&run), end_to_end, "{workload}");
        for (name, (value, _)) in &run.metrics {
            assert!(*value > 0.0, "{workload} {name} must never be 0");
        }
    }
}

#[test]
fn the_traced_pass_reports_exactly_the_per_layer_metrics_and_agrees_with_the_untraced() {
    let (_, _, per_layer) = spec();
    // `correct` covers traced-vs-untraced equality of digest, frames,
    // events and simulated time, the seed-1 pin, and >= 95% attribution.
    let run = vwbench("fault_storm", 1, 1);
    assert!(run.correct && run.failed == 0.0);
    assert_eq!(units(&run), per_layer);
    assert!(run.metrics["phase.attributed_share"].0 >= 0.95);
    assert!(run.metrics["core.control_frames"].0 > 0.0);
    assert_eq!(run.metrics["paper.fig7_loss_pct"].1, "%");
}

#[test]
fn exact_counts_repeat_from_run_to_run() {
    for workload in ["tower_tcp_lossy", "campaign_sweep"] {
        let (a, b) = (vwbench(workload, 1, 0), vwbench(workload, 1, 0));
        assert_eq!(a.digest, b.digest, "{workload}");
        for name in ["events_per_frame", "allocs_per_frame", "peak_heap_bytes"] {
            assert_eq!(a.metrics[name].0, b.metrics[name].0, "{workload} {name}");
        }
    }
}

#[test]
fn the_seed_reaches_the_inputs() {
    let (one, two) = (
        vwbench("tower_tcp_lossy", 1, 0),
        vwbench("tower_tcp_lossy", 2, 0),
    );
    assert_ne!(one.digest, two.digest);
    assert_ne!(
        one.metrics["events_per_frame"].0,
        two.metrics["events_per_frame"].0
    );
}
