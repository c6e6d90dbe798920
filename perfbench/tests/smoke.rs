//! Smoke test of the benchmark itself: every workload at a tiny size,
//! untraced and traced, twice each. Checks that the printed metric names
//! are exactly those `BENCHMARK.json` declares and that the deterministic
//! counters repeat exactly from one process to the next.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The tiny dataset size each workload runs at here.
const TINY: [(&str, usize); 2] = [("mq_remote", 1_000), ("pq_segment", 3_000)];

/// Counters that must read the same in every run of the same inputs.
const EXACT: [&str; 5] = [
    "query_cost",
    "round_trips",
    "codec.bytes_per_round_trip",
    "knowledge.tuples_ingested",
    "db.tuples_returned",
];

fn target_dir() -> PathBuf {
    let bin = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    bin.ancestors()
        .nth(2)
        .expect("the binary sits in <target>/<profile>/")
        .to_path_buf()
}

/// The `"name"` values inside the JSON array under `key` of `json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    let mut names = Vec::new();
    let mut rest = &json[open..close];
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i + 6..];
        let q = rest.find('"').expect("name value");
        let end = q + 1 + rest[q + 1..].find('"').expect("closing quote");
        names.push(rest[q + 1..end].to_string());
        rest = &rest[end + 1..];
    }
    names
}

/// The metrics of the result line: name -> value.
fn metrics(line: &str) -> BTreeMap<String, f64> {
    let body = &line[line.find("\"metrics\"").expect("metrics key")..];
    let mut out = BTreeMap::new();
    let mut rest = &body[body.find('{').expect("metrics object") + 1..];
    while let Some(q) = rest.find('"') {
        let end = q + 1 + rest[q + 1..].find('"').expect("closing quote");
        let name = rest[q + 1..end].to_string();
        let v = rest.find("\"value\": ").expect("value") + 9;
        let vend = v + rest[v..].find(',').expect("unit follows value");
        out.insert(name, rest[v..vend].parse().expect("numeric value"));
        rest = &rest[rest.find('}').expect("metric object end") + 1..];
        if rest.starts_with('}') {
            break;
        }
    }
    out
}

fn run(workload: &str, n: usize, trace: u8) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--n", &n.to_string(), "--trace", &trace.to_string()])
        .env("CARGO_TARGET_DIR", target_dir())
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    metrics(last)
}

fn check(workload: &str) {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&manifest).expect("BENCHMARK.json at the repository root");
    let n = TINY
        .iter()
        .find(|(w, _)| *w == workload)
        .expect("a tiny size")
        .1;
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let first = run(workload, n, trace);
        let second = run(workload, n, trace);
        let printed: Vec<&String> = first.keys().collect();
        let mut declared = names_under(&json, key);
        declared.sort();
        assert_eq!(
            printed,
            declared.iter().collect::<Vec<_>>(),
            "{workload} {key}"
        );
        for name in EXACT {
            if let (Some(a), Some(b)) = (first.get(name), second.get(name)) {
                assert_eq!(a, b, "{workload}: {name} must repeat exactly");
            }
        }
        if let (Some(a), Some(b)) = (
            first.get("segment.cache_misses"),
            second.get("segment.cache_misses"),
        ) {
            println!(
                "{workload}: segment.cache_misses {a} then {b} (repeats: {})",
                a == b
            );
        }
    }
}

#[test]
fn every_listed_workload_is_smoke_tested() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&manifest).expect("BENCHMARK.json at the repository root");
    for w in names_under(&json, "workloads") {
        assert!(TINY.iter().any(|(t, _)| *t == w), "{w} has no smoke test");
    }
}

#[test]
fn mq_remote() {
    check("mq_remote");
}

#[test]
fn pq_segment() {
    check("pq_segment");
}
