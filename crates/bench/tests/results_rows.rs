//! The committed `results/json/*.jsonl` rows describe their own runs: every
//! row's `spec.*` labels read back into a `RunSpec` that writes the same
//! labels byte for byte, no two rows of a file share a label set, and the
//! first and last rows of each file replay to their whole line.

use std::collections::BTreeSet;
use std::path::PathBuf;

use janus_bench::{run_all_jobs, RunSpec};
use janus_trace::json::{self, Value};
use janus_trace::{MetricValue, MetricsRegistry};

/// Every committed results file as (name, lines).
fn committed() -> Vec<(String, Vec<String>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/json");
    let mut files: Vec<(String, Vec<String>)> = std::fs::read_dir(&dir)
        .expect("results/json exists")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let body = std::fs::read_to_string(&path).expect("readable jsonl");
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, body.lines().map(str::to_string).collect())
        })
        .collect();
    files.sort();
    assert!(files.len() >= 10, "expected the committed results files");
    files
}

/// A row as a registry: whole numbers become `U64`, other numbers `Float`
/// (both serialize to the same JSON text).
fn registry(line: &str) -> MetricsRegistry {
    let Ok(Value::Object(members)) = json::parse(line) else {
        panic!("row is not a JSON object: {line}");
    };
    let mut m = MetricsRegistry::new();
    for (name, v) in members {
        let v = match v {
            Value::Number(x) if x.fract() == 0.0 && x >= 0.0 => MetricValue::U64(x as u64),
            Value::Number(x) => MetricValue::Float(x),
            Value::String(s) => MetricValue::Str(s),
            other => panic!("{name}: unexpected value {other:?}"),
        };
        m.set(name, v);
    }
    m
}

fn spec_of(file: &str, line: &str) -> RunSpec {
    RunSpec::from_labels(&registry(line)).unwrap_or_else(|e| panic!("{file}: {e}: {line}"))
}

#[test]
fn every_row_reads_back_to_its_own_labels() {
    for (file, lines) in committed() {
        for line in &lines {
            let labels = spec_of(&file, line).labels().to_json();
            // The labels lead each row, so they are a prefix of its text.
            let prefix = &labels[..labels.len() - 1];
            assert!(
                line.starts_with(prefix) && line[prefix.len()..].starts_with(','),
                "{file}: labels {labels} do not lead {line}"
            );
        }
    }
}

#[test]
fn each_row_of_a_file_has_its_own_label_set() {
    for (file, lines) in committed() {
        let sets: BTreeSet<String> = lines
            .iter()
            .map(|l| spec_of(&file, l).labels().to_json())
            .collect();
        assert_eq!(sets.len(), lines.len(), "{file}: rows share a label set");
    }
}

#[test]
fn first_and_last_rows_replay_byte_for_byte() {
    let mut specs = Vec::new();
    let mut expected = Vec::new();
    for (file, lines) in committed() {
        for line in [lines.first(), lines.last()].into_iter().flatten() {
            specs.push(spec_of(&file, line));
            expected.push((file.clone(), line.clone()));
        }
    }
    for (r, (file, line)) in run_all_jobs(specs, 2).iter().zip(&expected) {
        assert_eq!(&r.metrics().to_json(), line, "{file}: replay diverged");
    }
}
