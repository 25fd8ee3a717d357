//! The sweep engine's determinism contract: fanning a batch of specs across
//! worker threads changes wall-clock only — every rendered result is
//! byte-identical at any `--jobs` value, across a sweep of three different
//! BMO stacks, and so is each bench binary's output as a process: stdout
//! tables *and* the JSONL metrics sink.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use janus_bench::{run_all_jobs, RunSpec, Variant};
use janus_bmo::BmoStack;
use janus_workloads::Workload;

fn three_stack_sweep() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for stack in ["enc,int,dedup", "enc,ecc", "int"] {
        for variant in [Variant::Serialized, Variant::JanusManual] {
            let mut s = RunSpec::new(Workload::HashTable, variant);
            s.transactions = 12;
            s.bmo_stack = Some(BmoStack::parse(stack).unwrap().members().to_vec());
            specs.push(s);
        }
    }
    specs
}

fn rendered(jobs: usize) -> Vec<String> {
    run_all_jobs(three_stack_sweep(), jobs)
        .iter()
        .map(|r| r.metrics().to_json())
        .collect()
}

#[test]
fn jobs_1_4_8_render_byte_identical_results() {
    let serial = rendered(1);
    assert_eq!(serial.len(), 6);
    assert_eq!(serial, rendered(4), "--jobs 4 diverged from --jobs 1");
    assert_eq!(serial, rendered(8), "--jobs 8 diverged from --jobs 1");
}

#[test]
fn oversubscribed_pool_still_ordered() {
    // More workers than specs: each worker gets at most one item and the
    // result order must still be spec order.
    let serial = rendered(1);
    assert_eq!(serial, rendered(64));
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("janus-jobs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_bin(exe: &str, args: &[&str], jobs: Option<&str>, json_dir: &Path) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    if let Some(n) = jobs {
        cmd.args(["--jobs", n]);
    }
    cmd.env("JANUS_RESULTS_JSON_DIR", json_dir);
    cmd.env_remove("JANUS_JOBS");
    cmd.output().expect("binary runs")
}

fn jsonl(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("json dir exists")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read_to_string(e.path()).expect("readable jsonl"),
            )
        })
        .collect();
    files.sort();
    files
}

/// Serial vs `--jobs 2` vs `--jobs 4`: same stdout and JSONL bytes.
fn assert_jobs_identity(exe: &str, args: &[&str], tag: &str) {
    let serial_dir = scratch(&format!("{tag}-serial"));
    let serial = run_bin(exe, args, None, &serial_dir);
    assert!(serial.status.success(), "serial run failed: {serial:?}");
    assert!(!serial.stdout.is_empty(), "serial run printed nothing");
    let serial_json = jsonl(&serial_dir);
    assert!(!serial_json.is_empty(), "serial run sank no metrics");

    for n in ["2", "4"] {
        let dir = scratch(&format!("{tag}-jobs{n}"));
        let fanned = run_bin(exe, args, Some(n), &dir);
        assert!(
            fanned.status.success(),
            "--jobs {n} failed: {}",
            String::from_utf8_lossy(&fanned.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&fanned.stdout),
            "--jobs {n} stdout diverged from serial"
        );
        assert_eq!(
            serial_json,
            jsonl(&dir),
            "--jobs {n} JSONL diverged from serial"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&serial_dir);
}

#[test]
fn janus_cli_grid_is_byte_identical_across_job_counts() {
    assert_jobs_identity(
        env!("CARGO_BIN_EXE_janus-cli"),
        &[
            "--workload",
            "tatp,hash_table",
            "--variant",
            "serialized,janus-manual",
            "--tx",
            "16",
        ],
        "cli-grid",
    );
}

#[test]
fn janus_fig_is_byte_identical_across_job_counts() {
    assert_jobs_identity(
        env!("CARGO_BIN_EXE_janus-fig"),
        &["fig10", "--tx", "8"],
        "fig10",
    );
}

#[test]
fn multicore_open_loop_is_byte_identical_across_job_counts() {
    // The open-loop multi-tenant front end carries per-tenant report
    // sections.
    assert_jobs_identity(
        env!("CARGO_BIN_EXE_janus-fig"),
        &["multicore", "--tx", "8"],
        "multicore",
    );
}
