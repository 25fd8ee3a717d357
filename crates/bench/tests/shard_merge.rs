//! Process-level contract of the sharded sweep coordinator: a figure
//! binary's output — stdout tables *and* the JSONL metrics sink — is
//! byte-identical whether the spec grid runs in one process or fans out
//! across `--shards N` worker processes, and a corrupted shard file fails
//! the merge loudly (exit 2) instead of publishing a partial sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("janus-shard-merge-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(exe: &str, args: &[&str], shards: Option<&str>, json_dir: &Path) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    if let Some(n) = shards {
        cmd.args(["--shards", n]);
    }
    cmd.env("JANUS_RESULTS_JSON_DIR", json_dir);
    cmd.env_remove("JANUS_SHARDS");
    cmd.env_remove("JANUS_SHARD_CORRUPT");
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

/// Serial vs `--shards 2` vs `--shards 4`: same bytes everywhere.
fn assert_shard_identity(exe: &str, args: &[&str], tag: &str) {
    let serial_dir = scratch(&format!("{tag}-serial"));
    let serial = run(exe, args, None, &serial_dir);
    assert!(serial.status.success(), "serial run failed: {serial:?}");
    assert!(!serial.stdout.is_empty(), "serial run printed nothing");
    let serial_json = jsonl(&serial_dir);
    assert!(!serial_json.is_empty(), "serial run sank no metrics");

    for n in ["2", "4"] {
        let dir = scratch(&format!("{tag}-shards{n}"));
        let sharded = run(exe, args, Some(n), &dir);
        assert!(
            sharded.status.success(),
            "--shards {n} failed: {}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&serial.stdout),
            String::from_utf8_lossy(&sharded.stdout),
            "--shards {n} stdout diverged from serial"
        );
        assert_eq!(
            serial_json,
            jsonl(&dir),
            "--shards {n} JSONL diverged from serial"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&serial_dir);
}

#[test]
fn janus_sweep_is_byte_identical_across_shard_counts() {
    assert_shard_identity(
        env!("CARGO_BIN_EXE_janus-sweep"),
        &[
            "--workloads",
            "tatp,hash_table",
            "--variants",
            "serialized,janus-manual",
            "--tx",
            "16",
        ],
        "sweep",
    );
}

#[test]
fn janus_fig_is_byte_identical_across_shard_counts() {
    assert_shard_identity(
        env!("CARGO_BIN_EXE_janus-fig"),
        &["fig10", "--tx", "8"],
        "fig10",
    );
}

#[test]
fn multicore_open_loop_is_byte_identical_across_shard_counts() {
    // The open-loop multi-tenant front end exercises the tenant-report
    // section of the shard codec; pin one dimension so the sweep stays
    // small (3 policies x 2 arrival rates = 6 specs).
    assert_shard_identity(
        env!("CARGO_BIN_EXE_multicore"),
        &["--tenants", "4", "--cores", "2", "--tx", "8"],
        "multicore",
    );
}

#[test]
fn corrupted_shard_fails_the_merge_with_exit_2() {
    let dir = scratch("redpath");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_janus-sweep"));
    cmd.args([
        "--workloads",
        "tatp",
        "--variants",
        "serialized,janus-manual",
        "--tx",
        "8",
        "--shards",
        "2",
    ]);
    cmd.env("JANUS_SHARD_CORRUPT", "1");
    cmd.env("JANUS_RESULTS_JSON_DIR", &dir);
    let out = cmd.output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "torn shard must fail the merge: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shard merge failed"),
        "stderr names the failure"
    );
    assert!(
        jsonl(&dir).iter().all(|(_, body)| body.is_empty()),
        "no metrics published from a failed merge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
