//! The figure registry and its `janus-fig` driver: every entry runs end to
//! end, names are unique, `--list` is the registry, and malformed shared
//! arguments, zero counts and out-of-range knobs are usage errors (exit
//! status 2) rather than silent defaults or panics, in `janus-fig` and the
//! other bench binaries, and an unwritable output path is an error (exit
//! status 1), not a panic.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use janus_bench::figures;

/// Runs a bench binary with the JSONL sink off and `JANUS_JOBS` set to
/// `jobs_env` (unset when `None`).
fn run_bin(exe: &str, args: &[&str], jobs_env: Option<&str>) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env_remove("JANUS_RESULTS_JSON_DIR")
        .env_remove("JANUS_JOBS");
    if let Some(v) = jobs_env {
        cmd.env("JANUS_JOBS", v);
    }
    cmd.output().expect("binary runs")
}

fn janus_fig(args: &[&str]) -> Output {
    run_bin(env!("CARGO_BIN_EXE_janus-fig"), args, None)
}

#[test]
fn every_figure_renders_at_tx_4() {
    for fig in figures::ALL {
        let out = janus_fig(&[fig.name, "--tx", "4", "--jobs", "2"]);
        assert!(
            out.status.success(),
            "{} --tx 4 failed: {}",
            fig.name,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{} printed nothing", fig.name);
    }
}

#[test]
fn figure_names_are_unique() {
    let names: BTreeSet<&str> = figures::ALL.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), figures::ALL.len(), "duplicate figure name");
    for fig in figures::ALL {
        assert!(std::ptr::eq(figures::find(fig.name).unwrap(), fig));
    }
}

#[test]
fn list_prints_exactly_the_registry() {
    let out = janus_fig(&["--list"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .map(str::to_string)
        .collect();
    let registry: Vec<String> = figures::ALL.iter().map(|f| f.name.to_string()).collect();
    assert_eq!(listed, registry);
}

/// Runs `exe` and asserts a usage error: exit status 2, nothing on stdout,
/// and `needle` in the stderr message.
fn assert_usage_error(exe: &str, args: &[&str], jobs_env: Option<&str>, needle: &str) {
    let out = run_bin(exe, args, jobs_env);
    let what = format!("{exe} {args:?} (JANUS_JOBS={jobs_env:?})");
    assert_eq!(out.status.code(), Some(2), "{what} must be a usage error");
    assert!(out.stdout.is_empty(), "{what} printed output anyway");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{what}: {stderr}");
}

#[test]
fn malformed_shared_values_are_usage_errors() {
    let fig = env!("CARGO_BIN_EXE_janus-fig");
    let cli = env!("CARGO_BIN_EXE_janus-cli");
    let prof = env!("CARGO_BIN_EXE_janus-prof");
    let lint = env!("CARGO_BIN_EXE_janus-lint");
    let cases: &[(&str, &[&str], Option<&str>)] = &[
        (fig, &["table1", "--tx", "abc"], None),
        (fig, &["table1", "--tx", "0"], None),
        (fig, &["table1", "--jobs", "abc"], None),
        (fig, &["table1", "--jobs", "0"], None),
        // The `JANUS_JOBS` fallback follows the `--jobs` rule.
        (fig, &["table1"], Some("abc")),
        (fig, &["table1"], Some("0")),
        (fig, &["table1"], Some("")),
        (cli, &["--workload", "tatp,queue"], Some("-2")),
        (cli, &["--tx", "abc"], None),
        (cli, &["--scale", "abc"], None),
        // Zero counts.
        (cli, &["--cores", "0"], None),
        (cli, &["--tx", "0"], None),
        (cli, &["--scale", "0"], None),
        (cli, &["--tenants", "0"], None),
        (prof, &["--cores", "0"], None),
        (prof, &["--tx", "0"], None),
        (prof, &["--sample", "0"], None),
        (lint, &["--tx", "0"], None),
        (lint, &["--tenants", "0"], None),
        (lint, &["--tenants", "abc"], None),
    ];
    for &(exe, args, jobs_env) in cases {
        assert_usage_error(exe, args, jobs_env, "positive integer");
    }
}

/// `janus-cli`'s other numeric knobs: malformed values and values outside
/// the range the workload code accepts are usage errors, not panics.
#[test]
fn malformed_or_out_of_range_knobs_are_usage_errors() {
    let cli = env!("CARGO_BIN_EXE_janus-cli");
    let cases: &[(&[&str], &str)] = &[
        (&["--size", "abc"], "unsigned integer"),
        (&["--seed", "-1"], "unsigned integer"),
        (&["--dedup", "abc"], "a number"),
        (&["--dedup", "1.5"], "--dedup requires a value in"),
        (&["--dedup", "-1"], "--dedup requires a value in"),
        (&["--dedup", "nan"], "--dedup requires a value in"),
        (&["--skew", "-2"], "--skew requires a value in"),
        (&["--skew", "1"], "--skew requires a value in"),
        (&["--skew", "nan"], "--skew requires a value in"),
        (&["--aux", "2"], "--aux requires a value in"),
        (&["--aux", "nan"], "--aux requires a value in"),
        // Every entry of a list is checked.
        (&["--workload", "tatp,bogus"], "unknown workload \"bogus\""),
        (&["--variant", "janus,"], "unknown variant \"\""),
        (&["--mix", "queue,bogus"], "unknown workload \"bogus\""),
        (&["--arrival", "poisson"], "bad arrival spec"),
    ];
    for &(args, needle) in cases {
        assert_usage_error(cli, args, None, needle);
    }
}

/// An output path that cannot be created is reported as an error (exit 1)
/// naming the path, not a panic.
#[test]
fn unwritable_output_paths_are_errors() {
    // A path below a regular file can never be created.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x.txt");
    let prof = env!("CARGO_BIN_EXE_janus-prof");
    for flag in ["--out", "--json", "--chrome"] {
        let out = run_bin(prof, &["--tx", "4", flag, bad], None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot write {bad}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn unknown_figure_or_argument_is_a_usage_error() {
    let fig = env!("CARGO_BIN_EXE_janus-fig");
    for (exe, args) in [
        (fig, &["fig99"][..]),
        (fig, &[]),
        (fig, &["table1", "--bogus"]),
        (fig, &["--list", "x"]),
        // `--jobs` is the only fan-out flag; there is no process-level one.
        (fig, &["fig9", "--shards", "2"]),
        // Ad-hoc pins of a committed grid are `janus-cli` runs.
        (fig, &["multicore", "--tenants", "4"]),
        // Causal profiles come from `janus-prof --out`, one spec at a time.
        (env!("CARGO_BIN_EXE_janus-cli"), &["--profile", "x"]),
        (
            env!("CARGO_BIN_EXE_janus-prof"),
            &["--variant", "janus,auto"],
        ),
    ] {
        let out = run_bin(exe, args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} printed output anyway");
    }
}

/// Every binary that takes a variant reads it through `Variant`'s one
/// vocabulary: each accepts the spellings the others did.
#[test]
fn every_binary_accepts_the_shared_variant_vocabulary() {
    for (exe, args) in [
        (
            env!("CARGO_BIN_EXE_janus-cli"),
            &["--variant", "janus-manual"][..],
        ),
        (
            env!("CARGO_BIN_EXE_janus-cli"),
            &["--variant", "janus", "--workload", "queue,tatp"],
        ),
        (env!("CARGO_BIN_EXE_janus-prof"), &["--variant", "pgo"]),
    ] {
        let out = run_bin(exe, &[args, &["--tx", "4"]].concat(), None);
        assert!(
            out.status.success(),
            "{exe} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn jsonl_sink_is_named_after_the_figure() {
    let dir = std::env::temp_dir().join(format!("janus-fig-sink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for name in ["fig10", "table1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_janus-fig"))
            .args([name, "--tx", "4"])
            .env("JANUS_RESULTS_JSON_DIR", &dir)
            .output()
            .expect("janus-fig runs");
        assert!(out.status.success(), "{name} failed");
    }
    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("sink created the directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files, ["fig10.jsonl"], "only spec-running entries export");
    let body = std::fs::read_to_string(dir.join("fig10.jsonl")).unwrap();
    let fig10 = figures::find("fig10").unwrap();
    assert_eq!(body.lines().count(), (fig10.specs)(4).len());
    std::fs::remove_dir_all(&dir).unwrap();
}
