//! The figure registry and its `janus-fig` driver: every entry runs end to
//! end, names are unique, `--list` is the registry, and malformed shared
//! arguments are usage errors (exit status 2) rather than silent defaults.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use janus_bench::figures;

fn janus_fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_janus-fig"))
        .args(args)
        .env_remove("JANUS_RESULTS_JSON_DIR")
        .env_remove("JANUS_JOBS")
        .env_remove("JANUS_SHARDS")
        .output()
        .expect("janus-fig runs")
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

#[test]
fn malformed_shared_values_are_usage_errors() {
    for args in [
        ["table1", "--tx", "abc"],
        ["table1", "--tx", "0"],
        ["table1", "--jobs", "abc"],
        ["table1", "--jobs", "0"],
        ["table1", "--shards", "0"],
        ["table1", "--shards", "-3x"],
    ] {
        let out = janus_fig(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        assert!(out.stdout.is_empty(), "{args:?} printed a table anyway");
    }
}

#[test]
fn unknown_figure_or_argument_is_a_usage_error() {
    for args in [
        &["fig99"][..],
        &[],
        &["table1", "--bogus"],
        &["--list", "x"],
    ] {
        let out = janus_fig(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
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
            .env_remove("JANUS_SHARDS")
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
