//! Black-box tests for the `janus-lint` binary: flag validation, `--fix`
//! determinism and exit codes, the `--dry-run` unified diff, and the
//! `--tenants` IRB-bound section. The red path of the `--fix` gates is
//! tested on the library function, `janus_instrument::misuse::gate_fix`.

use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_janus-lint"))
        .args(args)
        .output()
        .expect("spawn janus-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_flag_exits_2() {
    for args in [
        &["--bogus"][..],
        &["--fix", "--frobnicate"][..],
        &["--tenant", "4"][..], // near-miss of --tenants
    ] {
        let out = lint(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown"),
            "args {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn seeded_fix_lints_clean_and_is_byte_deterministic() {
    let args = ["--workload", "queue", "--tx", "6", "--seeded", "--fix"];
    let a = lint(&args);
    assert_eq!(
        a.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&a.stderr)
    );
    let text = stdout(&a);
    assert!(text.contains("fixed: errors=0"), "{text}");
    assert!(text.contains("fix["), "{text}");
    assert!(text.contains("total: 0 errors"), "{text}");

    let b = lint(&args);
    assert_eq!(stdout(&b), text, "--fix output diverged between runs");

    // The engine is single-threaded deterministic: a worker-count hint in
    // the environment must not change a byte.
    let c = Command::new(env!("CARGO_BIN_EXE_janus-lint"))
        .args(args)
        .env("JANUS_JOBS", "3")
        .output()
        .expect("spawn janus-lint");
    assert_eq!(stdout(&c), text, "JANUS_JOBS changed --fix output");
}

#[test]
fn dry_run_prints_a_unified_diff_and_rewrites_nothing() {
    let args = [
        "--workload",
        "queue",
        "--tx",
        "4",
        "--seeded",
        "--fix",
        "--dry-run",
    ];
    let text = stdout(&lint(&args));
    assert!(text.contains("--- queue/before"), "{text}");
    assert!(text.contains("+++ queue/after"), "{text}");
    assert!(text.contains("@@ -"), "{text}");
    assert!(
        text.contains("-pre_both obj=4294967295"),
        "the seeded hint must show as removed: {text}"
    );
    assert_eq!(stdout(&lint(&args)), text, "--dry-run not deterministic");
}

#[test]
fn json_fix_report_is_stable_and_sorted() {
    let args = [
        "--workload",
        "queue",
        "--tx",
        "4",
        "--seeded",
        "--fix",
        "--json",
    ];
    let a = stdout(&lint(&args));
    assert!(a.contains("\"fix\""), "{a}");
    assert!(a.contains("\"applied\""), "{a}");
    assert_eq!(stdout(&lint(&args)), a, "JSON output diverged between runs");
}

#[test]
fn tenant_flags_are_validated() {
    for args in [
        &["--tenants", "0"][..],
        &["--tenants", "2", "--irb-policy", "bogus"],
        // A policy only shapes the tenant bound; alone it would be ignored.
        &["--irb-policy", "banked:8"],
    ] {
        let out = lint(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?} printed output anyway");
    }
}

#[test]
fn tenant_bound_section_prints_per_tenant_demands() {
    let out = lint(&[
        "--workload",
        "queue",
        "--tx",
        "4",
        "--instr",
        "manual",
        "--tenants",
        "2",
        "--irb-policy",
        "banked:8",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("tenant 0"), "{text}");
    assert!(text.contains("tenant 1"), "{text}");
    assert!(text.contains("verdict:"), "{text}");
    assert_eq!(
        stdout(&lint(&[
            "--workload",
            "queue",
            "--tx",
            "4",
            "--instr",
            "manual",
            "--tenants",
            "2",
            "--irb-policy",
            "banked:8",
        ])),
        text,
        "tenant section not deterministic"
    );
}
