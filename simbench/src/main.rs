//! `simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints readable lines, a `meta` line and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Spans of a traced run go
//! to `out/spans-<workload>-seed<N>.jsonl` in the benchmark's directory.
//! Without `--workload` every workload runs, each in its own process (the
//! peak-memory metric is per process).

use std::process::ExitCode;

use janus_simbench::measure::{measure, Options};
use janus_simbench::report::render;
use janus_simbench::suite::{Bench, Size};

const USAGE: &str =
    "usage: simbench [--workload tatp_manual|btree_auto|open_mix|fig9_sweep] [--seed N] [--seconds S] [--trace 0|1]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut bench, mut seed, mut seconds, mut trace) = (None, 42, 25.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => Bench::parse(value).map(|b| bench = Some(b)).is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|v| seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown argument {flag:?}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }

    let Some(bench) = bench else {
        return run_all(&args);
    };
    let opts = Options {
        bench,
        seed,
        seconds,
        trace,
        size: Size::Full,
    };
    let outcome = measure(&opts);
    if trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{seed}.jsonl", bench.name()));
        if let Err(e) = outcome.spans.write_jsonl(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    println!("{}", render(&opts, &outcome));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        return usage("cannot locate the benchmark executable");
    };
    let mut all_ok = true;
    for bench in Bench::ALL {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", bench.name()])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
