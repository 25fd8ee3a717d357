//! Shared command-line parsing for the bench binaries.
//!
//! Every bench binary takes `--name value` pairs from `std::env::args`. The
//! strict validator ([`require_known_args`]) makes a typo a hard usage error
//! (exit status 2) instead of a silently default-configured "result", and
//! [`SweepArgs::parse`] reads the sweep options every spec-running binary
//! shares.

use std::fmt;
use std::ops::RangeBounds;

use crate::RunSpec;

/// Reads the value following `--name`, if present.
pub fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether the bare flag `--name` is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Reads `--name value` as a string, with a default.
pub fn arg_str(name: &str, default: &str) -> String {
    arg(name).unwrap_or_else(|| default.to_string())
}

/// Reads `--name value` from the process arguments, with a default.
///
/// A flag that is present but followed by a missing or unparseable value is
/// a hard usage error: the process exits with status 2 rather than
/// silently running the experiment with the default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    parse_arg(name, "an unsigned integer").unwrap_or(default)
}

/// [`arg_usize`] for counts that must be at least 1 (`--tx`, `--jobs`,
/// `--cores`, ...): `None` when absent, and a zero value is a usage error
/// too.
pub fn arg_positive(name: &str) -> Option<usize> {
    let what = "a positive integer";
    match parse_arg(name, what) {
        Some(0) => usage_error(&format!("{name} requires {what} value")),
        n => n,
    }
}

/// [`arg_usize`] for `u64` values (seeds, cycle counts).
pub fn arg_u64(name: &str, default: u64) -> u64 {
    parse_arg(name, "an unsigned integer").unwrap_or(default)
}

/// Reads `--name value` as a floating-point value that must lie in `range`
/// (ratios, skew parameters): `None` when absent. A malformed,
/// out-of-range or NaN value is a usage error (exit status 2).
pub fn arg_f64_in(name: &str, range: impl RangeBounds<f64> + fmt::Debug) -> Option<f64> {
    match parse_arg(name, "a number") {
        Some(v) if !range.contains(&v) => {
            usage_error(&format!("{name} requires a value in {range:?}, got {v}"))
        }
        v => v,
    }
}

/// Writes `contents` to `path`, or exits with status 1 naming the path and
/// the I/O error: an unwritable output path is a run-time error, not a
/// panic.
pub fn write_output(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

fn parse_arg<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => Some(v),
        _ => usage_error(&format!("{name} requires {what} value")),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The sweep options every spec-running binary accepts, read from the
/// process arguments once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepArgs {
    /// Worker threads: `--jobs N`, else `JANUS_JOBS`, else 1.
    pub jobs: usize,
    /// `--legacy-events`: run the one-event-at-a-time dispatch loop
    /// ([`RunSpec::legacy_events`]).
    pub legacy_events: bool,
    /// `--interpreted-sched`: force the interpreted sub-op scheduler
    /// ([`RunSpec::interpreted_sched`]).
    pub interpreted_sched: bool,
}

impl SweepArgs {
    /// Parses the process arguments. A malformed or zero `--jobs` value
    /// exits with status 2, and so does a malformed or zero `JANUS_JOBS`
    /// when `--jobs` is absent.
    pub fn parse() -> Self {
        let jobs = arg_positive("--jobs").unwrap_or_else(|| match std::env::var("JANUS_JOBS") {
            Err(std::env::VarError::NotPresent) => 1,
            v => v
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| usage_error("JANUS_JOBS requires a positive integer value")),
        });
        SweepArgs {
            jobs,
            legacy_events: flag("--legacy-events"),
            interpreted_sched: flag("--interpreted-sched"),
        }
    }

    /// Switches every spec to the twin paths these options request (a
    /// switch already set on a spec stays set).
    pub fn apply(&self, specs: &mut [RunSpec]) {
        for s in specs {
            s.legacy_events |= self.legacy_events;
            s.interpreted_sched |= self.interpreted_sched;
        }
    }
}

/// Strict argument validation: every token must be a known value-taking
/// flag (followed by its value), a known boolean flag, or one of the
/// [`SweepArgs`] flags (`--jobs N`, `--legacy-events`,
/// `--interpreted-sched`). Anything else — an unknown flag, a stray
/// positional, a value-taking flag at the end of the line — exits with
/// status 2 and a usage message, so a typo can never silently produce
/// default-configured "results".
pub fn require_known_args(value_flags: &[&str], bool_flags: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args, value_flags, bool_flags);
}

/// [`require_known_args`] over an explicit argument list (the process
/// arguments after any positionals the binary consumed itself).
pub fn check_args(args: &[String], value_flags: &[&str], bool_flags: &[&str]) {
    let value_flags: Vec<&str> = value_flags.iter().copied().chain(["--jobs"]).collect();
    let bool_flags: Vec<&str> = bool_flags
        .iter()
        .copied()
        .chain(["--legacy-events", "--interpreted-sched"])
        .collect();
    let usage = |msg: &str| -> ! {
        let mut flags: Vec<String> = value_flags
            .iter()
            .map(|f| format!("{f} <value>"))
            .chain(bool_flags.iter().map(|f| f.to_string()))
            .collect();
        flags.sort();
        eprintln!("error: {msg}");
        eprintln!("usage: accepted arguments: {}", flags.join(" "));
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                usage(&format!("{a} requires a value"));
            }
            i += 2;
        } else if bool_flags.contains(&a) {
            i += 1;
        } else {
            usage(&format!("unknown argument {a:?}"));
        }
    }
}
