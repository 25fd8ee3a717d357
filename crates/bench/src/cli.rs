//! The text form of a [`RunSpec`] and the shared command-line parsing of
//! the bench binaries.
//!
//! `KNOBS` is the one table that spells a spec as text: each entry ties a
//! result-changing field to its flag, its JSONL label, one validating
//! parser and one formatter. Binaries turn their run flags into specs with
//! [`specs_from_args`], [`RunSpec::labels`] writes the `spec.*` labels of
//! every exported row from it, and [`RunSpec::from_labels`] reads a row back.
//!
//! Every bench binary takes `--name value` pairs from `std::env::args`. The
//! strict validator ([`require_known_args`]) makes a typo a hard usage error
//! (exit status 2) instead of a silently default-configured "result", and
//! [`SweepArgs::parse`] reads the sweep options every spec-running binary
//! shares.

use std::fmt;
use std::ops::RangeBounds;
use std::str::FromStr;

use janus_bmo::BmoStack;
use janus_core::irb::IrbPolicy;
use janus_sim::time::Cycles;
use janus_trace::MetricValue::{self, Float, Str, U64};
use janus_workloads::traffic::Arrival;

use crate::{OpenLoopSpec, RunSpec};
use Flag::{List, Switch, Value};

/// One result-changing field of a [`RunSpec`], spelled as text.
pub(crate) struct Knob {
    /// How the command line sets it.
    pub(crate) flag: Flag,
    /// The JSONL label key.
    pub(crate) label: &'static str,
    /// Validates a value and stores it in the spec. The second argument is
    /// the flag or label being read, which the error message names.
    pub(crate) parse: fn(&mut RunSpec, &str, &str) -> Result<(), String>,
    /// The label value, `None` where the spec holds its [`RunSpec::new`]
    /// default and the row carries no label. The first seven knobs are
    /// always labelled on closed-loop rows; open-loop rows leave out the
    /// workload and dedup ratio, which an open-loop run never reads.
    pub(crate) format: fn(&RunSpec) -> Option<MetricValue>,
}

/// A [`Knob`]'s command-line form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flag {
    /// `--flag value`.
    Value(&'static str),
    /// `--flag a,b,...`: one spec per item.
    List(&'static str),
    /// A bare `--flag`, which sets the value `1`.
    Switch(&'static str),
}

impl Flag {
    /// The flag's spelling.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Value(f) | List(f) | Switch(f) => f,
        }
    }
}

/// Every knob, in label order.
pub(crate) const KNOBS: &[Knob] = &[
    Knob {
        flag: List("--workload"),
        label: "spec.workload",
        parse: |s, n, v| choice(n, v).map(|w| s.workload = w),
        format: |s| s.open_loop.is_none().then(|| Str(s.workload.slug().into())),
    },
    Knob {
        flag: List("--variant"),
        label: "spec.variant",
        parse: |s, n, v| choice(n, v).map(|x| s.variant = x),
        format: |s| Some(Str(s.variant.label().into())),
    },
    Knob {
        flag: Value("--cores"),
        label: "spec.cores",
        parse: |s, n, v| positive(n, v).map(|x| s.cores = x),
        format: |s| Some(U64(s.cores as u64)),
    },
    Knob {
        flag: Value("--tx"),
        label: "spec.transactions",
        parse: |s, n, v| positive(n, v).map(|x| s.transactions = x),
        format: |s| Some(U64(s.transactions as u64)),
    },
    Knob {
        flag: Value("--size"),
        label: "spec.tx_size_bytes",
        parse: |s, n, v| unsigned(n, v).map(|x| s.tx_size_bytes = x),
        format: |s| Some(U64(s.tx_size_bytes as u64)),
    },
    Knob {
        flag: Value("--seed"),
        label: "spec.seed",
        parse: |s, n, v| unsigned(n, v).map(|x| s.seed = x),
        format: |s| Some(U64(s.seed)),
    },
    Knob {
        flag: Value("--dedup"),
        label: "spec.dedup_ratio",
        parse: |s, n, v| number_in(n, v, 0.0..=1.0).map(|x| s.dedup_ratio = x),
        format: |s| s.open_loop.is_none().then_some(Float(s.dedup_ratio)),
    },
    Knob {
        flag: Switch("--crc32"),
        label: "spec.crc32",
        parse: |s, n, v| positive(n, v).map(|_| s.crc32 = true),
        format: |s| s.crc32.then_some(U64(1)),
    },
    Knob {
        flag: Value("--scale"),
        label: "spec.resource_scale",
        parse: |s, n, v| {
            match v {
                "unlimited" => Ok(usize::MAX),
                _ => positive(n, v).map_err(|e| format!("{e} or \"unlimited\"")),
            }
            .map(|k| s.resource_scale = Some(k))
        },
        format: |s| match s.resource_scale? {
            usize::MAX => Some(Str("unlimited".into())),
            k => Some(Str(k.to_string())),
        },
    },
    Knob {
        flag: Value("--skew"),
        label: "spec.key_skew",
        parse: |s, n, v| number_in(n, v, 0.0..1.0).map(|x| s.key_skew = Some(x)),
        format: |s| s.key_skew.map(Float),
    },
    Knob {
        flag: Value("--aux"),
        label: "spec.aux_tx_fraction",
        parse: |s, n, v| number_in(n, v, 0.0..=1.0).map(|x| s.aux_tx_fraction = x),
        format: |s| (s.aux_tx_fraction != 0.0).then_some(Float(s.aux_tx_fraction)),
    },
    Knob {
        flag: Value("--bmos"),
        label: "spec.bmo_stack",
        parse: |s, n, v| {
            named(n, BmoStack::parse(v)).map(|b| s.bmo_stack = Some(b.members().to_vec()))
        },
        format: |s| Some(Str(BmoStack::new(s.bmo_stack.clone()?).ok()?.id_list())),
    },
    Knob {
        flag: Value("--tenants"),
        label: "spec.tenants",
        parse: |s, n, v| positive(n, v).map(|x| open_loop(s).tenants = x),
        format: |s| Some(U64(s.open_loop.as_ref()?.tenants as u64)),
    },
    Knob {
        flag: Value("--arrival"),
        label: "spec.arrival",
        parse: |s, n, v| named(n, Arrival::parse(v)).map(|x| open_loop(s).arrival = x),
        format: |s| Some(Str(s.open_loop.as_ref()?.arrival.to_string())),
    },
    Knob {
        flag: Value("--mix"),
        label: "spec.mix",
        parse: |s, n, v| list(n, v).map(|x| open_loop(s).mix = x),
        format: |s| {
            let mix: Vec<&str> = s.open_loop.as_ref()?.mix.iter().map(|w| w.slug()).collect();
            Some(Str(mix.join(",")))
        },
    },
    // Open-loop rows always name their policy; closed-loop rows only a
    // non-default one.
    Knob {
        flag: Value("--irb-policy"),
        label: "spec.irb_policy",
        parse: |s, n, v| named(n, IrbPolicy::parse(v)).map(|x| s.irb_policy = x),
        format: |s| {
            (s.open_loop.is_some() || s.irb_policy != IrbPolicy::Shared)
                .then(|| Str(s.irb_policy.to_string()))
        },
    },
];

/// The open-loop half of `s`, made with one placeholder tenant if the spec
/// was closed-loop: the other open-loop knobs fill it in.
fn open_loop(s: &mut RunSpec) -> &mut OpenLoopSpec {
    let workload = s.workload;
    s.open_loop.get_or_insert_with(|| OpenLoopSpec {
        tenants: 1,
        arrival: Arrival::Poisson {
            mean: Cycles(40_000),
        },
        mix: vec![workload],
    })
}

/// `v` as a count of at least 1.
fn positive(name: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{name} requires a positive integer value")),
    }
}

/// `v` as an unsigned integer.
fn unsigned<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{name} requires an unsigned integer value"))
}

/// `v` as a number in `range`; NaN is never in range.
fn number_in(
    name: &str,
    v: &str,
    range: impl RangeBounds<f64> + fmt::Debug,
) -> Result<f64, String> {
    match v.parse() {
        Ok(x) if range.contains(&x) => Ok(x),
        Ok(x) => Err(format!("{name} requires a value in {range:?}, got {x}")),
        Err(_) => Err(format!("{name} requires a number value")),
    }
}

/// `v` as one of a named set ([`janus_workloads::Workload`],
/// [`crate::Variant`]).
pub fn choice<T: FromStr>(name: &str, v: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    named(name, v.trim().parse())
}

/// A parse result whose error names the flag or label.
pub fn named<T, E: fmt::Display>(name: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("{name}: {e}"))
}

/// `v` as a non-empty comma-separated list of [`choice`]s.
fn list<T: FromStr>(name: &str, v: &str) -> Result<Vec<T>, String>
where
    T::Err: fmt::Display,
{
    v.split(',').map(|item| choice(name, item)).collect()
}

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

/// Reads `--name value` through `parse`, which takes the flag name and its
/// value: `None` when absent. A flag followed by a missing or invalid value is a
/// hard usage error: the process exits with status 2 rather than silently
/// running the experiment with the default.
pub fn parse_arg<T>(name: &str, parse: impl Fn(&str, &str) -> Result<T, String>) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    let v = args.get(i + 1).map(String::as_str).unwrap_or("");
    Some(parse(name, v).unwrap_or_else(|e| usage_error(&e)))
}

/// [`parse_arg`] for counts that must be at least 1 (`--tx`, `--jobs`,
/// `--cores`, ...).
pub fn arg_positive(name: &str) -> Option<usize> {
    parse_arg(name, positive)
}

/// Checks the process arguments against every `KNOBS` flag plus the
/// binary's own `value_flags` and `bool_flags` ([`require_known_args`]),
/// then returns the specs they describe: `base` with every knob flag
/// present applied, in `KNOBS` order. `--workload` and `--variant` take
/// comma lists, which make a workload-major grid. An invalid value exits
/// with status 2.
pub fn specs_from_args(base: RunSpec, value_flags: &[&str], bool_flags: &[&str]) -> Vec<RunSpec> {
    let (mut values, mut switches) = (value_flags.to_vec(), bool_flags.to_vec());
    for k in KNOBS {
        match k.flag {
            Value(f) | List(f) => values.push(f),
            Switch(f) => switches.push(f),
        }
    }
    require_known_args(&values, &switches);
    let mut specs = vec![base];
    for k in KNOBS {
        let f = k.flag.name();
        let given = match k.flag {
            Switch(_) => flag(f).then(|| "1".to_string()),
            _ => arg(f),
        };
        let Some(v) = given else { continue };
        let items: Vec<&str> = match k.flag {
            List(_) => v.split(',').collect(),
            _ => vec![&v],
        };
        specs = specs
            .iter()
            .flat_map(|s| {
                items.iter().map(|item| {
                    let mut s = s.clone();
                    (k.parse)(&mut s, f, item).unwrap_or_else(|e| usage_error(&e));
                    s
                })
            })
            .collect();
    }
    specs
}

/// [`specs_from_args`] for a binary that runs one spec: a `--workload` or
/// `--variant` list is a usage error.
pub fn spec_from_args(base: RunSpec, value_flags: &[&str], bool_flags: &[&str]) -> RunSpec {
    match <[RunSpec; 1]>::try_from(specs_from_args(base, value_flags, bool_flags)) {
        Ok([spec]) => spec,
        Err(_) => usage_error("--workload and --variant take one value here"),
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
            v => positive("JANUS_JOBS", &v.unwrap_or_default()).unwrap_or_else(|e| usage_error(&e)),
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
