//! Printing an outcome: readable lines, then the self-describing `meta`
//! line, then the one-line JSON result.

use std::fmt::Write as _;

use crate::measure::{Options, Outcome};
use crate::metrics::{Def, Metric, END_TO_END, PER_LAYER};

/// The model's validation status, stated with every result.
pub const VALIDATION: &str =
    "unvalidated: the repository holds no real-hardware reference, so no accuracy figure is given";

/// The metrics an invocation reports: end-to-end ones untraced, per-layer
/// ones traced.
pub fn defs(trace: bool) -> &'static [Def] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The reported metrics of `o`, in catalogue order.
pub fn metrics(opts: &Options, o: &Outcome) -> Vec<Metric> {
    let values = if opts.trace { &o.layer } else { &o.e2e };
    values.resolve(defs(opts.trace))
}

/// The commit the checkout was made from, if it is a git checkout.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(git.join("packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) print as 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The `meta` line: everything needed to say what produced the result.
pub fn meta(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(opts.bench.name())),
        ("seed", opts.seed.to_string()),
        ("params", json_str(&opts.bench.params(opts.size))),
        ("seconds", json_num(opts.seconds)),
        ("trace", u8::from(opts.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", json_str(env!("SIMBENCH_RUSTC"))),
        ("profile", json_str(env!("SIMBENCH_PROFILE"))),
        ("git_commit", json_str(&git_commit())),
        ("model", json_str(VALIDATION)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("meta {{{}}}", body.join(","))
}

/// The final result line.
pub fn result_json(opts: &Options, o: &Outcome) -> String {
    let body: Vec<String> = metrics(opts, o)
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.def.name),
                json_num(m.summary.median),
                json_str(m.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        body.join(",")
    )
}

/// Everything printed for one invocation; the JSON result is the last line.
pub fn render(opts: &Options, o: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} ({}), seed {}, {} traced",
        opts.bench.name(),
        opts.bench.params(opts.size),
        opts.seed,
        if opts.trace { "" } else { "un" }
    );
    for m in metrics(opts, o) {
        let s = m.summary;
        let tail = match s.tail {
            Some((p, v)) => format!("p{p} {v}"),
            None => "no tail percentile under 20 samples".into(),
        };
        let _ = writeln!(
            out,
            "{:<34} {:>22} {:<6}  median of n={}; {tail}",
            m.def.name, s.median, m.def.unit, s.n
        );
    }
    let _ = writeln!(
        out,
        "{:<34} {:>22} {:<6}  {} failed of {} attempted",
        "fail_frac",
        o.fail_frac(),
        "ratio",
        o.failed,
        o.attempted
    );
    if opts.trace {
        let _ = writeln!(out, "# self time by span over all traced rounds (s):");
        for (name, secs) in o.spans.self_times() {
            let _ = writeln!(out, "#   {name:<28} {secs:.6}");
        }
    }
    for p in &o.problems {
        let _ = writeln!(out, "problem: {p}");
    }
    let _ = writeln!(out, "{}", meta(opts));
    let _ = write!(out, "{}", result_json(opts, o));
    out
}
