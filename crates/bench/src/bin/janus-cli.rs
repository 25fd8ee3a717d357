//! General-purpose experiment driver: run any workload on any system design
//! with any knob, and dump machine-readable statistics.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus-cli -- \
//!     --workload btree --variant janus --cores 2 --tx 200 --dump
//! ```
//!
//! Flags: `--workload <array|queue|hash|rbtree|btree|tatp|tpcc>`,
//! `--variant <serialized|parallelized|janus|auto|pgo|place|fixed|ideal>`
//! (or any other spelling `Variant` parses; accepts a comma-separated list
//! to sweep several variants in one invocation; `fixed` = manual
//! instrumentation with a seeded §6 misuse repaired by the
//! `janus-lint --fix` engine),
//! `--cores N`, `--tx N`, `--size BYTES`, `--dedup RATIO`, `--seed N`,
//! `--crc32`, `--scale <N|unlimited>`, `--skew THETA`, `--aux FRACTION`,
//! `--bmos <id,...|none>` (BMO stack override; see `--list-bmos`),
//! `--jobs N` (worker threads for multi-variant sweeps; also honours the
//! `JANUS_JOBS` environment variable; output is identical at any value),
//! `--dump` (gem5-style stats to stdout). The run flags come from the
//! knob table in `janus_bench::cli` and are shared with `janus-prof`,
//! which writes causal profiles.

use janus_bench::cli::{self, flag, spec_from_args, RUN_FLAGS};
use janus_bench::{run_all, RunSpec, SweepArgs, Variant};
use janus_bmo::BmoStack;
use janus_workloads::Workload;

fn main() {
    // `--variant` takes a list here, so it is read apart from the knobs.
    let knobs: Vec<&str> = RUN_FLAGS
        .into_iter()
        .filter(|&f| f != "--variant")
        .collect();
    let spec = spec_from_args(
        RunSpec::new(Workload::Tatp, Variant::JanusManual),
        &knobs,
        &["--variant"],
        &["--dump", "--list-bmos"],
    );
    if flag("--list-bmos") {
        println!(
            "Registered BMOs (stack with --bmos id,id,...; default: {}):",
            BmoStack::paper()
        );
        for id in janus_bmo::BmoId::ALL {
            let spec = id.spec();
            println!(
                "  {:<6} {:<40} pre-exec: {:?}",
                id.as_str(),
                spec.name(),
                spec.pre_exec()
            );
        }
        return;
    }
    let variants: Vec<Variant> =
        cli::parse_arg("--variant", cli::list).unwrap_or(vec![spec.variant]);
    let specs: Vec<RunSpec> = variants
        .iter()
        .map(|&v| {
            let mut s = spec.clone();
            s.variant = v;
            s
        })
        .collect();
    for result in run_all("janus-cli", specs, &SweepArgs::parse()) {
        if flag("--dump") {
            result
                .report
                .dump(&mut std::io::stdout())
                .expect("write stats");
        } else {
            println!(
                "{} [{}] cores={} tx={}: {} cycles, {:.2} tx/Mcycle, \
                 {:.0}% fully pre-executed, {} writes ({} dup)",
                result.spec.workload,
                result.spec.variant.label(),
                result.spec.cores,
                result.spec.transactions,
                result.report.cycles,
                result.report.tx_per_mcycle(),
                result.report.fully_preexecuted_fraction * 100.0,
                result.report.writes,
                result.report.dup_writes,
            );
        }
    }
}
