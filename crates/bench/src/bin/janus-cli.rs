//! General-purpose experiment driver: run any workload on any system design
//! with any knob, and dump machine-readable statistics.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus-cli -- \
//!     --workload btree --variant janus --cores 2 --tx 200 --dump
//! ```
//!
//! Flags: every knob of the table in `janus_bench::cli`, shared with
//! `janus-prof`:
//! `--workload <array|queue|hash|rbtree|btree|tatp|tpcc>` and
//! `--variant <serialized|parallelized|janus|auto|pgo|place|fixed|ideal>`
//! (or any other spelling `Workload`/`Variant` parses; each takes a
//! comma-separated list, and the run is the workload-major grid of the two;
//! `fixed` = manual instrumentation with a seeded §6 misuse repaired by the
//! `janus-lint --fix` engine),
//! `--cores N`, `--tx N`, `--size BYTES`, `--dedup RATIO`, `--seed N`,
//! `--crc32`, `--scale <N|unlimited>`, `--skew THETA`, `--aux FRACTION`,
//! `--bmos <id,...|none>` (BMO stack override; see `--list-bmos`),
//! `--irb-policy <shared|banked[:N]|partitioned[:N]>`, and the open-loop
//! knobs `--tenants N`, `--arrival <poisson:MEAN|bursty:MEAN:BURST[:INTRA]>`
//! and `--mix <workload,...>` (any of them switches to open-loop tenants on
//! `--cores` worker cores; the mix defaults to the `--workload`);
//! `--jobs N` (worker threads for multi-spec grids; also honours the
//! `JANUS_JOBS` environment variable; output is identical at any value),
//! `--dump` (gem5-style stats to stdout).

use janus_bench::cli::{flag, specs_from_args};
use janus_bench::{run_all, RunSpec, SweepArgs, Variant};
use janus_bmo::BmoStack;
use janus_workloads::Workload;

fn main() {
    let specs = specs_from_args(
        RunSpec::new(Workload::Tatp, Variant::JanusManual),
        &[],
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
                result.spec.subject(),
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
