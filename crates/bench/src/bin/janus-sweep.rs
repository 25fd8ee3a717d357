//! General spec-grid sweep driver: workloads × variants at a fixed core
//! count, through the shared sweep engine.
//!
//! Unlike the `janus-fig` entries (each pinned to one published plot), this is
//! the open-ended driver for ad-hoc grids: pick workloads (`--workloads`
//! CSV of slugs), variants (`--variants` CSV, in the `--variant` spellings
//! every binary accepts), `--tx`, `--cores`, and
//! `--seed`, and get one row per point with cycles, throughput, and speedup
//! over the grid's first variant. The JSONL sink and `--jobs N` apply as
//! everywhere else — output is byte-identical at any worker count.

use janus_bench::cli::{list, parse_arg, spec_from_args};
use janus_bench::{banner, row, run_all, RunSpec, SweepArgs, Variant};
use janus_workloads::Workload;

fn main() {
    let mut base = RunSpec::new(Workload::Tatp, Variant::Serialized);
    base.transactions = 60;
    let base = spec_from_args(
        base,
        &["--tx", "--cores", "--seed"],
        &["--workloads", "--variants"],
        &[],
    );
    let (tx, cores, seed) = (base.transactions, base.cores, base.seed);
    let workloads: Vec<Workload> =
        parse_arg("--workloads", list).unwrap_or_else(|| Workload::all().to_vec());
    // The grid's first variant is the speedup baseline.
    let variants: Vec<Variant> = parse_arg("--variants", list).unwrap_or_else(|| {
        vec![
            Variant::Serialized,
            Variant::Parallelized,
            Variant::JanusManual,
            Variant::JanusAuto,
        ]
    });

    let mut specs = Vec::with_capacity(workloads.len() * variants.len());
    for &w in &workloads {
        for &v in &variants {
            let mut s = base.clone();
            s.workload = w;
            s.variant = v;
            specs.push(s);
        }
    }
    let results = run_all("janus-sweep", specs, &SweepArgs::parse());

    banner(
        "janus-sweep — workload x variant grid",
        &format!(
            "{} workloads x {} variants; {tx} tx/core; {cores} core(s); seed {seed}; \
             speedup vs {}",
            workloads.len(),
            variants.len(),
            variants[0].label(),
        ),
    );
    let widths = [12, 18, 12, 9, 9];
    println!(
        "{}",
        row(
            &[
                "workload".into(),
                "variant".into(),
                "cycles".into(),
                "tx/Mcyc".into(),
                "speedup".into(),
            ],
            &widths
        )
    );
    for chunk in results.chunks(variants.len()) {
        let base = &chunk[0];
        for r in chunk {
            println!(
                "{}",
                row(
                    &[
                        r.spec.workload.slug().into(),
                        r.spec.variant.label().into(),
                        r.report.cycles.0.to_string(),
                        format!("{:.1}", r.report.tx_per_mcycle()),
                        format!("{:.2}x", base.cycles() / r.cycles()),
                    ],
                    &widths
                )
            );
        }
    }
}
