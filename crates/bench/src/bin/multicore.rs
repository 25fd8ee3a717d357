//! Multi-tenant open-loop sweep: IRB policies × tenant counts × arrival
//! rates on a shared multi-core Janus memory system.
//!
//! Each run drives `--cores` worker cores from N open-loop tenant streams
//! (mixed TATP / Hash Table / Queue / TPC-C traffic, round-robin) and
//! reports per-tenant p50/p99/p999 arrival→persistence latency, system
//! throughput, and the Jain fairness index across tenants. The default
//! sweep crosses {shared, banked:64, partitioned:64} IRB policies with
//! {1, 4, 16} tenants and two Poisson arrival rates; `--tenants`,
//! `--irb-policy`, and `--arrival` each pin their dimension to a single
//! point (the worked single-configuration mode in the README).
//!
//! `--traffic-digest` prints a fingerprint of the generated tenant streams
//! instead of running them: traffic is a pure function of (spec, seed) and
//! never reads the core count, and CI diffs this output across `--cores`
//! values to prove tenant placement cannot change the traffic.
//!
//! Output is deterministic: byte-identical across reruns and at any
//! `--jobs` fan-out.

use janus_bench::cli::{arg, flag, spec_from_args};
use janus_bench::{banner, row, run_all, OpenLoopSpec, RunSpec, SweepArgs, Variant};
use janus_core::irb::IrbPolicy;
use janus_sim::time::Cycles;
use janus_workloads::traffic::{digest, generate_tenants, Arrival};
use janus_workloads::Workload;

/// The tenant transaction mixes, assigned round-robin.
const MIX: [Workload; 4] = [
    Workload::Tatp,
    Workload::HashTable,
    Workload::Queue,
    Workload::Tpcc,
];

/// The two default Poisson arrival rates.
const RATES: [Arrival; 2] = [
    Arrival::Poisson {
        mean: Cycles(40_000),
    },
    Arrival::Poisson {
        mean: Cycles(10_000),
    },
];

/// `base` at one sweep point.
fn spec_for(base: &RunSpec, policy: IrbPolicy, tenants: usize, arrival: Arrival) -> RunSpec {
    let mut s = base.clone();
    s.irb_policy = policy;
    s.open_loop = Some(OpenLoopSpec {
        tenants,
        arrival,
        mix: MIX.to_vec(),
    });
    s
}

/// The sweep values of one dimension, or the single value its flag pins.
fn dimension<T>(flag: &str, pinned: T, sweep: Vec<T>) -> Vec<T> {
    if arg(flag).is_some() {
        vec![pinned]
    } else {
        sweep
    }
}

fn main() {
    let mut base = RunSpec::new(MIX[0], Variant::JanusManual);
    base.cores = 4;
    base.transactions = 40;
    base.open_loop = Some(OpenLoopSpec {
        tenants: 1,
        arrival: RATES[0],
        mix: MIX.to_vec(),
    });
    let base = spec_from_args(
        base,
        &[
            "--tx",
            "--cores",
            "--seed",
            "--tenants",
            "--irb-policy",
            "--arrival",
        ],
        &[],
        &["--traffic-digest"],
    );
    let ol = base.open_loop.as_ref().expect("open-loop base spec");
    let policies = dimension(
        "--irb-policy",
        base.irb_policy,
        vec![
            IrbPolicy::Shared,
            IrbPolicy::Banked { per_tenant: 64 },
            IrbPolicy::Partitioned { quota: 64 },
        ],
    );
    let tenant_counts = dimension("--tenants", ol.tenants, vec![1, 4, 16]);
    let arrivals = dimension("--arrival", ol.arrival, RATES.to_vec());
    let (cores, tx) = (base.cores, base.transactions);

    if flag("--traffic-digest") {
        // Traffic fingerprints for every (tenants, arrival) point of the
        // sweep — independent of cores, policy, and jobs by construction.
        for &tenants in &tenant_counts {
            for &arrival in &arrivals {
                let spec = spec_for(&base, IrbPolicy::Shared, tenants, arrival);
                let streams: Vec<_> = generate_tenants(&spec.tenant_specs(), spec.seed)
                    .into_iter()
                    .map(|t| t.stream)
                    .collect();
                println!(
                    "tenants={tenants} arrival={arrival} digest={:016x}",
                    digest(&streams)
                );
            }
        }
        return;
    }

    banner(
        "Multi-tenant open-loop sweep — IRB policy x tenants x arrival rate",
        &format!(
            "{cores} cores; {tx} tx/tenant; mix TATP/Hash/Queue/TPCC; \
             per-tenant arrival->persistence latency"
        ),
    );
    let widths = [16, 8, 15, 9, 6, 11, 11, 11];
    println!(
        "{}",
        row(
            &[
                "irb-policy".into(),
                "tenants".into(),
                "arrival".into(),
                "tx/Mcyc".into(),
                "jain".into(),
                "p50".into(),
                "p99".into(),
                "p999".into(),
            ],
            &widths
        )
    );

    let mut specs = Vec::new();
    for &policy in &policies {
        for &tenants in &tenant_counts {
            for &arrival in &arrivals {
                specs.push(spec_for(&base, policy, tenants, arrival));
            }
        }
    }
    let results = run_all("multicore", specs, &SweepArgs::parse());

    for r in &results {
        let ol = r.spec.open_loop.as_ref().expect("open-loop spec");
        let worst = |f: fn(&janus_core::system::TenantReport) -> Cycles| {
            r.report.tenants.iter().map(f).max().unwrap_or(Cycles::ZERO)
        };
        println!(
            "{}",
            row(
                &[
                    r.spec.irb_policy.to_string(),
                    ol.tenants.to_string(),
                    ol.arrival.to_string(),
                    format!("{:.1}", r.report.tx_per_mcycle()),
                    format!("{:.3}", r.report.jain_fairness()),
                    worst(|t| t.p50).to_string(),
                    worst(|t| t.p99).to_string(),
                    worst(|t| t.p999).to_string(),
                ],
                &widths
            )
        );
        // Per-tenant tail detail (the JSONL sink carries the same numbers
        // as tenant{i}.* keys).
        for (i, t) in r.report.tenants.iter().enumerate() {
            println!(
                "    tenant {i:>2} [{:>10}]  done {:>3}/{:<3}  p50 {:>8}  p99 {:>8}  p999 {:>8}  max {:>8}",
                MIX[i % MIX.len()].slug(),
                t.completed,
                t.dispatched,
                t.p50,
                t.p99,
                t.p999,
                t.max,
            );
        }
    }
    println!("\ncolumns: worst-tenant latency percentiles (cycles); jain = fairness index over");
    println!("per-tenant service rates (1.0 = perfectly fair)");
}
