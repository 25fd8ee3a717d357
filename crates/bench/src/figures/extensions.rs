//! Our extension experiments: design-choice ablations, endurance,
//! extensibility to five BMOs, §6 misuse detection, key skew, the
//! multi-tenant open-loop sweep and the workload × variant sweep.

use super::{grid, header, print_row, spec};
use crate::{banner, geomean, run_with_config, speedup, OpenLoopSpec, RunResult, RunSpec, Variant};
use janus_bmo::wear::StartGap;
use janus_bmo::BmoStack;
use janus_core::config::{JanusConfig, SystemMode};
use janus_core::ir::ProgramBuilder;
use janus_core::irb::IrbPolicy;
use janus_core::system::{ExecutionReport, System, TenantReport};
use janus_instrument::instrument;
use janus_instrument::misuse::detect_misuse;
use janus_nvm::line::LINE_BYTES;
use janus_nvm::{addr::LineAddr, line::Line};
use janus_sim::rng::SimRng;
use janus_sim::time::Cycles;
use janus_workloads::traffic::Arrival;
use janus_workloads::{generate, Instrumentation, Workload, WorkloadConfig};

/// Runs `spec` through the harness on its configuration as modified by
/// `tweak`.
fn run_tweaked(spec: RunSpec, tweak: impl FnOnce(&mut JanusConfig)) -> ExecutionReport {
    let mut config = spec.config();
    tweak(&mut config);
    run_with_config(spec, config).report
}

fn cycles_tweaked(spec: RunSpec, tweak: impl FnOnce(&mut JanusConfig)) -> f64 {
    run_tweaked(spec, tweak).cycles.0 as f64
}

/// Ablation study of the design choices DESIGN.md calls out:
///
/// 1. **Partial reuse** — on stale pre-executed data, re-run only the
///    data-dependent sub-operations vs. invalidating everything (§4.3.1).
/// 2. **Selective metadata atomicity** — block fences only on
///    commit-critical metadata persists vs. on every metadata line (§4.3.2).
/// 3. **Write-queue coalescing** — merge same-line writes in the ADR queue
///    vs. issuing each to the device.
/// 4. **Deferred (buffered) pre-execution** — buffered+coalesced requests
///    vs. immediate per-field requests (Table 2's `*_BUF` interface).
/// 5. **Serialized-baseline interpretation** — per-write overlap vs.
///    controller-global one-write-at-a-time.
pub(super) fn ablation(tx: usize, _results: &[RunResult]) {
    banner("Ablation study", &format!("1 core, {tx} tx per run"));

    // 1. Partial reuse: a workload with frequent stale data — writes whose
    // value changes after the pre-execution hint. Use a synthetic program.
    {
        let mk = |partial: bool| {
            let mut b = ProgramBuilder::new();
            for i in 0..200u64 {
                let line = LineAddr(i % 16);
                let hinted = Line::from_words(&[i, 1]);
                let actual = Line::from_words(&[i, 2]); // always stale
                let obj = b.pre_init();
                b.pre_both(obj, line, vec![hinted]);
                b.compute(4000);
                b.store(line, actual);
                b.clwb(line);
                b.fence();
            }
            let mut cfg = JanusConfig::paper(SystemMode::Janus, 1);
            cfg.partial_reuse = partial;
            let mut sys = System::new(cfg);
            sys.run(vec![b.build()])
        };
        let with = mk(true);
        let without = mk(false);
        println!(
            "1. partial reuse (stale data): {:>11} vs {:>11} wasted unit-cycles,              cycles {:+.1}%",
            with.counter("bmo_wasted_cycles"),
            without.counter("bmo_wasted_cycles"),
            (without.cycles.0 as f64 / with.cycles.0 as f64 - 1.0) * 100.0
        );
        println!(
            "   -> stale-data latency is bounded by the data-dependent chain either
                   way; partial reuse saves the re-execution *work* of E1/E2"
        );
    }

    // 2. Selective metadata atomicity, under memory pressure (few banks,
    // shallow write queue) where flushing every metadata line matters.
    {
        let avg = |selective: bool| {
            let xs: Vec<f64> = Workload::all()
                .into_iter()
                .map(|w| {
                    cycles_tweaked(spec(w, Variant::JanusManual, tx), |c| {
                        c.nvm.banks = 2;
                        c.wq_capacity = 8;
                        c.selective_atomicity = selective;
                    })
                })
                .collect();
            geomean(&xs)
        };
        let sel = avg(true);
        let full = avg(false);
        println!(
            "2. selective atomicity:        {:>11.0} vs {:>11.0} cycles  ({:+.1}% with full atomicity)",
            sel,
            full,
            (full / sel - 1.0) * 100.0
        );
    }

    // 3. Write-queue coalescing: compare device write traffic and cycles
    // under the same pressure.
    {
        let avg = |coalesce: bool| {
            let mut cycles = Vec::new();
            let mut dev = 0u64;
            for w in Workload::all() {
                let r = run_tweaked(spec(w, Variant::JanusManual, tx), |c| {
                    c.nvm.banks = 2;
                    c.wq_capacity = 8;
                    c.selective_atomicity = false; // all metadata reaches the WQ
                    c.wq_coalescing = coalesce;
                });
                cycles.push(r.cycles.0 as f64);
                dev += r.counter("nvm_device_writes");
            }
            (geomean(&cycles), dev)
        };
        let (on, dev_on) = avg(true);
        let (off, dev_off) = avg(false);
        println!(
            "3. WQ coalescing:              {:>11.0} vs {:>11.0} cycles  ({:+.1}% without);              device writes {} vs {}",
            on,
            off,
            (off / on - 1.0) * 100.0,
            dev_on,
            dev_off
        );
    }

    // 4. Buffered vs immediate pre-execution for scattered small fields.
    {
        let mk = |buffered: bool| {
            let mut b = ProgramBuilder::new();
            for i in 0..200u64 {
                let base = LineAddr((i % 16) * 4);
                let values: Vec<Line> = (0..4).map(|k| Line::from_words(&[i, k])).collect();
                let obj = b.pre_init();
                if buffered {
                    for (k, v) in values.iter().enumerate() {
                        b.pre_both_buf(obj, base.offset(k as u64), vec![*v]);
                    }
                    b.pre_start_buf(obj);
                } else {
                    for (k, v) in values.iter().enumerate() {
                        b.pre_both(obj, base.offset(k as u64), vec![*v]);
                    }
                }
                b.compute(5000);
                for (k, v) in values.iter().enumerate() {
                    b.store(base.offset(k as u64), *v);
                    b.clwb(base.offset(k as u64));
                }
                b.fence();
            }
            let mut sys = System::new(JanusConfig::paper(SystemMode::Janus, 1));
            sys.run(vec![b.build()]).cycles.0 as f64
        };
        let buffered = mk(true);
        let immediate = mk(false);
        println!(
            "4. buffered vs immediate PRE:  {:>11.0} vs {:>11.0} cycles  ({:+.1}% immediate)",
            buffered,
            immediate,
            (immediate / buffered - 1.0) * 100.0
        );
    }

    // 5. Serialized-baseline interpretation: per-write overlap (ours) vs
    // controller-global one-write-at-a-time. Under the global reading the
    // baseline collapses on multi-line fence groups, producing the strong
    // transaction-size sensitivity of Figure 13 (DESIGN.md §5a).
    {
        println!("5. serialized-baseline interpretation (ArraySwap, Janus speedup):");
        println!(
            "   {:>8} {:>14} {:>14}",
            "bytes", "overlapping", "global-serial"
        );
        for size in [64usize, 512, 2048] {
            let sized = |variant| {
                let mut s = spec(Workload::ArraySwap, variant, 48);
                s.tx_size_bytes = size;
                s
            };
            let janus = cycles_tweaked(sized(Variant::JanusManual), |_| {});
            let base = |global: bool| {
                cycles_tweaked(sized(Variant::Serialized), |c| c.serialized_global = global)
            };
            println!(
                "   {:>8} {:>13.2}x {:>13.2}x",
                size,
                base(false) / janus,
                base(true) / janus
            );
        }
    }
}

/// Bytes `w` writes in `tx` transactions, raw and BDI-compressed.
fn bdi_bytes(w: Workload, tx: usize) -> (usize, usize) {
    let out = generate(
        w,
        0,
        &WorkloadConfig {
            transactions: tx,
            ..WorkloadConfig::default()
        },
    );
    let mut total = 0;
    let mut compressed = 0;
    for (_, line) in out.expected.iter() {
        total += LINE_BYTES;
        compressed += janus_bmo::compression::compress(line).bytes.len();
    }
    (total, compressed)
}

pub(super) fn endurance_specs(tx: usize) -> Vec<RunSpec> {
    grid(&Workload::all(), &[Variant::JanusManual], tx)
}

/// Endurance analysis: how the bandwidth/durability BMOs of Table 1 extend
/// NVM lifetime on the evaluated workloads.
///
/// "Most NVM technologies suffer from a limited bandwidth and wear out
/// after a certain number of writes, necessitating deduplication,
/// compression, and/or wear-leveling of NVM writes" (§1). This entry
/// quantifies each mechanism on real workload traffic:
///
/// * **Deduplication** — fraction of data writes cancelled (device writes
///   avoided entirely).
/// * **BDI compression** — bytes that would be programmed per write.
/// * **Start-Gap wear-leveling** — write amplification of the gap copies
///   and the hot-line spreading it buys.
pub(super) fn endurance(tx: usize, results: &[RunResult]) {
    banner(
        "Endurance — write reduction from dedup, compression, wear-leveling",
        &format!("1 core, {tx} tx, dedup ratio 0.5"),
    );

    println!(
        "{:<12} {:>8} {:>10} {:>12} {:>10} {:>12}",
        "workload", "writes", "dup-saved", "device-wr", "BDI ratio", "est. life x"
    );
    println!("{}", "-".repeat(70));
    for r in results {
        let w = r.spec.workload;
        let writes = r.report.writes;
        let dup = r.report.dup_writes;
        let device = r.report.counter("nvm_device_writes");

        // BDI over the workload's written data.
        let (total, packed) = bdi_bytes(w, tx);
        let bdi = total as f64 / packed as f64;

        // Lifetime multiplier: cells programmed per logical write shrink by
        // the dup fraction and the compression ratio (and Start-Gap spreads
        // the remainder evenly — see below).
        let dup_frac = dup as f64 / writes as f64;
        let lifetime = 1.0 / ((1.0 - dup_frac) / bdi);
        println!(
            "{:<12} {:>8} {:>9.1}% {:>12} {:>9.2}x {:>11.2}x",
            w.name(),
            writes,
            dup_frac * 100.0,
            device,
            bdi,
            lifetime
        );
    }

    // Start-Gap spreading: a pathological single-hot-line workload, with
    // and without wear-leveling.
    println!("\nStart-Gap wear-leveling on a single-hot-line workload:");
    let region = 128u64;
    let writes = 400_000u64;
    let mut sg = StartGap::new(region, 100);
    let mut per_frame = vec![0u64; region as usize + 1];
    let mut rng = SimRng::new(1);
    for _ in 0..writes {
        // 90% of writes hit one hot line.
        let l = if rng.chance(0.9) {
            7
        } else {
            rng.gen_range(region)
        };
        per_frame[sg.frame_of(l) as usize] += 1;
        if let Some((_, to)) = sg.record_write(l) {
            per_frame[to as usize] += 1; // the gap copy is also a write
        }
    }
    let max = *per_frame.iter().max().unwrap();
    let without = (writes as f64 * 0.9) as u64; // hot frame without leveling
    println!(
        "  hottest frame: {} writes with Start-Gap vs ~{} without ({}x better),",
        max,
        without,
        without / max.max(1)
    );
    println!(
        "  at {:.1}% write amplification from gap copies",
        sg.write_amplification(writes) * 100.0
    );
}

pub(super) fn extended_specs(tx: usize) -> Vec<RunSpec> {
    let extended = BmoStack::extended().members().to_vec();
    let mut specs = Vec::new();
    for w in Workload::all() {
        for stack in [None, Some(extended.clone())] {
            for variant in [Variant::Serialized, Variant::JanusManual] {
                let mut s = spec(w, variant, tx);
                s.bmo_stack = stack.clone();
                specs.push(s);
            }
        }
    }
    specs
}

/// Extensibility experiment: the same programs, unchanged, on a system
/// with five BMOs (encryption, integrity, dedup + inline compression +
/// wear-leveling) instead of the evaluated three.
///
/// §4.4 requirement 3: "programs developed with the same interface should
/// be compatible even though the BMOs change in the hardware" — the
/// software interface only exposes addresses and data, so adding BMOs
/// requires no program changes and Janus's benefit persists.
pub(super) fn extended(tx: usize, results: &[RunResult]) {
    banner(
        "Extensibility — Janus speedup with 3 vs 5 BMOs, same programs",
        &format!("1 core, {tx} tx; extended set adds compression + wear-leveling"),
    );
    let widths = [12, 12, 12];
    header(&["workload", "3 BMOs", "5 BMOs"], &widths);
    let mut std3 = Vec::new();
    let mut ext5 = Vec::new();
    for r in results.chunks(4) {
        let s3 = speedup(&r[0], &r[1]);
        let s5 = speedup(&r[2], &r[3]);
        std3.push(s3);
        ext5.push(s5);
        print_row(
            &[
                r[0].spec.workload.name().into(),
                format!("{s3:.2}x"),
                format!("{s5:.2}x"),
            ],
            &widths,
        );
    }
    println!("{}", "-".repeat(40));
    print_row(
        &[
            "Avg".into(),
            format!("{:.2}x", geomean(&std3)),
            format!("{:.2}x", geomean(&ext5)),
        ],
        &widths,
    );
    println!("\nPrograms are byte-identical across the two systems; the interface only");
    println!("exposes addresses and data, so extra BMOs change nothing in software.");

    // What the C1 compression sub-operation achieves on real workload data
    // (BDI over every line each workload writes).
    println!("\nBDI compression on workload write data:");
    for w in Workload::all() {
        let (total, compressed) = bdi_bytes(w, 60);
        println!(
            "  {:<12} {:>5.2}x ({} -> {} bytes)",
            w.name(),
            total as f64 / compressed as f64,
            total,
            compressed
        );
    }
}

/// §6 "Tools for misuse detection": run the static analyzer over every
/// workload's manual instrumentation and over the compiler pass's output.
pub(super) fn misuse(_tx: usize, _results: &[RunResult]) {
    banner(
        "Misuse detection (§6) — static analysis of pre-execution placement",
        "stale hints / useless requests / short windows, per workload",
    );
    println!(
        "{:<12} {:<8} {:>9} {:>12} {:>8} {:>8} {:>8}",
        "workload", "instr", "requests", "well-placed", "stale", "useless", "short"
    );
    println!("{}", "-".repeat(72));
    for w in Workload::all() {
        for (label, manual) in [("manual", true), ("auto", false)] {
            let cfg = WorkloadConfig {
                transactions: 50,
                instrumentation: if manual {
                    Instrumentation::Manual
                } else {
                    Instrumentation::None
                },
                ..WorkloadConfig::default()
            };
            let out = generate(w, 0, &cfg);
            let program = if manual {
                out.program
            } else {
                instrument(&out.program).0
            };
            let r = detect_misuse(&program);
            println!(
                "{:<12} {:<8} {:>9} {:>12} {:>8} {:>8} {:>8}",
                w.name(),
                label,
                r.requests,
                r.well_placed,
                r.stale_hints(),
                r.useless(),
                r.short_windows()
            );
        }
    }
    println!("\nShort windows flag requests that cannot fully hide the ~691 ns BMO");
    println!("critical path; the undo-log pattern covers them dynamically (the fence");
    println!("of the preceding step extends the real window), so treat them as hints.");
}

const SKEW_WORKLOADS: [Workload; 3] = [Workload::Tatp, Workload::HashTable, Workload::ArraySwap];

pub(super) fn skew_specs(tx: usize) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for w in SKEW_WORKLOADS {
        for skew in [None, Some(0.6), Some(0.9), Some(0.99)] {
            for variant in [Variant::Serialized, Variant::JanusManual] {
                let mut s = spec(w, variant, tx);
                s.key_skew = skew;
                specs.push(s);
            }
        }
    }
    specs
}

/// Key-skew sensitivity: Zipfian hot keys change the access distribution
/// that real deployments see (YCSB-style θ up to 0.99). The experiment
/// checks that Janus's benefit is *distribution-insensitive*: with
/// single-threaded transactions each pre-execution is consumed within its
/// own transaction, so hot keys neither help nor hurt — the counters
/// confirm no extra §4.3.1 invalidations and the speedup stays flat.
pub(super) fn skew(tx: usize, results: &[RunResult]) {
    banner(
        "Key-skew sensitivity (extension experiment)",
        &format!("TATP / Hash Table / Array Swap, 1 core, {tx} tx"),
    );
    let widths = [12, 9, 10, 12, 12];
    header(
        &["workload", "skew", "janus", "inval-meta", "inval-data"],
        &widths,
    );
    for r in results.chunks(2) {
        let (base, janus) = (&r[0], &r[1]);
        print_row(
            &[
                base.spec.workload.name().into(),
                base.spec
                    .key_skew
                    .map_or("uniform".into(), |t| format!("{t}")),
                format!("{:.2}x", speedup(base, janus)),
                janus.report.counter("inval_meta").to_string(),
                janus.report.counter("inval_data").to_string(),
            ],
            &widths,
        );
    }
    println!("\nJanus's speedup is insensitive to key skew: pre-executions are consumed");
    println!("within their own transactions, so hot keys cause no additional stale-data");
    println!("or stale-metadata invalidations. (Every run is functionally verified.)");
}

/// The multi-tenant sweep: {shared, banked:64, partitioned:64} IRB
/// policies × {1, 4, 16} open-loop tenants × two Poisson arrival rates on
/// 4 worker cores, tenants running TATP / Hash Table / Queue / TPC-C
/// round-robin.
pub(super) fn multicore_specs(tx: usize) -> Vec<RunSpec> {
    let mix = vec![
        Workload::Tatp,
        Workload::HashTable,
        Workload::Queue,
        Workload::Tpcc,
    ];
    let mut specs = Vec::new();
    for irb_policy in [
        IrbPolicy::Shared,
        IrbPolicy::Banked { per_tenant: 64 },
        IrbPolicy::Partitioned { quota: 64 },
    ] {
        for tenants in [1, 4, 16] {
            for mean in [40_000, 10_000] {
                let mut s = spec(Workload::Tatp, Variant::JanusManual, tx);
                s.cores = 4;
                s.irb_policy = irb_policy;
                s.open_loop = Some(OpenLoopSpec {
                    tenants,
                    arrival: Arrival::Poisson { mean: Cycles(mean) },
                    mix: mix.clone(),
                });
                specs.push(s);
            }
        }
    }
    specs
}

/// Per-tenant arrival→persistence latency, system throughput and the Jain
/// fairness index across tenants, one row per open-loop spec plus one
/// line per tenant.
pub(super) fn multicore(tx: usize, results: &[RunResult]) {
    let first = &results[0].spec;
    let mix: Vec<&str> = open_loop(first)
        .mix
        .iter()
        .map(|w| w.name().split(' ').next().unwrap_or_default())
        .collect();
    banner(
        "Multi-tenant open-loop sweep — IRB policy x tenants x arrival rate",
        &format!(
            "{} cores; {tx} tx/tenant; mix {}; per-tenant arrival->persistence latency",
            first.cores,
            mix.join("/")
        ),
    );
    let widths = [16, 8, 15, 9, 6, 11, 11, 11];
    header(
        &[
            "irb-policy",
            "tenants",
            "arrival",
            "tx/Mcyc",
            "jain",
            "p50",
            "p99",
            "p999",
        ],
        &widths,
    );
    for r in results {
        let ol = open_loop(&r.spec);
        let worst = |f: fn(&TenantReport) -> Cycles| {
            r.report.tenants.iter().map(f).max().unwrap_or(Cycles::ZERO)
        };
        print_row(
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
            &widths,
        );
        // Per-tenant tail detail (the JSONL rows carry the same numbers
        // as tenant{i}.* keys).
        for (i, t) in r.report.tenants.iter().enumerate() {
            println!(
                "    tenant {i:>2} [{:>10}]  done {:>3}/{:<3}  p50 {:>8}  p99 {:>8}  p999 {:>8}  max {:>8}",
                ol.mix[i % ol.mix.len()].slug(),
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

fn open_loop(s: &RunSpec) -> &OpenLoopSpec {
    s.open_loop.as_ref().expect("an open-loop spec")
}

/// The default workload × variant grid: every workload under the
/// serialized, parallelized, manual and compiler-pass variants.
pub(super) fn sweep_specs(tx: usize) -> Vec<RunSpec> {
    let variants = [
        Variant::Serialized,
        Variant::Parallelized,
        Variant::JanusManual,
        Variant::JanusAuto,
    ];
    grid(&Workload::all(), &variants, tx)
}

/// Cycles, throughput and speedup over each workload's first variant, one
/// row per point of a workload-major grid.
pub(super) fn sweep(tx: usize, results: &[RunResult]) {
    let first = &results[0].spec;
    let variants = results
        .iter()
        .take_while(|r| r.spec.workload == first.workload)
        .count();
    banner(
        "janus-sweep — workload x variant grid",
        &format!(
            "{} workloads x {variants} variants; {tx} tx/core; {} core(s); seed {}; \
             speedup vs {}",
            results.len() / variants,
            first.cores,
            first.seed,
            first.variant.label(),
        ),
    );
    let widths = [12, 18, 12, 9, 9];
    header(
        &["workload", "variant", "cycles", "tx/Mcyc", "speedup"],
        &widths,
    );
    for chunk in results.chunks(variants) {
        for r in chunk {
            print_row(
                &[
                    r.spec.workload.slug().into(),
                    r.spec.variant.label().into(),
                    r.report.cycles.0.to_string(),
                    format!("{:.1}", r.report.tx_per_mcycle()),
                    format!("{:.2}x", speedup(&chunk[0], r)),
                ],
                &widths,
            );
        }
    }
}
