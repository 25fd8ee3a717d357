//! The benchmark's workloads and the run specs they resolve to.

use janus_bench::{OpenLoopSpec, RunSpec, Variant};
use janus_core::irb::IrbPolicy;
use janus_sim::time::Cycles;
use janus_workloads::traffic::Arrival;
use janus_workloads::Workload;

/// Worker threads of the `fig9_sweep` pool.
pub const SWEEP_JOBS: usize = 2;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// TATP UpdateLocation, hand-placed pre-execution, one core.
    TatpManual,
    /// B-tree inserts through the automated compiler pass, one core.
    BtreeAuto,
    /// Sixteen open-loop Poisson tenants on two cores, banked IRB.
    OpenMix,
    /// The Figure 9 grid through the sweep pool.
    Fig9Sweep,
}

/// Input size: the benchmarked size, or a tiny one for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs that still exercise every layer.
    Tiny,
}

impl Bench {
    /// Every workload, in reporting order.
    pub const ALL: [Bench; 4] = [
        Bench::TatpManual,
        Bench::BtreeAuto,
        Bench::OpenMix,
        Bench::Fig9Sweep,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Bench::TatpManual => "tatp_manual",
            Bench::BtreeAuto => "btree_auto",
            Bench::OpenMix => "open_mix",
            Bench::Fig9Sweep => "fig9_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Bench::TatpManual => {
                "the paper's headline path: event loop, functional BMO/crypto and IRB pre-execution; the schedule cache replays"
            }
            Bench::BtreeAuto => {
                "the automated compiler pass dominates host time; the schedule cache is bypassed"
            }
            Bench::OpenMix => {
                "open-loop tenants share the IRB and front end, with demand reads beside writes"
            }
            Bench::Fig9Sweep => {
                "the figure a researcher runs: the sweep pool and multi-core runs with a shared L2"
            }
        }
    }

    /// Whether the workload is a sweep through `run_all_jobs`.
    pub fn is_sweep(self) -> bool {
        self == Bench::Fig9Sweep
    }

    /// The run specs of one instance of the workload.
    pub fn specs(self, seed: u64, size: Size) -> Vec<RunSpec> {
        let tiny = size == Size::Tiny;
        let spec = |w, v, tx| {
            let mut s = RunSpec::new(w, v);
            s.transactions = tx;
            s.seed = seed;
            // Pin the default paths regardless of the environment.
            s.legacy_events = false;
            s.interpreted_sched = false;
            s
        };
        match self {
            Bench::TatpManual => {
                vec![spec(
                    Workload::Tatp,
                    Variant::JanusManual,
                    if tiny { 200 } else { 10_000 },
                )]
            }
            Bench::BtreeAuto => {
                vec![spec(
                    Workload::BTree,
                    Variant::JanusAuto,
                    if tiny { 150 } else { 1_000 },
                )]
            }
            Bench::OpenMix => {
                let mut s = spec(
                    Workload::Tatp,
                    Variant::JanusManual,
                    if tiny { 20 } else { 400 },
                );
                s.cores = 2;
                s.irb_policy = IrbPolicy::Banked { per_tenant: 64 };
                s.open_loop = Some(OpenLoopSpec {
                    tenants: 16,
                    arrival: Arrival::Poisson {
                        mean: Cycles(10_000),
                    },
                    mix: vec![
                        Workload::Tatp,
                        Workload::HashTable,
                        Workload::Tpcc,
                        Workload::Queue,
                    ],
                });
                vec![s]
            }
            Bench::Fig9Sweep => {
                let tx = if tiny { 5 } else { 150 };
                let mut specs = Vec::new();
                for w in Workload::all() {
                    for cores in [1, 2, 4, 8] {
                        for v in [
                            Variant::Serialized,
                            Variant::Parallelized,
                            Variant::JanusManual,
                        ] {
                            let mut s = spec(w, v, tx);
                            s.cores = cores;
                            specs.push(s);
                        }
                    }
                }
                specs
            }
        }
    }

    /// The workload's parameters in one line, for self-describing output.
    pub fn params(self, size: Size) -> String {
        let specs = self.specs(0, size);
        let s = &specs[0];
        match self {
            Bench::OpenMix => {
                let ol = s.open_loop.as_ref().expect("open-loop spec");
                let mix: Vec<&str> = ol.mix.iter().map(|w| w.slug()).collect();
                format!(
                    "open loop, {} tenants x {} tx, arrival {}, mix {}, {} cores, irb {}, variant {}",
                    ol.tenants,
                    s.transactions,
                    ol.arrival,
                    mix.join("+"),
                    s.cores,
                    s.irb_policy,
                    s.variant.label()
                )
            }
            Bench::Fig9Sweep => format!(
                "closed loop, {} specs (7 workloads x cores 1,2,4,8 x 3 variants), {} tx/core, {} jobs",
                specs.len(),
                s.transactions,
                SWEEP_JOBS
            ),
            _ => format!(
                "closed loop, {} x {} tx, {} core, variant {}",
                s.workload.slug(),
                s.transactions,
                s.cores,
                s.variant.label()
            ),
        }
    }
}
