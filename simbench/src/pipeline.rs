//! One simulator run, called layer by layer so each call can be timed and
//! wrapped in a span: generate (`workloads`), the compiler pass
//! (`instrument`), `System::new` plus cache warming, the event loop and the
//! oracle check (`core`). The steps and their order are those of
//! `janus_bench::run_timed`; every run checks that both produce the same
//! report.

use janus_bench::{RunSpec, Variant};
use janus_core::ir::{Op, Program};
use janus_core::system::{ConfigError, ExecutionReport, System};
use janus_core::tenant::TenantStream;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_nvm::store::LineStore;
use janus_sim::hash::FxHashMap;
use janus_workloads::traffic::generate_tenants;
use janus_workloads::{generate, Instrumentation, WorkloadConfig};

use crate::spans::Spans;

/// Host time and work of the set-up phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupCost {
    /// Workload generation.
    pub generate_s: f64,
    /// The automated compiler pass (0 when the variant runs none).
    pub instrument_s: f64,
    /// `System::new` plus cache warming.
    pub build_s: f64,
    /// Operations in the generated programs.
    pub program_ops: u64,
    /// Operations the compiler pass added.
    pub ops_added: u64,
}

impl SetupCost {
    /// Total set-up time.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.instrument_s + self.build_s
    }
}

enum Work {
    Cores(Vec<Program>),
    Tenants(Vec<TenantStream>),
}

/// A system built and warmed, with its inputs, ready to run.
pub struct Prepared {
    sys: System,
    work: Work,
    oracles: Vec<LineStore>,
    /// Cost of the set-up phases.
    pub cost: SetupCost,
}

/// A finished run.
pub struct Executed {
    /// The simulator's report.
    pub report: ExecutionReport,
    /// Cost of the set-up phases.
    pub cost: SetupCost,
    /// `try_run`/`try_run_tenants` only.
    pub run_s: f64,
    /// The oracle check.
    pub verify_s: f64,
    /// Lines whose simulated value differs from the workload's oracle.
    pub mismatched_lines: usize,
}

fn op_count(programs: &[Program]) -> u64 {
    programs.iter().map(|p| p.ops.len() as u64).sum()
}

/// Generates, instruments and builds the system for `spec`.
///
/// Of the compiler passes only the automated one (`Variant::JanusAuto`)
/// is applied: the suite runs no other.
pub fn prepare(spec: &RunSpec, spans: &mut Spans) -> Prepared {
    let mut cost = SetupCost::default();
    let open = spans.open("workloads.generate");
    let (work, oracles, resident) = if spec.open_loop.is_some() {
        let traffic = generate_tenants(&spec.tenant_specs(), spec.seed);
        let mut streams = Vec::with_capacity(traffic.len());
        let mut oracles = Vec::with_capacity(traffic.len());
        let mut resident = Vec::new();
        for t in traffic {
            cost.program_ops += op_count(&t.stream.txs);
            streams.push(t.stream);
            oracles.push(t.expected);
            resident.push(t.resident);
        }
        (Work::Tenants(streams), oracles, resident)
    } else {
        let instrumentation = match spec.variant {
            Variant::JanusManual | Variant::JanusFixed => Instrumentation::Manual,
            _ => Instrumentation::None,
        };
        let cfg = WorkloadConfig {
            transactions: spec.transactions,
            seed: spec.seed,
            dedup_ratio: spec.dedup_ratio,
            instrumentation,
            tx_size_bytes: spec.tx_size_bytes,
            key_skew: spec.key_skew,
            aux_tx_fraction: spec.aux_tx_fraction,
        };
        let mut programs = Vec::with_capacity(spec.cores);
        let mut oracles = Vec::with_capacity(spec.cores);
        let mut resident = Vec::new();
        for core in 0..spec.cores {
            let out = generate(spec.workload, core, &cfg);
            programs.push(out.program);
            oracles.push(out.expected);
            resident.push(out.resident);
        }
        cost.program_ops = op_count(&programs);
        (Work::Cores(programs), oracles, resident)
    };
    cost.generate_s = spans.close(open);

    let work = match work {
        Work::Cores(programs) if spec.variant == Variant::JanusAuto => {
            let open = spans.open("instrument.pass");
            let out: Vec<Program> = programs
                .iter()
                .map(|p| janus_instrument::instrument(p).0)
                .collect();
            cost.instrument_s = spans.close(open);
            cost.ops_added = op_count(&out).saturating_sub(cost.program_ops);
            Work::Cores(out)
        }
        other => other,
    };

    let open = spans.open("core.build");
    let mut sys = System::new(spec.config());
    sys.set_batched(!spec.legacy_events);
    // Per unit, the written set and then the resident structures, as
    // `run_timed` warms them: the L2's replacement state depends on order.
    for (oracle, resident) in oracles.iter().zip(resident) {
        sys.warm_caches(oracle.iter().map(|(a, _)| a));
        for (first, n) in resident {
            sys.warm_caches(first.span(n));
        }
    }
    cost.build_s = spans.close(open);

    Prepared {
        sys,
        work,
        oracles,
        cost,
    }
}

impl Prepared {
    /// The `(line, value)` pairs the run will write back, in program
    /// order: each `clwb` carries the value of its program's latest store to
    /// the line. Tenant transactions are taken in arrival order (ties by
    /// tenant), the order the front end dispatches them in; several cores'
    /// programs follow one another, so only single-core order is exact.
    pub fn clwb_stream(&self) -> Vec<(LineAddr, Line)> {
        clwb_stream(&self.work)
    }
}

/// Runs a prepared system and checks its memory against the oracles.
///
/// # Errors
///
/// The [`ConfigError`] the simulator rejects the inputs with.
pub fn execute(p: Prepared, spans: &mut Spans) -> Result<Executed, ConfigError> {
    let Prepared {
        mut sys,
        work,
        oracles,
        cost,
    } = p;
    let open = spans.open("core.run");
    let result = match work {
        Work::Cores(programs) => sys.try_run(programs),
        Work::Tenants(streams) => sys.try_run_tenants(streams),
    };
    let run_s = spans.close(open);
    let report = result?;
    let open = spans.open("core.verify");
    let mismatched_lines = oracles
        .iter()
        .flat_map(|o| o.iter())
        .filter(|(line, value)| sys.read_value(*line) != **value)
        .count();
    let verify_s = spans.close(open);
    Ok(Executed {
        report,
        cost,
        run_s,
        verify_s,
        mismatched_lines,
    })
}

fn clwb_stream(work: &Work) -> Vec<(LineAddr, Line)> {
    fn walk<'a>(
        ops: impl Iterator<Item = &'a Op>,
        last: &mut FxHashMap<LineAddr, Line>,
        out: &mut Vec<(LineAddr, Line)>,
    ) {
        for op in ops {
            match op {
                Op::Store { line, value } => {
                    last.insert(*line, *value);
                }
                Op::Clwb(line) => out.push((*line, last.get(line).copied().unwrap_or_default())),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    match work {
        Work::Cores(programs) => {
            for p in programs {
                walk(p.ops.iter(), &mut FxHashMap::default(), &mut out);
            }
        }
        Work::Tenants(streams) => {
            let mut order: Vec<(janus_sim::time::Cycles, usize, usize)> = streams
                .iter()
                .enumerate()
                .flat_map(|(t, s)| s.arrivals.iter().enumerate().map(move |(i, a)| (*a, t, i)))
                .collect();
            order.sort_unstable();
            let mut last: Vec<FxHashMap<LineAddr, Line>> =
                vec![FxHashMap::default(); streams.len()];
            for (_, t, i) in order {
                walk(streams[t].txs[i].ops.iter(), &mut last[t], &mut out);
            }
        }
    }
    out
}
