//! # janus-bench — the experiment harness
//!
//! Every table/figure of the paper's evaluation is an entry of the
//! [`figures`] registry, run by the `janus-fig` binary (see DESIGN.md §5
//! for the index). This library holds the shared runner: it builds the
//! configured system, generates one workload instance per core, applies the
//! requested instrumentation (manual, automated compiler pass, or none),
//! runs the simulation, verifies functional correctness against the
//! workload's oracle, and returns the execution report.

pub mod cli;
pub mod figures;
pub mod pool;
pub mod timing;

use std::io::Write as _;

use janus_core::config::{JanusConfig, SystemMode};
use janus_core::ir::Program;
use janus_core::irb::IrbPolicy;
use janus_core::system::{ExecutionReport, System};
use janus_instrument::instrument;
use janus_trace::metrics::MetricsRegistry;
use janus_trace::{TraceConfig, Tracer};
use janus_workloads::traffic::{generate_tenants, Arrival, TenantSpec};
use janus_workloads::{generate, Instrumentation, Workload, WorkloadConfig};

pub use cli::{require_known_args, SweepArgs};

/// The five evaluated system variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Baseline: serialized BMOs.
    Serialized,
    /// Parallelized sub-operations, no pre-execution.
    Parallelized,
    /// Janus with hand-placed pre-execution calls.
    JanusManual,
    /// Janus with the automated compiler pass.
    JanusAuto,
    /// Janus with the profile-guided pass (the §6 future-work extension).
    JanusAutoPgo,
    /// Janus with `janus-lint`'s dominance-based placement pass
    /// ([`janus_lint::auto_place`]).
    JanusAutoPlace,
    /// Janus with hand-placed calls, a seeded §6 misuse, and the autofix
    /// engine ([`janus_lint::fix_default`]) repairing it — the end-to-end
    /// "misused, then `--fix`ed" variant; its cycles should recover the
    /// manual variant's speedup.
    JanusFixed,
    /// Non-blocking-writeback ideal (§5.2.2).
    Ideal,
}

impl Variant {
    /// All eight variants, in [`Variant::slug`] order.
    pub const ALL: [Variant; 8] = [
        Variant::Serialized,
        Variant::Parallelized,
        Variant::JanusManual,
        Variant::JanusAuto,
        Variant::JanusAutoPgo,
        Variant::JanusAutoPlace,
        Variant::JanusFixed,
        Variant::Ideal,
    ];

    /// The simulator mode for this variant.
    pub fn mode(self) -> SystemMode {
        match self {
            Variant::Serialized => SystemMode::Serialized,
            Variant::Parallelized => SystemMode::Parallelized,
            Variant::JanusManual
            | Variant::JanusAuto
            | Variant::JanusAutoPgo
            | Variant::JanusAutoPlace
            | Variant::JanusFixed => SystemMode::Janus,
            Variant::Ideal => SystemMode::Ideal,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Serialized => "Serialized",
            Variant::Parallelized => "Parallelization",
            Variant::JanusManual => "Janus (Manual)",
            Variant::JanusAuto => "Janus (Auto)",
            Variant::JanusAutoPgo => "Janus (PGO)",
            Variant::JanusAutoPlace => "Janus (AutoPlace)",
            Variant::JanusFixed => "Janus (Fixed)",
            Variant::Ideal => "Non-blocking",
        }
    }

    /// Machine-safe name, the canonical command-line spelling.
    pub fn slug(self) -> &'static str {
        match self {
            Variant::Serialized => "serialized",
            Variant::Parallelized => "parallelized",
            Variant::JanusManual => "janus-manual",
            Variant::JanusAuto => "janus-auto",
            Variant::JanusAutoPgo => "janus-pgo",
            Variant::JanusAutoPlace => "janus-autoplace",
            Variant::JanusFixed => "janus-fixed",
            Variant::Ideal => "ideal",
        }
    }

    /// The instrumentation the workload generator emits for this variant:
    /// hand-placed calls for the manual and fixed variants, none for the
    /// rest (the compiler-pass variants instrument the plain program).
    pub fn instrumentation(self) -> Instrumentation {
        match self {
            Variant::JanusManual | Variant::JanusFixed => Instrumentation::Manual,
            _ => Instrumentation::None,
        }
    }
}

/// Accepts the [`Variant::slug`], the [`Variant::label`] and the short
/// spellings (`janus`, `manual`, `auto`, `compiler`, `pgo`, `profile`,
/// `place`, `autoplace`, `fixed`), ignoring case.
impl std::str::FromStr for Variant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "serialized" => Variant::Serialized,
            "parallelized" | "parallelization" => Variant::Parallelized,
            "janus-manual" | "janus (manual)" | "janus" | "manual" => Variant::JanusManual,
            "janus-auto" | "janus (auto)" | "auto" | "compiler" => Variant::JanusAuto,
            "janus-pgo" | "janus (pgo)" | "pgo" | "profile" => Variant::JanusAutoPgo,
            "janus-autoplace" | "janus (autoplace)" | "place" | "autoplace" => {
                Variant::JanusAutoPlace
            }
            "janus-fixed" | "janus (fixed)" | "fixed" => Variant::JanusFixed,
            "ideal" | "non-blocking" => Variant::Ideal,
            _ => {
                let known: Vec<&str> = Variant::ALL.iter().map(|v| v.slug()).collect();
                return Err(format!("unknown variant {s:?} (known: {known:?})"));
            }
        })
    }
}

/// A complete experiment specification.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// The system variant.
    pub variant: Variant,
    /// Core count (one workload instance per core).
    pub cores: usize,
    /// Transactions per core.
    pub transactions: usize,
    /// Target dedup ratio.
    pub dedup_ratio: f64,
    /// Payload bytes per transaction step (Figure 13).
    pub tx_size_bytes: usize,
    /// Use CRC-32 instead of MD5 for dedup fingerprints (Figure 12).
    pub crc32: bool,
    /// Pre-execution resource scaling: `None` = paper default, `Some(k)` =
    /// k×, `Some(usize::MAX)` = unlimited (Figure 14).
    pub resource_scale: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Optional Zipfian key skew for the key-selecting workloads.
    pub key_skew: Option<f64>,
    /// Fraction of auxiliary transactions (TATP reads / TPC-C payments).
    pub aux_tx_fraction: f64,
    /// Event tracing for this run (`None` = disabled, the zero-overhead
    /// default). When set, [`RunResult::tracer`] holds the captured events.
    pub trace: Option<TraceConfig>,
    /// Causal profiling (`janus-prof`): trace in causal mode so the stream
    /// carries `prof_*` link events and `janus_prof::Profile::build` can
    /// reconstruct per-write causal chains. Uses [`RunSpec::trace`]'s ring
    /// capacity when set, else a ring sized for whole-run capture.
    pub profile: bool,
    /// Sample the simulator's counters every N cycles into
    /// [`RunResult::samples`] (profile runs export these as Chrome
    /// counter tracks).
    pub sample_every: Option<u64>,
    /// BMO stack override (`None` = the paper's default trio).
    pub bmo_stack: Option<Vec<janus_bmo::BmoId>>,
    /// Run the one-event-at-a-time legacy dispatch loop instead of the
    /// batched one (`--legacy-events`, see [`SweepArgs`]). Both paths
    /// must produce byte-identical reports; this is the executable spec the
    /// batched loop is differentially tested against.
    pub legacy_events: bool,
    /// How IRB capacity is apportioned across threads/tenants
    /// ([`IrbPolicy::Shared`] = the paper's configuration).
    pub irb_policy: IrbPolicy,
    /// Force the engine's interpreted scheduler instead of compiled-template
    /// replay (`--interpreted-sched`, see [`SweepArgs`]). Both
    /// paths must produce byte-identical reports; this is the executable
    /// spec the compiled path is differentially tested against.
    pub interpreted_sched: bool,
    /// Multi-tenant open-loop mode: when set, the run ignores the
    /// one-program-per-core model and instead drives [`RunSpec::cores`]
    /// worker cores from `tenants` open-loop streams
    /// ([`System::try_run_tenants`]); [`RunSpec::workload`] is unused and
    /// the mix comes from [`OpenLoopSpec::mix`].
    pub open_loop: Option<OpenLoopSpec>,
}

/// The open-loop half of a [`RunSpec`] (see [`RunSpec::open_loop`]).
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// Number of tenants.
    pub tenants: usize,
    /// Arrival process shared by every tenant.
    pub arrival: Arrival,
    /// Transaction mixes, assigned round-robin: tenant `i` runs
    /// `mix[i % mix.len()]`.
    pub mix: Vec<Workload>,
}

impl RunSpec {
    /// The paper's default setup for a workload/variant pair.
    pub fn new(workload: Workload, variant: Variant) -> Self {
        RunSpec {
            workload,
            variant,
            cores: 1,
            transactions: 200,
            dedup_ratio: 0.5,
            tx_size_bytes: 64,
            crc32: false,
            resource_scale: None,
            seed: 42,
            key_skew: None,
            aux_tx_fraction: 0.0,
            trace: None,
            profile: false,
            sample_every: None,
            bmo_stack: None,
            legacy_events: false,
            irb_policy: IrbPolicy::Shared,
            interpreted_sched: false,
            open_loop: None,
        }
    }

    /// The simulator configuration this spec resolves to (the profiler
    /// derives its `DepGraph` oracle from the same source).
    pub fn config(&self) -> JanusConfig {
        let mut c = JanusConfig::paper(self.variant.mode(), self.cores);
        if self.crc32 {
            c = c.with_crc32();
        }
        match self.resource_scale {
            None => {}
            Some(usize::MAX) => c = c.unlimited(),
            Some(k) => c = c.scale_resources(k),
        }
        if let Some(stack) = &self.bmo_stack {
            c.bmo_stack = stack.clone();
        }
        c.irb_policy = self.irb_policy;
        c.interpreted_sched = self.interpreted_sched;
        c
    }

    /// The per-tenant traffic specs an open-loop run resolves to.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no [`RunSpec::open_loop`] half.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        let ol = self.open_loop.as_ref().expect("an open-loop RunSpec");
        let instrumentation = self.variant.instrumentation();
        (0..ol.tenants)
            .map(|t| TenantSpec {
                workload: ol.mix[t % ol.mix.len()],
                transactions: self.transactions,
                arrival: ol.arrival,
                key_skew: self.key_skew,
                tx_size_bytes: self.tx_size_bytes,
                instrumentation,
            })
            .collect()
    }

    /// What the spec runs, for one-line summaries: the workload, or the
    /// open-loop tenants and their mix.
    pub fn subject(&self) -> String {
        match &self.open_loop {
            Some(ol) => {
                let mix: Vec<&str> = ol.mix.iter().map(|w| w.slug()).collect();
                format!("{} tenants of {}", ol.tenants, mix.join(","))
            }
            None => self.workload.to_string(),
        }
    }

    /// The `spec.*` labels that identify this spec in a results row, one
    /// per `cli::KNOBS` entry that is not at its default.
    pub fn labels(&self) -> MetricsRegistry {
        // Every field is either a knob or named here as result-neutral, so
        // a new field does not compile until it is classified.
        let RunSpec {
            workload: _,
            variant: _,
            cores: _,
            transactions: _,
            dedup_ratio: _,
            tx_size_bytes: _,
            crc32: _,
            resource_scale: _,
            seed: _,
            key_skew: _,
            aux_tx_fraction: _,
            bmo_stack: _,
            irb_policy: _,
            open_loop: _,
            // Not labelled: observation and twin-path switches must not
            // change results.
            trace: _,
            profile: _,
            sample_every: _,
            legacy_events: _,
            interpreted_sched: _,
        } = self;
        let mut m = MetricsRegistry::new();
        for k in cli::KNOBS {
            if let Some(v) = (k.format)(self) {
                m.set(k.label, v);
            }
        }
        m
    }

    /// Reads a spec back from a results row's `spec.*` labels (other
    /// metrics are ignored), through the same parsers as the command-line
    /// flags. The labels must be exactly those the spec writes, in order:
    /// an unknown, missing or default-valued label is an error.
    pub fn from_labels(row: &MetricsRegistry) -> Result<RunSpec, String> {
        let mut spec = RunSpec::new(Workload::Tatp, Variant::Serialized);
        let mut given = MetricsRegistry::new();
        for (name, v) in row.iter().filter(|(name, _)| name.starts_with("spec.")) {
            let knob = cli::KNOBS.iter().find(|k| k.label == name);
            let knob = knob.ok_or_else(|| format!("unknown label {name}"))?;
            (knob.parse)(&mut spec, name, &v.to_string())?;
            given.set(name, v.clone());
        }
        let (given, written) = (given.to_json(), spec.labels().to_json());
        if given != written {
            return Err(format!("labels {given} read back as {written}"));
        }
        Ok(spec)
    }

    #[allow(clippy::type_complexity)]
    fn program_for_core(
        &self,
        core: usize,
    ) -> (
        Program,
        janus_nvm::store::LineStore,
        Vec<(janus_nvm::addr::LineAddr, u64)>,
    ) {
        let cfg = WorkloadConfig {
            transactions: self.transactions,
            seed: self.seed,
            dedup_ratio: self.dedup_ratio,
            instrumentation: self.variant.instrumentation(),
            tx_size_bytes: self.tx_size_bytes,
            key_skew: self.key_skew,
            aux_tx_fraction: self.aux_tx_fraction,
        };
        let out = generate(self.workload, core, &cfg);
        let program = match self.variant {
            Variant::JanusAuto => instrument(&out.program).0,
            Variant::JanusAutoPgo => janus_instrument::dynamic::instrument_dynamic(&out.program).0,
            Variant::JanusAutoPlace => janus_lint::auto_place(&out.program).0,
            Variant::JanusFixed => {
                // Start from the hand instrumentation, seed the canonical
                // §6 misuse, and let the autofix engine repair it.
                let mut seeded = out.program;
                janus_lint::seed_stale_hint(&mut seeded);
                janus_lint::fix_default(&seeded).program
            }
            _ => out.program,
        };
        (program, out.expected, out.resident)
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The simulator's report.
    pub report: ExecutionReport,
    /// The spec that produced it.
    pub spec: RunSpec,
    /// The run's event tracer — disabled unless [`RunSpec::trace`] or
    /// [`RunSpec::profile`] was set.
    pub tracer: Tracer,
    /// Counter samples — empty unless [`RunSpec::sample_every`] was set.
    pub samples: Vec<janus_trace::Sample>,
}

impl RunResult {
    /// Execution cycles (the metric every speedup is computed from).
    pub fn cycles(&self) -> f64 {
        self.report.cycles.0 as f64
    }

    /// Machine-readable metrics for this run: the spec's
    /// [`labels`](RunSpec::labels) followed by the report's full registry.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.spec.labels();
        for (name, value) in self.report.to_metrics().iter() {
            m.set(name, value.clone());
        }
        m
    }
}

/// When `JANUS_RESULTS_JSON_DIR` names a directory, appends each result's
/// metrics as one JSON line to `<dir>/<name>.jsonl`, in order. [`run_all`]
/// calls this with the name of the figure or tool running the sweep, so
/// exporting machine-readable results for all of them is
/// `JANUS_RESULTS_JSON_DIR=out cargo run --release ...`.
fn sink_results_jsonl(name: &str, results: &[RunResult]) {
    let Ok(dir) = std::env::var("JANUS_RESULTS_JSON_DIR") else {
        return;
    };
    if dir.is_empty() || results.is_empty() {
        return;
    }
    let path = std::path::Path::new(&dir).join(format!("{name}.jsonl"));
    let append = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        for r in results {
            writeln!(f, "{}", r.metrics().to_json())?;
        }
        Ok(())
    };
    if let Err(e) = append() {
        eprintln!(
            "warning: could not append metrics to {}: {e}",
            path.display()
        );
    }
}

/// Runs one experiment and verifies the functional oracle.
///
/// # Panics
///
/// Panics if the simulated NVM contents differ from the workload's expected
/// final state — the harness refuses to report numbers from a broken run.
pub fn run(spec: RunSpec) -> RunResult {
    run_timed(spec).0
}

/// [`run`] on a hand-modified configuration instead of
/// [`RunSpec::config`], for ablations of knobs no spec field exposes. The
/// result's metrics still describe `spec`, so such runs are not exported.
pub fn run_with_config(spec: RunSpec, config: JanusConfig) -> RunResult {
    run_timed_with(spec, config).0
}

/// [`run`] plus the wall-clock seconds the *event loop proper* took —
/// `System::try_run`/`try_run_tenants` only, excluding workload generation,
/// system construction, and oracle verification. This is the denominator
/// of simbench's `events_per_s` (and its `run_s`): the events/sec metric is
/// honest only if the wall time covers exactly the loop that processed
/// those events.
pub fn run_timed(spec: RunSpec) -> (RunResult, f64) {
    let config = spec.config();
    run_timed_with(spec, config)
}

fn run_timed_with(spec: RunSpec, config: JanusConfig) -> (RunResult, f64) {
    let mut sys = System::new(config);
    sys.set_batched(!spec.legacy_events);
    let tracer = if spec.profile {
        let cfg = spec
            .trace
            .clone()
            .unwrap_or(TraceConfig { capacity: 1 << 21 });
        sys.enable_profiling(&cfg)
    } else {
        match &spec.trace {
            Some(cfg) => sys.enable_trace(cfg),
            None => Tracer::disabled(),
        }
    };
    if let Some(every) = spec.sample_every {
        sys.enable_sampling(janus_sim::time::Cycles(every));
    }
    // A run request the configuration rejects is a usage error, not a bug in
    // the harness: report it and exit with the CLI usage status.
    let surface = |e: janus_core::system::ConfigError| -> ! {
        eprintln!("error: invalid run configuration: {e}");
        std::process::exit(2);
    };
    let (report, oracles, loop_secs) = if spec.open_loop.is_some() {
        let traffic = generate_tenants(&spec.tenant_specs(), spec.seed);
        let mut streams = Vec::with_capacity(traffic.len());
        let mut oracles = Vec::with_capacity(traffic.len());
        for t in traffic {
            sys.warm_caches(t.expected.iter().map(|(a, _)| a));
            for (first, n) in t.resident {
                sys.warm_caches(first.span(n));
            }
            streams.push(t.stream);
            oracles.push(t.expected);
        }
        let t0 = std::time::Instant::now();
        let report = sys.try_run_tenants(streams).unwrap_or_else(|e| surface(e));
        (report, oracles, t0.elapsed().as_secs_f64())
    } else {
        let mut programs = Vec::with_capacity(spec.cores);
        let mut oracles = Vec::with_capacity(spec.cores);
        for core in 0..spec.cores {
            let (p, expected, resident) = spec.program_for_core(core);
            programs.push(p);
            // Steady-state measurement: the workload's written set and its
            // declared resident structures start warm in the shared L2.
            sys.warm_caches(expected.iter().map(|(a, _)| a));
            for (first, n) in resident {
                sys.warm_caches(first.span(n));
            }
            oracles.push(expected);
        }
        let t0 = std::time::Instant::now();
        let report = sys.try_run(programs).unwrap_or_else(|e| surface(e));
        (report, oracles, t0.elapsed().as_secs_f64())
    };
    for (unit, oracle) in oracles.iter().enumerate() {
        for (line, value) in oracle.iter() {
            assert_eq!(
                &sys.read_value(line),
                value,
                "{} [{}] {} {unit}: line {line} diverged",
                spec.workload,
                spec.variant.label(),
                if spec.open_loop.is_some() {
                    "tenant"
                } else {
                    "core"
                },
            );
        }
    }
    let samples = sys.samples().to_vec();
    (
        RunResult {
            report,
            spec,
            tracer,
            samples,
        },
        loop_secs,
    )
}

/// Runs a batch of independent specs under the [`SweepArgs`] options: the
/// twin-path switches are applied to every spec and the specs are fanned
/// across `jobs` worker threads ([`run_all_jobs`]). When
/// `JANUS_RESULTS_JSON_DIR` names a directory, each result's metrics are
/// appended to `<dir>/<name>.jsonl`. Results come back in spec order;
/// output is byte-identical at any worker count.
pub fn run_all(name: &str, mut specs: Vec<RunSpec>, args: &SweepArgs) -> Vec<RunResult> {
    args.apply(&mut specs);
    let results = run_all_jobs(specs, args.jobs);
    sink_results_jsonl(name, &results);
    results
}

/// Runs specs across `jobs` worker threads, returning results in spec
/// order. Writes no files.
///
/// Output is byte-identical at any worker count: each simulation is a
/// sealed deterministic timeline (parallelism never reaches inside one) and
/// results come back in spec order. Traced specs hold a non-`Send` ring
/// buffer, so a batch containing one falls back to in-order sequential
/// execution — identical output, just not fanned out.
pub fn run_all_jobs(specs: Vec<RunSpec>, jobs: usize) -> Vec<RunResult> {
    if jobs <= 1 || specs.len() <= 1 || specs.iter().any(|s| s.trace.is_some() || s.profile) {
        return specs.into_iter().map(run).collect();
    }
    // Workers return only `Send` parts; the tracer slot is refilled with a
    // disabled handle on the way out (untraced runs never record anyway).
    let reports = pool::parallel_map(specs, jobs, |spec| {
        let r = run(spec);
        (r.report, r.spec, r.samples)
    });
    reports
        .into_iter()
        .map(|(report, spec, samples)| RunResult {
            report,
            spec,
            tracer: Tracer::disabled(),
            samples,
        })
        .collect()
}

/// Speedup of `fast` over `slow` (cycles ratio).
pub fn speedup(slow: &RunResult, fast: &RunResult) -> f64 {
    slow.cycles() / fast.cycles()
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a standard experiment header.
pub fn banner(title: &str, detail: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{detail}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_variants_agree_functionally() {
        // The oracle assertions inside `run` are the real test.
        for variant in [
            Variant::Serialized,
            Variant::Parallelized,
            Variant::JanusManual,
            Variant::JanusAuto,
            Variant::Ideal,
        ] {
            let mut spec = RunSpec::new(Workload::ArraySwap, variant);
            spec.transactions = 10;
            let r = run(spec);
            assert_eq!(r.report.transactions, 10);
        }
    }

    #[test]
    fn speedup_ordering_on_tatp() {
        let mut s = RunSpec::new(Workload::Tatp, Variant::Serialized);
        s.transactions = 200;
        let mut p = s.clone();
        p.variant = Variant::Parallelized;
        let mut j = s.clone();
        j.variant = Variant::JanusManual;
        let (rs, rp, rj) = (run(s), run(p), run(j));
        assert!(speedup(&rs, &rp) > 1.0);
        assert!(speedup(&rs, &rj) > speedup(&rs, &rp));
        // The compiled schedule cache is live: full submits replay a
        // template instead of walking the interpreted scheduler.
        assert!(rj.report.sched_cache.0 > 0, "{:?}", rj.report.sched_cache);
    }

    #[test]
    fn traced_run_captures_events_and_metrics_carry_spec_labels() {
        let mut spec = RunSpec::new(Workload::Queue, Variant::JanusManual);
        spec.transactions = 5;
        spec.trace = Some(TraceConfig::default());
        let r = run(spec);
        assert!(r.tracer.enabled());
        assert!(r.tracer.recorded() > 0, "a traced run must record events");
        let m = r.metrics();
        assert_eq!(
            m.get("spec.workload"),
            Some(&janus_trace::MetricValue::Str("queue".into()))
        );
        assert!(m.get("sim.cycles").is_some());
        // Untraced runs stay untraced.
        let plain = run(RunSpec::new(Workload::Queue, Variant::JanusManual));
        assert!(!plain.tracer.enabled());
    }

    #[test]
    fn stack_override_runs_and_labels_metrics() {
        let mut spec = RunSpec::new(Workload::ArraySwap, Variant::JanusManual);
        spec.transactions = 8;
        spec.bmo_stack = Some(
            janus_bmo::BmoStack::parse("enc,ecc")
                .unwrap()
                .members()
                .to_vec(),
        );
        let r = run(spec);
        assert_eq!(
            r.metrics().get("spec.bmo_stack"),
            Some(&janus_trace::MetricValue::Str("enc,ecc".into()))
        );
        // Default runs stay unlabeled (published JSONL compatibility).
        let mut plain = RunSpec::new(Workload::ArraySwap, Variant::JanusManual);
        plain.transactions = 8;
        assert_eq!(run(plain).metrics().get("spec.bmo_stack"), None);
    }

    #[test]
    fn variant_slugs_are_machine_safe_and_round_trip() {
        for v in Variant::ALL {
            let slug = v.slug();
            assert!(
                slug.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{v:?}: slug {slug:?} is not machine-safe"
            );
            assert_eq!(slug.parse::<Variant>(), Ok(v), "{v:?}");
            // Result rows name the variant by label, and replay reads it back.
            assert_eq!(v.label().parse::<Variant>(), Ok(v), "{v:?}");
        }
        assert!("bogus".parse::<Variant>().is_err());
    }

    #[test]
    fn knob_flags_and_labels_are_unique() {
        let flags: Vec<&str> = cli::KNOBS.iter().map(|k| k.flag.name()).collect();
        let labels: Vec<&str> = cli::KNOBS.iter().map(|k| k.label).collect();
        for names in [&flags, &labels] {
            let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
            assert_eq!(unique.len(), names.len(), "{names:?}");
        }
    }

    #[test]
    fn open_loop_rows_label_only_the_fields_the_run_reads() {
        // An open-loop run takes its workloads from the mix and never reads
        // `workload` or `dedup_ratio`, so they must not tell rows apart.
        let open = |workload, dedup_ratio| {
            let mut s = RunSpec::new(workload, Variant::JanusManual);
            s.dedup_ratio = dedup_ratio;
            s.open_loop = Some(OpenLoopSpec {
                tenants: 4,
                arrival: Arrival::Poisson {
                    mean: janus_sim::time::Cycles(10_000),
                },
                mix: vec![Workload::Queue, Workload::Tpcc],
            });
            s
        };
        let (a, b) = (open(Workload::Tatp, 0.5), open(Workload::BTree, 0.9));
        assert_eq!(a.labels().to_json(), b.labels().to_json());
        assert_eq!(a.labels().get("spec.workload"), None);
        assert_eq!(a.labels().get("spec.dedup_ratio"), None);
    }

    #[test]
    fn labels_read_back_into_the_same_spec() {
        let mut closed = RunSpec::new(Workload::Tpcc, Variant::JanusAutoPlace);
        closed.crc32 = true;
        closed.resource_scale = Some(usize::MAX);
        closed.key_skew = Some(0.9);
        closed.aux_tx_fraction = 0.25;
        closed.bmo_stack = Some(Vec::new());
        closed.irb_policy = IrbPolicy::Banked { per_tenant: 8 };
        let mut open = RunSpec::new(Workload::Queue, Variant::Ideal);
        open.open_loop = Some(OpenLoopSpec {
            tenants: 3,
            arrival: Arrival::Bursty {
                mean: janus_sim::time::Cycles(900),
                burst: 4,
                intra: janus_sim::time::Cycles(50),
            },
            mix: vec![Workload::BTree, Workload::Tatp],
        });
        for spec in [
            RunSpec::new(Workload::Queue, Variant::Serialized),
            closed,
            open,
        ] {
            let labels = spec.labels();
            let back = RunSpec::from_labels(&labels).expect("labels read back");
            assert_eq!(back.labels().to_json(), labels.to_json());
        }
    }

    #[test]
    fn from_labels_rejects_unknown_missing_and_default_labels() {
        use janus_trace::MetricValue::{Float, U64};
        let labels = RunSpec::new(Workload::Queue, Variant::Serialized).labels();
        let with = |name: &str, v| {
            let mut m = labels.clone();
            m.set(name, v);
            RunSpec::from_labels(&m).unwrap_err()
        };
        assert!(with("spec.bogus", U64(1)).contains("unknown label spec.bogus"));
        let err = with("spec.cores", U64(0));
        assert!(
            err.contains("spec.cores requires a positive integer"),
            "{err}"
        );
        // A default value is never labelled, and an open-loop row names all
        // of its open-loop knobs.
        for (name, v) in [
            ("spec.aux_tx_fraction", Float(0.0)),
            ("spec.tenants", U64(2)),
        ] {
            assert!(with(name, v).contains("read back as"), "{name}");
        }
        let mut partial = MetricsRegistry::new();
        partial.set_str("spec.variant", "Non-blocking");
        let err = RunSpec::from_labels(&partial).unwrap_err();
        assert!(err.contains("read back as {\"spec.workload\""), "{err}");
    }

    #[test]
    fn geomean_and_row_helpers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
