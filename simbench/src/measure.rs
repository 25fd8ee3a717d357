//! The measurement loops: untraced repetitions for the end-to-end metrics,
//! traced rounds (spans plus layer replays) for the per-layer ones, and the
//! correctness and sanity checks on both.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use janus_bench::{pool, run_all_jobs, run_timed, RunSpec};
use janus_core::system::ExecutionReport;
use janus_nvm::addr::LineAddr;
use janus_nvm::line::Line;
use janus_sim::time::Cycles;

use crate::metrics::Values;
use crate::pipeline::{self, Executed};
use crate::replay::{self, Replay};
use crate::spans::Spans;
use crate::stats::median;
use crate::suite::{Bench, Size, SWEEP_JOBS};

/// Set-up samples taken per sweep repetition (building the grid and the
/// pool takes microseconds, so one sample per repetition would be noise).
const SWEEP_SETUP_SAMPLES: usize = 16;

/// What one benchmark invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub bench: Bench,
    /// Workload seed.
    pub seed: u64,
    /// Measuring window; at least one repetition runs regardless.
    pub seconds: f64,
    /// Traced rounds (per-layer metrics) instead of untraced repetitions.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Everything one invocation produced.
pub struct Outcome {
    /// Simulator runs attempted (sweeps count once).
    pub attempted: u64,
    /// Runs that panicked, were rejected, broke the oracle or disagreed
    /// with the reference run.
    pub failed: u64,
    /// One line per failed run or failed sanity check.
    pub problems: Vec<String>,
    /// Sanity checks that failed.
    pub sanity_failures: usize,
    /// End-to-end samples (untraced invocations).
    pub e2e: Values,
    /// Per-layer samples. Counters are filled on every invocation; timings
    /// only on traced ones.
    pub layer: Values,
    /// The spans of the traced rounds.
    pub spans: Spans,
}

impl Outcome {
    fn new(trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            sanity_failures: 0,
            e2e: Values::default(),
            layer: Values::default(),
            spans: if trace {
                Spans::enabled()
            } else {
                Spans::disabled()
            },
        }
    }

    /// Whether every run and every sanity check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.sanity_failures == 0 && self.attempted > 0
    }

    /// `failed ÷ attempted`.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Counts one attempted run and records its failure, if any.
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Everything observable about a report, for exact comparison: the
/// exported fields plus the simulator-side event and schedule counts.
pub fn fingerprint(r: &ExecutionReport) -> String {
    format!(
        "{} events={} sched={:?}",
        r.to_metrics().to_json(),
        r.events,
        r.sched_cache
    )
}

/// One run through the layer pipeline with oracle check. Returns the run
/// and its wall time (set-up plus run plus check); with `stream`, also
/// fills it with the clwb'd stream, outside the timed phases.
fn checked(
    spec: &RunSpec,
    spans: &mut Spans,
    stream: Option<&mut Vec<(LineAddr, Line)>>,
) -> Result<(Executed, f64), String> {
    let t0 = Instant::now();
    let prepared = pipeline::prepare(spec, spans);
    let mut wall = t0.elapsed().as_secs_f64();
    if let Some(out) = stream {
        *out = prepared.clwb_stream();
    }
    let t1 = Instant::now();
    let run =
        pipeline::execute(prepared, spans).map_err(|e| format!("configuration rejected: {e}"))?;
    wall += t1.elapsed().as_secs_f64();
    if run.mismatched_lines > 0 {
        return Err(format!(
            "{} lines differ from the workload oracle",
            run.mismatched_lines
        ));
    }
    Ok((run, wall))
}

/// One untraced repetition through `janus_bench::run_timed`: the report,
/// the event-loop seconds and the whole call's wall seconds. An oracle
/// mismatch panics inside `run_timed` and comes back as an error.
fn timed(spec: &RunSpec) -> Result<(ExecutionReport, f64, f64), String> {
    guarded(|| {
        let t0 = Instant::now();
        let (result, loop_s) = run_timed(spec.clone());
        Ok((result.report, loop_s, t0.elapsed().as_secs_f64()))
    })
}

/// One sweep repetition through `janus_bench::run_all_jobs`: the reports,
/// the `run_all_jobs` seconds and the wall seconds including building the
/// grid.
fn sweep(opts: &Options) -> Result<(Vec<ExecutionReport>, f64, f64), String> {
    guarded(|| {
        let t0 = Instant::now();
        let grid = opts.bench.specs(opts.seed, opts.size);
        let t1 = Instant::now();
        let results = run_all_jobs(grid, SWEEP_JOBS);
        let run_s = t1.elapsed().as_secs_f64();
        let reports = results.into_iter().map(|r| r.report).collect();
        Ok((reports, run_s, t0.elapsed().as_secs_f64()))
    })
}

/// Builds the sweep grid and spawns and joins the sweep pool's workers.
fn sweep_setup(opts: &Options) -> usize {
    let grid = opts.bench.specs(opts.seed, opts.size);
    let joined = pool::parallel_map(vec![(); SWEEP_JOBS], SWEEP_JOBS, |()| ());
    grid.len() + joined.len()
}

/// Runs one invocation.
pub fn measure(opts: &Options) -> Outcome {
    let mut o = Outcome::new(opts.trace);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    if opts.bench.is_sweep() {
        measure_sweep(opts, deadline, &mut o);
    } else {
        let spec = opts.bench.specs(opts.seed, opts.size).remove(0);
        measure_single(&spec, opts, deadline, &mut o);
    }
    if let Some(rss) = peak_rss_mib() {
        o.e2e.one("peak_rss_mib", rss);
    }
    o.e2e.one("ok_frac", 1.0 - o.fail_frac());
    let problems = sanity(opts, &o);
    o.sanity_failures = problems.len();
    o.problems.extend(problems);
    o
}

fn measure_single(spec: &RunSpec, opts: &Options, deadline: Instant, o: &mut Outcome) {
    // The reference run doubles as warm-up, and as the guard that keeps a
    // configuration error (which `run_timed` exits on) from reaching the
    // repetitions.
    let r = guarded(|| checked(spec, &mut Spans::disabled(), None));
    let Some((reference, _)) = o.record("reference run", r) else {
        return;
    };
    let fp = fingerprint(&reference.report);
    let report = &reference.report;
    counters(&mut o.layer, &[report]);
    o.layer
        .one("workloads.program_ops", reference.cost.program_ops as f64);
    o.layer
        .one("instrument.ops_added", reference.cost.ops_added as f64);
    o.e2e.one("sim_cycles", report.cycles.0 as f64);
    o.e2e
        .one("sim_write_lat_cycles", report.mean_write_latency.0 as f64);
    let (events, tx) = (report.events as f64, report.transactions as f64);

    if !opts.trace {
        let (mut setup, mut run, mut wall) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let r = guarded(|| Ok(pipeline::prepare(spec, &mut Spans::disabled()).cost));
            if let Ok(cost) = r {
                setup.push(cost.total_s());
            }
            if let Some((rep, loop_s, wall_s)) = o.record("repetition", timed(spec)) {
                if fingerprint(&rep) == fp {
                    run.push(loop_s);
                    wall.push(wall_s);
                } else {
                    o.fail("a repetition's report differs from the reference run".into());
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        set_timings(&mut o.e2e, setup, run, wall, events, tx);
        return;
    }

    let config = spec.config();
    let mut t = Traced::default();
    loop {
        if let Some((rep, _, wall_s)) = o.record("untraced repetition", timed(spec)) {
            if fingerprint(&rep) == fp {
                t.wall_untraced.push(wall_s);
            } else {
                o.fail("a repetition's report differs from the reference run".into());
            }
        }
        o.spans.next_run();
        let mut stream = Vec::new();
        let root = o.spans.open("run");
        let r = guarded(|| checked(spec, &mut o.spans, Some(&mut stream)));
        o.spans.close(root);
        if let Some((run, wall)) = o.record("traced run", r) {
            if fingerprint(&run.report) != fp {
                o.fail("the traced run's report differs from the untraced run's".into());
            }
            let gap = Cycles(run.report.cycles.0 / run.report.writes.max(1));
            let open = o.spans.open("replay");
            let rp = replay::replay(
                &stream,
                run.report.events,
                gap,
                &config,
                opts.seed,
                &mut o.spans,
            );
            o.spans.close(open);
            let expect = (
                run.report.dup_writes,
                run.report.writes - run.report.dup_writes,
            );
            if rp.dedup != expect {
                o.fail(format!(
                    "replayed dedup (hits, misses) {:?} differs from the report's {expect:?}",
                    rp.dedup
                ));
            }
            t.push(Round::of(&run), wall, Some(&rp));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    t.finish(&mut o.layer, reference.cost.program_ops);
}

fn measure_sweep(opts: &Options, deadline: Instant, o: &mut Outcome) {
    let Some((reference, _, _)) = o.record("reference sweep", sweep(opts)) else {
        return;
    };
    let fps: Vec<String> = reference.iter().map(fingerprint).collect();
    let refs: Vec<&ExecutionReport> = reference.iter().collect();
    counters(&mut o.layer, &refs);
    let sum = |f: fn(&ExecutionReport) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    let (events, tx, writes) = (
        sum(|r| r.events),
        sum(|r| r.transactions),
        sum(|r| r.writes),
    );
    o.e2e.one("sim_cycles", sum(|r| r.cycles.0));
    o.e2e.one(
        "sim_write_lat_cycles",
        sum(|r| r.mean_write_latency.0 * r.writes) / writes.max(1.0),
    );

    if !opts.trace {
        let (mut setup, mut run, mut wall) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            for _ in 0..SWEEP_SETUP_SAMPLES {
                let t0 = Instant::now();
                std::hint::black_box(sweep_setup(opts));
                setup.push(t0.elapsed().as_secs_f64());
            }
            if let Some((reports, run_s, wall_s)) = o.record("sweep", sweep(opts)) {
                if reports.iter().map(fingerprint).eq(fps.iter().cloned()) {
                    run.push(run_s);
                    wall.push(wall_s);
                } else {
                    o.fail("a sweep's reports differ from the reference sweep".into());
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        set_timings(&mut o.e2e, setup, run, wall, events, tx);
        return;
    }

    let grid = opts.bench.specs(opts.seed, opts.size);
    let mut t = Traced::default();
    let (mut program_ops, mut ops_added);
    loop {
        if let Some((reports, _, wall_s)) = o.record("untraced sweep", sweep(opts)) {
            if reports.iter().map(fingerprint).eq(fps.iter().cloned()) {
                t.wall_untraced.push(wall_s);
            } else {
                o.fail("a sweep's reports differ from the reference sweep".into());
            }
        }
        o.spans.next_run();
        let root = o.spans.open("run");
        let (g, _) = o
            .spans
            .time("bench.grid", || opts.bench.specs(opts.seed, opts.size));
        o.spans.time("bench.pool", || {
            pool::parallel_map(vec![(); SWEEP_JOBS], SWEEP_JOBS, |()| ())
        });
        let (r, sweep_s) = o.spans.time("bench.run_all_jobs", || {
            guarded(|| Ok(run_all_jobs(g, SWEEP_JOBS)))
        });
        let wall = o.spans.close(root);
        if let Some(results) = o.record("traced sweep", r) {
            if !results
                .iter()
                .map(|r| fingerprint(&r.report))
                .eq(fps.iter().cloned())
            {
                o.fail("the traced sweep's reports differ from the untraced sweep's".into());
            }
        }
        // Each spec alone through the layer pipeline: per-layer host time,
        // and the busy time the pool had to spread over its workers.
        let open = o.spans.open("bench.specs");
        let mut total = Round::default();
        let mut busy = 0.0;
        (program_ops, ops_added) = (0, 0);
        for (spec, fp) in grid.iter().zip(&fps) {
            let r = guarded(|| checked(spec, &mut o.spans, None));
            if let Some((run, spec_wall)) = o.record("spec run", r) {
                if fingerprint(&run.report) != *fp {
                    o.fail("a spec run alone differs from the same spec in the sweep".into());
                }
                busy += spec_wall;
                program_ops += run.cost.program_ops;
                ops_added += run.cost.ops_added;
                total.add(Round::of(&run));
            }
        }
        o.spans.close(open);
        t.push(total, wall, None);
        t.pool_efficiency.push(busy / (SWEEP_JOBS as f64 * sweep_s));
        if Instant::now() >= deadline {
            break;
        }
    }
    o.layer.one("workloads.program_ops", program_ops as f64);
    o.layer.one("instrument.ops_added", ops_added as f64);
    t.finish(&mut o.layer, program_ops);
}

/// Records the untraced timings, and the rates derived per repetition.
fn set_timings(
    v: &mut Values,
    setup: Vec<f64>,
    run: Vec<f64>,
    wall: Vec<f64>,
    events: f64,
    tx: f64,
) {
    v.set("events_per_s", run.iter().map(|s| events / s).collect());
    v.set("sim_tx_per_s", wall.iter().map(|s| tx / s).collect());
    v.set("setup_s", setup);
    v.set("run_s", run);
    v.set("wall_s", wall);
}

/// Phase times and work of one traced run, or of a sweep's spec runs
/// added up.
#[derive(Clone, Copy, Default)]
struct Round {
    generate: f64,
    instrument: f64,
    build: f64,
    run: f64,
    verify: f64,
    events: u64,
    writes: u64,
}

impl Round {
    fn of(e: &Executed) -> Round {
        Round {
            generate: e.cost.generate_s,
            instrument: e.cost.instrument_s,
            build: e.cost.build_s,
            run: e.run_s,
            verify: e.verify_s,
            events: e.report.events,
            writes: e.report.writes,
        }
    }

    fn add(&mut self, o: Round) {
        self.generate += o.generate;
        self.instrument += o.instrument;
        self.build += o.build;
        self.run += o.run;
        self.verify += o.verify;
        self.events += o.events;
        self.writes += o.writes;
    }
}

/// Per-round samples of the traced rounds.
#[derive(Default)]
struct Traced {
    wall_untraced: Vec<f64>,
    wall_traced: Vec<f64>,
    generate: Vec<f64>,
    instrument: Vec<f64>,
    build: Vec<f64>,
    run: Vec<f64>,
    verify: Vec<f64>,
    events: u64,
    writes: u64,
    replays: Vec<Replay>,
    pool_efficiency: Vec<f64>,
}

impl Traced {
    fn push(&mut self, r: Round, wall: f64, replay: Option<&Replay>) {
        self.wall_traced.push(wall);
        self.generate.push(r.generate);
        self.instrument.push(r.instrument);
        self.build.push(r.build);
        self.run.push(r.run);
        self.verify.push(r.verify);
        self.events = r.events;
        self.writes = r.writes;
        self.replays.extend(replay.copied());
    }

    fn finish(self, v: &mut Values, program_ops: u64) {
        let events = self.events.max(1) as f64;
        let per = |xs: &[f64], n: f64| xs.iter().map(|x| x / n * 1e9).collect::<Vec<_>>();
        let rp = |f: fn(&Replay) -> f64| self.replays.iter().map(f).collect::<Vec<_>>();
        let ops = program_ops.max(1) as f64;
        // Every metric is printed; one with no sample (all rounds failed,
        // or no replay on the sweep) reads 0.
        let zero_if_none = |xs: Vec<f64>| if xs.is_empty() { vec![0.0] } else { xs };
        v.set("workloads.generate_s", zero_if_none(self.generate.clone()));
        v.set("instrument.pass_s", zero_if_none(self.instrument.clone()));
        v.set(
            "instrument.ns_per_op",
            zero_if_none(per(&self.instrument, ops)),
        );
        v.set("core.build_s", zero_if_none(self.build.clone()));
        v.set("core.run_s", zero_if_none(self.run.clone()));
        v.set("core.verify_s", zero_if_none(self.verify.clone()));
        v.one("core.events", self.events as f64);
        v.set("core.ns_per_event", zero_if_none(per(&self.run, events)));
        let replayed: Vec<f64> = self
            .run
            .iter()
            .zip(&self.replays)
            .map(|(run, r)| (run - r.pipeline_s - r.merkle_s - r.nvm_s - r.queue_s) / events * 1e9)
            .collect();
        v.set("core.unattributed_ns_per_event", zero_if_none(replayed));
        let writes = self.writes.max(1) as f64;
        v.set("bmo.pipeline_s", zero_if_none(rp(|r| r.pipeline_s)));
        v.set(
            "bmo.pipeline_ns_per_write",
            zero_if_none(per(&rp(|r| r.pipeline_s), writes)),
        );
        v.set("bmo.merkle_s", zero_if_none(rp(|r| r.merkle_s)));
        let last = self.replays.last().copied().unwrap_or_default();
        v.one("crypto.md5_calls", last.md5.0 as f64);
        v.set("crypto.md5_s", zero_if_none(rp(|r| r.md5.1)));
        v.one("crypto.otp_calls", last.otp.0 as f64);
        v.set("crypto.otp_s", zero_if_none(rp(|r| r.otp.1)));
        v.one("crypto.mac_calls", last.mac.0 as f64);
        v.set("crypto.mac_s", zero_if_none(rp(|r| r.mac.1)));
        v.set(
            "nvm.replay_ns_per_write",
            zero_if_none(per(&rp(|r| r.nvm_s), writes)),
        );
        v.one("sim.queue_ops", last.queue_ops as f64);
        v.set(
            "sim.queue_ns_per_op",
            zero_if_none(
                self.replays
                    .iter()
                    .map(|r| r.queue_s / r.queue_ops.max(1) as f64 * 1e9)
                    .collect(),
            ),
        );
        v.set("bench.pool_efficiency", zero_if_none(self.pool_efficiency));
        v.one(
            "trace.overhead_ratio",
            median(&self.wall_traced) / median(&self.wall_untraced),
        );
    }
}

/// The simulator's own counters, summed over `reports` (ratios and means
/// recomputed from the sums; latencies weighted by writes).
fn counters(v: &mut Values, reports: &[&ExecutionReport]) {
    let sum = |f: &dyn Fn(&ExecutionReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let writes = sum(&|r| r.writes);
    let (inserted, consumed) = (sum(&|r| r.irb.0), sum(&|r| r.irb.1));
    let (hits, misses) = (sum(&|r| r.sched_cache.0), sum(&|r| r.sched_cache.1));
    v.one("core.l2_hits", sum(&|r| r.l2.0) as f64);
    v.one("core.l2_misses", sum(&|r| r.l2.1) as f64);
    v.one("core.irb_inserted", inserted as f64);
    v.one("core.irb_consumed", consumed as f64);
    v.one("core.irb_dropped", sum(&|r| r.irb.2) as f64);
    v.one("core.irb_consume_ratio", ratio(consumed, inserted));
    v.one(
        "core.fully_preexecuted_fraction",
        reports
            .iter()
            .map(|r| r.fully_preexecuted_fraction * r.writes as f64)
            .sum::<f64>()
            / writes.max(1) as f64,
    );
    v.one(
        "core.read_lat_cycles",
        ratio(sum(&|r| r.mean_read_latency.0 * r.writes), writes),
    );
    v.one(
        "core.tenant_p99_cycles_max",
        reports
            .iter()
            .flat_map(|r| r.tenants.iter().map(|t| t.p99.0))
            .max()
            .unwrap_or(0) as f64,
    );
    v.one(
        "core.jain_fairness",
        reports
            .iter()
            .map(|r| r.jain_fairness())
            .fold(1.0, f64::min),
    );
    v.one("bmo.writes", writes as f64);
    v.one("bmo.dup_writes", sum(&|r| r.dup_writes) as f64);
    v.one("bmo.sched_hits", hits as f64);
    v.one("bmo.sched_misses", misses as f64);
    v.one("bmo.sched_hit_ratio", ratio(hits, hits + misses));
    v.one(
        "nvm.device_writes",
        sum(&|r| r.counter("nvm_device_writes")) as f64,
    );
    v.one(
        "nvm.device_reads",
        sum(&|r| r.counter("nvm_device_reads")) as f64,
    );
    v.one(
        "nvm.wq_stall_cycles",
        sum(&|r| r.counter("wq_stall_cycles")) as f64,
    );
    v.one(
        "nvm.wq_coalesced",
        sum(&|r| r.counter("wq_coalesced")) as f64,
    );
}

/// Checks that each workload stresses the layer it was chosen for.
fn sanity(opts: &Options, o: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    // A metric missing here belongs to a failed reference run (already
    // counted) or to the timings of an untraced invocation.
    let layer = |name: &str| o.layer.get(name);
    let mut check = |value: Option<f64>, ok: fn(f64) -> bool, what: &str| {
        if value.is_some_and(|v| !ok(v)) {
            out.push(format!(
                "sanity check failed on {}: {what}",
                opts.bench.name()
            ));
        }
    };
    let read_lat = layer("core.read_lat_cycles");
    let sched_hits = layer("bmo.sched_hits");
    let pass = layer("instrument.pass_s");
    match opts.bench {
        Bench::TatpManual => {
            check(read_lat, |v| v == 0.0, "core.read_lat_cycles must be 0");
            check(sched_hits, |v| v > 0.0, "bmo.sched_hits must be > 0");
            check(
                layer("instrument.ops_added"),
                |v| v == 0.0,
                "instrument.ops_added must be 0",
            );
            check(pass, |v| v == 0.0, "instrument.pass_s must be 0");
        }
        Bench::BtreeAuto => {
            check(read_lat, |v| v == 0.0, "core.read_lat_cycles must be 0");
            check(sched_hits, |v| v == 0.0, "bmo.sched_hits must be 0");
            check(
                layer("instrument.ops_added"),
                |v| v > 0.0,
                "instrument.ops_added must be > 0",
            );
            let setup = [pass, layer("workloads.generate_s"), layer("core.build_s")]
                .into_iter()
                .sum::<Option<f64>>();
            check(
                pass.zip(setup).map(|(p, s)| p / s),
                |share| share >= 0.5,
                "instrument.pass_s must be at least half of setup_s",
            );
        }
        Bench::OpenMix => {
            check(read_lat, |v| v > 0.0, "core.read_lat_cycles must be > 0");
        }
        // Its multi-core specs read, so it is in no read-latency check.
        Bench::Fig9Sweep => {}
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
