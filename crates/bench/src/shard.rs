//! Multi-process sharded sweep coordination (`--shards N` / `JANUS_SHARDS`).
//!
//! `maybe_run_sharded` lets a bench binary fan its spec list across `N`
//! worker *processes* (re-executions of the same binary), each running the
//! specs whose index is `i % N == k` and streaming its
//! [`ExecutionReport`]s back through a checksummed shard file. The parent
//! merges the shards back into spec order and [`crate::run_all`] sinks
//! JSONL in the parent only, so the output — table text and metrics files alike — is byte-identical to a
//! serial run: each simulation is a sealed deterministic timeline, and the
//! merge only reorders completed reports, never numbers.
//!
//! Protocol (all internal, carried in environment variables):
//!
//! * The parent spawns `current_exe()` with the *same* arguments plus
//!   `JANUS_SHARD_INDEX=k`, `JANUS_SHARD_COUNT=N`, and `JANUS_SHARD_DIR`
//!   (a scratch directory). `JANUS_RESULTS_JSON_DIR` is removed from the
//!   children.
//! * Each child re-executes `main` deterministically up to the first
//!   shardable [`crate::run_all`] call, runs its subset, writes
//!   `shard-<k>.janus`, and exits 0 without printing its tables.
//! * The shard file is line-oriented: a `janus-shard-v1` header, one
//!   record line per report (`u64`s in decimal, `f64`s as IEEE bits in
//!   hex), and an `END` trailer carrying the record count and an FNV-1a
//!   checksum. A truncated, reordered, or bit-flipped shard fails the
//!   merge with exit status 2 — the sweep never silently publishes a
//!   partial result set.
//!
//! Sharding engages only for the binary's first `run_all` call with more
//! than one spec and no tracing/profiling/sampling (a ring-buffer tracer
//! cannot cross a process boundary); every bench binary makes at most one
//! such call. `JANUS_SHARD_CORRUPT=k` makes child `k` truncate its shard
//! file — the red path the CI gate locks down.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

use janus_core::system::{ExecutionReport, TenantReport};
use janus_sim::time::Cycles;
use janus_trace::Tracer;

use crate::{run_all_jobs, RunResult, RunSpec, SweepArgs};

const ENV_INDEX: &str = "JANUS_SHARD_INDEX";
const ENV_COUNT: &str = "JANUS_SHARD_COUNT";
const ENV_DIR: &str = "JANUS_SHARD_DIR";
const ENV_CORRUPT: &str = "JANUS_SHARD_CORRUPT";

/// Whether this spec list can cross a process boundary: more than one spec
/// (otherwise there is nothing to partition) and no tracer, profiler, or
/// sampler attached (their ring buffers are process-local).
fn eligible(specs: &[RunSpec]) -> bool {
    specs.len() > 1
        && !specs
            .iter()
            .any(|s| s.trace.is_some() || s.profile || s.sample_every.is_some())
}

/// Both roles mirror this: only the process's *first* eligible `run_all`
/// engages sharding, so parent and children always agree on which call the
/// shard files describe.
static ENGAGED: AtomicBool = AtomicBool::new(false);

/// Entry point from [`crate::run_all`]: `Some(results)` if this call was
/// satisfied by the sharded coordinator (parent role), `None` to run
/// in-process. In a child process this never returns — the child writes its
/// shard file and exits.
pub(crate) fn maybe_run_sharded(specs: &[RunSpec], args: &SweepArgs) -> Option<Vec<RunResult>> {
    if !eligible(specs) {
        return None;
    }
    if let (Ok(idx), Ok(count), Ok(dir)) = (
        std::env::var(ENV_INDEX),
        std::env::var(ENV_COUNT),
        std::env::var(ENV_DIR),
    ) {
        if ENGAGED.swap(true, Ordering::SeqCst) {
            return None;
        }
        let idx: usize = idx.parse().expect("well-formed JANUS_SHARD_INDEX");
        let count: usize = count.parse().expect("well-formed JANUS_SHARD_COUNT");
        run_child(specs, idx, count, Path::new(&dir), args.jobs);
    }
    if args.shards <= 1 || ENGAGED.swap(true, Ordering::SeqCst) {
        return None;
    }
    Some(run_parent(specs, args.shards.min(specs.len())))
}

/// Child role: run this shard's subset and stream it back. Never returns.
fn run_child(specs: &[RunSpec], idx: usize, count: usize, dir: &Path, jobs: usize) -> ! {
    let mine: Vec<RunSpec> = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % count == idx)
        .map(|(_, s)| s.clone())
        .collect();
    let results = run_all_jobs(mine, jobs);
    let mut body = format!("janus-shard-v1 {idx} {count} {}\n", results.len());
    let mut sum = Fnv::new();
    for r in &results {
        let line = encode_report(&r.report);
        sum.update(line.as_bytes());
        sum.update(b"\n");
        body.push_str(&line);
        body.push('\n');
    }
    body.push_str(&format!("END {} {:016x}\n", results.len(), sum.finish()));
    if std::env::var(ENV_CORRUPT).ok().and_then(|v| v.parse().ok()) == Some(idx) {
        // Fault injection for the merge-validation red path: deliver a
        // torn write (header intact, records cut mid-line, no trailer).
        body.truncate(body.len() / 2);
    }
    let path = dir.join(format!("shard-{idx}.janus"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!(
            "error: shard {idx}: could not write {}: {e}",
            path.display()
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Parent role: spawn the workers and merge their shards in spec order.
/// Any child failure or malformed shard file is
/// fatal (exit 2 for a bad shard — the same status as a usage error: the
/// sweep's output would be wrong, so there is no output).
fn run_parent(specs: &[RunSpec], count: usize) -> Vec<RunResult> {
    let dir = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: could not create shard dir {}: {e}", dir.display());
        std::process::exit(1);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot re-execute for sharding: {e}");
        std::process::exit(1);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(count);
    for k in 0..count {
        let child = Command::new(&exe)
            .args(&args)
            .env(ENV_INDEX, k.to_string())
            .env(ENV_COUNT, count.to_string())
            .env(ENV_DIR, &dir)
            .env_remove("JANUS_RESULTS_JSON_DIR")
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(c) => children.push((k, c)),
            Err(e) => {
                eprintln!("error: could not spawn shard {k}: {e}");
                std::process::exit(1);
            }
        }
    }
    for (k, child) in &mut children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("error: shard {k} failed: {status}");
                std::process::exit(status.code().unwrap_or(1));
            }
            Err(e) => {
                eprintln!("error: waiting for shard {k}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut merged: Vec<Option<ExecutionReport>> = vec![None; specs.len()];
    for k in 0..count {
        let path = dir.join(format!("shard-{k}.janus"));
        let reports = read_shard(&path, k, count).unwrap_or_else(|e| {
            eprintln!("error: shard merge failed: {}: {e}", path.display());
            std::process::exit(2);
        });
        let indices: Vec<usize> = (0..specs.len()).filter(|i| i % count == k).collect();
        if reports.len() != indices.len() {
            eprintln!(
                "error: shard merge failed: {}: carries {} reports, expected {}",
                path.display(),
                reports.len(),
                indices.len()
            );
            std::process::exit(2);
        }
        for (i, r) in indices.into_iter().zip(reports) {
            merged[i] = Some(r);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    specs
        .iter()
        .cloned()
        .zip(merged)
        .map(|(spec, report)| RunResult {
            report: report.expect("round-robin partition covers every index"),
            spec,
            tracer: Tracer::disabled(),
            samples: Vec::new(),
        })
        .collect()
}

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("janus-shards-{}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Shard file codec
// ---------------------------------------------------------------------------

/// One report as a single whitespace-separated line: struct order, `u64`s in
/// decimal, `f64`s as IEEE-754 bits in hex (exact round-trip — the merge
/// must be byte-identical to serial, so decimal formatting is not an
/// option), length-prefixed sections for the variable-size fields.
fn encode_report(r: &ExecutionReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(256);
    let _ = write!(s, "R {} {}", r.cycles.0, r.core_cycles.len());
    for c in &r.core_cycles {
        let _ = write!(s, " {}", c.0);
    }
    let _ = write!(
        s,
        " {} {} {} {:016x} {} {} {} {} {}",
        r.transactions,
        r.writes,
        r.dup_writes,
        r.fully_preexecuted_fraction.to_bits(),
        r.irb.0,
        r.irb.1,
        r.irb.2,
        r.irb.3,
        r.irb.4
    );
    let _ = write!(s, " C {}", r.counters.len());
    for (name, value) in &r.counters {
        debug_assert!(
            !name.chars().any(char::is_whitespace),
            "counter names are identifiers"
        );
        let _ = write!(s, " {name} {value}");
    }
    let _ = write!(
        s,
        " {} {} {} {} {} {} {} {} {}",
        r.l1.0,
        r.l1.1,
        r.l2.0,
        r.l2.1,
        r.mean_write_latency.0,
        r.mean_read_latency.0,
        r.events,
        r.sched_cache.0,
        r.sched_cache.1
    );
    let _ = write!(s, " T {}", r.tenants.len());
    for t in &r.tenants {
        let _ = write!(
            s,
            " {} {} {} {} {} {} {}",
            t.dispatched, t.completed, t.mean.0, t.p50.0, t.p99.0, t.p999.0, t.max.0
        );
    }
    s
}

fn decode_report(line: &str) -> Result<ExecutionReport, String> {
    let mut t = Tokens::new(line);
    t.tag("R")?;
    let cycles = Cycles(t.u64("cycles")?);
    let ncores = t.u64("core count")? as usize;
    let mut core_cycles = Vec::with_capacity(ncores);
    for _ in 0..ncores {
        core_cycles.push(Cycles(t.u64("core cycles")?));
    }
    let transactions = t.u64("transactions")?;
    let writes = t.u64("writes")?;
    let dup_writes = t.u64("dup_writes")?;
    let fully_preexecuted_fraction = f64::from_bits(t.hex("preexec bits")?);
    let irb = (
        t.u64("irb.0")?,
        t.u64("irb.1")?,
        t.u64("irb.2")?,
        t.u64("irb.3")?,
        t.u64("irb.4")?,
    );
    t.tag("C")?;
    let ncounters = t.u64("counter count")? as usize;
    let mut counters = Vec::with_capacity(ncounters);
    for _ in 0..ncounters {
        let name = intern(t.str("counter name")?);
        counters.push((name, t.u64("counter value")?));
    }
    let l1 = (t.u64("l1 hits")?, t.u64("l1 misses")?);
    let l2 = (t.u64("l2 hits")?, t.u64("l2 misses")?);
    let mean_write_latency = Cycles(t.u64("mean write latency")?);
    let mean_read_latency = Cycles(t.u64("mean read latency")?);
    let events = t.u64("events")?;
    let sched_cache = (t.u64("sched hits")?, t.u64("sched misses")?);
    t.tag("T")?;
    let ntenants = t.u64("tenant count")? as usize;
    let mut tenants = Vec::with_capacity(ntenants);
    for _ in 0..ntenants {
        tenants.push(TenantReport {
            dispatched: t.u64("tenant dispatched")?,
            completed: t.u64("tenant completed")?,
            mean: Cycles(t.u64("tenant mean")?),
            p50: Cycles(t.u64("tenant p50")?),
            p99: Cycles(t.u64("tenant p99")?),
            p999: Cycles(t.u64("tenant p999")?),
            max: Cycles(t.u64("tenant max")?),
        });
    }
    t.end()?;
    Ok(ExecutionReport {
        cycles,
        core_cycles,
        transactions,
        writes,
        dup_writes,
        fully_preexecuted_fraction,
        irb,
        counters,
        l1,
        l2,
        mean_write_latency,
        mean_read_latency,
        events,
        sched_cache,
        tenants,
    })
}

/// Parses and validates one shard file end to end: header, per-record
/// decode, record count, and trailer checksum.
fn read_shard(path: &Path, idx: usize, count: usize) -> Result<Vec<ExecutionReport>, String> {
    let mut body = String::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut body))
        .map_err(|e| format!("unreadable: {e}"))?;
    let mut lines = body.lines();
    let header = lines.next().ok_or("empty shard file")?;
    let mut h = header.split_whitespace();
    if h.next() != Some("janus-shard-v1") {
        return Err(format!("bad header {header:?}"));
    }
    let hidx: usize = h
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("bad header index")?;
    let hcount: usize = h
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("bad header count")?;
    let nrecords: usize = h
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("bad header record count")?;
    if (hidx, hcount) != (idx, count) {
        return Err(format!(
            "shard identity mismatch: file says {hidx}/{hcount}, expected {idx}/{count}"
        ));
    }
    let mut reports = Vec::with_capacity(nrecords);
    let mut sum = Fnv::new();
    for _ in 0..nrecords {
        let line = lines.next().ok_or("truncated: missing record")?;
        sum.update(line.as_bytes());
        sum.update(b"\n");
        reports.push(decode_report(line).map_err(|e| format!("bad record: {e}"))?);
    }
    let trailer = lines.next().ok_or("truncated: missing END trailer")?;
    let mut t = trailer.split_whitespace();
    if t.next() != Some("END") {
        return Err(format!("bad trailer {trailer:?}"));
    }
    let tcount: usize = t
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or("bad trailer count")?;
    let tsum = t
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or("bad trailer checksum")?;
    if tcount != nrecords {
        return Err(format!("trailer count {tcount} != header count {nrecords}"));
    }
    if tsum != sum.finish() {
        return Err("checksum mismatch".to_string());
    }
    if lines.next().is_some() {
        return Err("trailing data after END".to_string());
    }
    Ok(reports)
}

/// Whitespace token cursor with contextual parse errors.
struct Tokens<'a> {
    it: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens {
            it: line.split_whitespace(),
        }
    }

    fn str(&mut self, what: &str) -> Result<&'a str, String> {
        self.it.next().ok_or_else(|| format!("missing {what}"))
    }

    fn tag(&mut self, tag: &str) -> Result<(), String> {
        let got = self.str(tag)?;
        if got == tag {
            Ok(())
        } else {
            Err(format!("expected tag {tag:?}, got {got:?}"))
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        self.str(what)?
            .parse()
            .map_err(|e| format!("bad {what}: {e}"))
    }

    fn hex(&mut self, what: &str) -> Result<u64, String> {
        let s = self.str(what)?;
        u64::from_str_radix(s, 16).map_err(|e| format!("bad {what}: {e}"))
    }

    fn end(&mut self) -> Result<(), String> {
        match self.it.next() {
            None => Ok(()),
            Some(t) => Err(format!("trailing token {t:?}")),
        }
    }
}

/// Interns a counter name decoded from a shard file: [`ExecutionReport`]
/// carries `&'static str` counter names (they are code literals in-process),
/// so decoded names are leaked once and deduplicated for the life of the
/// parent — a bounded set, one entry per distinct counter name.
fn intern(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("intern pool");
    match pool.get(name) {
        Some(&s) => s,
        None => {
            let s: &'static str = Box::leak(name.to_owned().into_boxed_str());
            pool.insert(s);
            s
        }
    }
}

/// FNV-1a (64-bit) over the record lines — cheap, dependency-free torn-write
/// and bit-flip detection; the merge is trusted-input, not adversarial.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(tenants: usize) -> ExecutionReport {
        ExecutionReport {
            cycles: Cycles(123_456),
            core_cycles: vec![Cycles(100), Cycles(123_456)],
            transactions: 400,
            writes: 1_234,
            dup_writes: 56,
            fully_preexecuted_fraction: 0.728_515_625,
            irb: (1, 2, 3, 4, 5),
            counters: vec![("inval_data", 7), ("wq_coalesced", 9)],
            l1: (10, 11),
            l2: (12, 13),
            mean_write_latency: Cycles(1_500),
            mean_read_latency: Cycles(380),
            events: 8_529,
            sched_cache: (390, 10),
            tenants: (0..tenants)
                .map(|i| TenantReport {
                    dispatched: 100 + i as u64,
                    completed: 100,
                    mean: Cycles(5_000),
                    p50: Cycles(4_800),
                    p99: Cycles(9_000),
                    p999: Cycles(12_000),
                    max: Cycles(15_000),
                })
                .collect(),
        }
    }

    fn assert_reports_equal(a: &ExecutionReport, b: &ExecutionReport) {
        // Byte-identity of every exporter is the contract the codec backs.
        assert_eq!(encode_report(a), encode_report(b));
        assert_eq!(a.events, b.events);
        assert_eq!(a.sched_cache, b.sched_cache);
    }

    #[test]
    fn report_codec_round_trips_exactly() {
        for tenants in [0, 3] {
            let r = sample_report(tenants);
            let decoded = decode_report(&encode_report(&r)).expect("round trip");
            assert_reports_equal(&r, &decoded);
            assert_eq!(
                decoded.fully_preexecuted_fraction.to_bits(),
                r.fully_preexecuted_fraction.to_bits(),
                "f64s must round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn decoded_counter_names_are_interned_and_stable() {
        let r = sample_report(0);
        let d1 = decode_report(&encode_report(&r)).unwrap();
        let d2 = decode_report(&encode_report(&r)).unwrap();
        assert_eq!(d1.counters, d2.counters);
        // Same leaked allocation both times: the pool deduplicates.
        assert!(std::ptr::eq(d1.counters[0].0, d2.counters[0].0));
    }

    #[test]
    fn shard_file_round_trips_and_rejects_corruption() {
        let dir = scratch_dir().join("codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let reports = [sample_report(0), sample_report(2)];
        let mut body = format!("janus-shard-v1 1 4 {}\n", reports.len());
        let mut sum = Fnv::new();
        for r in &reports {
            let line = encode_report(r);
            sum.update(line.as_bytes());
            sum.update(b"\n");
            body.push_str(&line);
            body.push('\n');
        }
        body.push_str(&format!("END {} {:016x}\n", reports.len(), sum.finish()));
        let path = dir.join("shard-1.janus");
        std::fs::write(&path, &body).unwrap();
        let decoded = read_shard(&path, 1, 4).expect("valid shard");
        assert_eq!(decoded.len(), 2);
        assert_reports_equal(&decoded[1], &reports[1]);
        // Identity mismatch (wrong worker wrote the file).
        assert!(read_shard(&path, 2, 4).is_err());
        // Truncation (the JANUS_SHARD_CORRUPT fault) and bit flips.
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(read_shard(&path, 1, 4).is_err());
        std::fs::write(&path, body.replace("123456", "123457")).unwrap();
        assert!(read_shard(&path, 1, 4).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tracing_specs_are_never_sharded() {
        use crate::{Variant, Workload};
        let mut a = RunSpec::new(Workload::ArraySwap, Variant::Serialized);
        let b = a.clone();
        assert!(eligible(&[a.clone(), b.clone()]));
        assert!(
            !eligible(&[a.clone()]),
            "a single spec has nothing to split"
        );
        a.trace = Some(janus_trace::TraceConfig::default());
        assert!(!eligible(&[a.clone(), b.clone()]));
        a.trace = None;
        a.profile = true;
        assert!(!eligible(&[a.clone(), b.clone()]));
        a.profile = false;
        a.sample_every = Some(1000);
        assert!(!eligible(&[a, b]));
    }
}
