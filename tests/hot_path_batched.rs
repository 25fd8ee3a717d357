//! Differential tests: the batched event loop against the legacy
//! one-event-at-a-time loop it replaced.
//!
//! The legacy path (`RunSpec::legacy_events` / `System::set_batched(false)`)
//! is kept as the executable specification of the simulator's semantics.
//! The batched hot path — same-cycle cohort draining plus next-event
//! fast-forward — is only a performance transformation, so every observable
//! output must be **byte-identical** between the two:
//!
//! * the human-readable [`ExecutionReport`] text dump,
//! * the exported JSONL metrics line (what `results/` files are built from),
//! * the simulator-only `events` counter (both paths dispatch the same
//!   event sequence, not merely equivalent ones).
//!
//! Coverage: the full fig9 grid (every workload × every fig9 variant) and a
//! property sweep over randomly permuted BMO stacks, which exercises BMO
//! pipelines whose sub-op graphs (and hence event interleavings) differ
//! from the paper's default trio.

use janus_bench::{run, RunSpec, Variant};
use janus_bmo::BmoId;
use janus_workloads::Workload;

/// Runs `spec` through both dispatch loops and asserts byte-identity of
/// every exported artifact.
fn assert_paths_identical(mut spec: RunSpec) {
    spec.legacy_events = true;
    let legacy = run(spec.clone());
    spec.legacy_events = false;
    let batched = run(spec.clone());

    let dump = |r: &janus_bench::RunResult| {
        let mut buf = Vec::new();
        r.report.dump(&mut buf).expect("dump to Vec cannot fail");
        buf
    };
    let label = format!(
        "{} [{}] cores={} stack={:?}",
        spec.workload,
        spec.variant.label(),
        spec.cores,
        spec.bmo_stack
    );
    assert_eq!(
        dump(&legacy),
        dump(&batched),
        "{label}: report text dump diverged between legacy and batched loops"
    );
    assert_eq!(
        legacy.metrics().to_json(),
        batched.metrics().to_json(),
        "{label}: JSONL metrics line diverged between legacy and batched loops"
    );
    assert_eq!(
        legacy.report.events, batched.report.events,
        "{label}: the two loops dispatched different event counts"
    );
}

const FIG9_VARIANTS: [Variant; 3] = [
    Variant::Serialized,
    Variant::Parallelized,
    Variant::JanusManual,
];

/// The full fig9 grid: all seven workloads, all three figure variants.
#[test]
fn batched_loop_matches_legacy_on_full_fig9_sweep() {
    for w in Workload::all() {
        for v in FIG9_VARIANTS {
            let mut spec = RunSpec::new(w, v);
            spec.transactions = 25;
            assert_paths_identical(spec);
        }
    }
}

/// Multi-core runs schedule far more same-cycle cohorts (one Core event per
/// core per cycle), which is exactly what the batch drain reorders if it is
/// ever wrong about FIFO order within a cycle.
#[test]
fn batched_loop_matches_legacy_on_multicore_runs() {
    for cores in [2, 4] {
        let mut spec = RunSpec::new(Workload::Tatp, Variant::JanusManual);
        spec.cores = cores;
        spec.transactions = 20;
        assert_paths_identical(spec);
    }
}

/// Property test: random BMO stack permutations. Each permutation yields a
/// different sub-op dependency graph, bank contention pattern, and event
/// interleaving; the two loops must agree on all of them.
#[test]
fn batched_loop_matches_legacy_on_random_bmo_stack_permutations() {
    let mut state = 0x243f6a8885a308d3u64; // deterministic xorshift seed
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..6 {
        // Fisher–Yates shuffle of the full registry, then keep a random
        // non-empty prefix so short and long stacks are both covered.
        let mut stack = BmoId::ALL.to_vec();
        for i in (1..stack.len()).rev() {
            let j = (rng() % (i as u64 + 1)) as usize;
            stack.swap(i, j);
        }
        let keep = 1 + (rng() % stack.len() as u64) as usize;
        stack.truncate(keep);

        let workload = Workload::all()[trial % Workload::all().len()];
        let mut spec = RunSpec::new(workload, Variant::JanusManual);
        spec.transactions = 12;
        spec.bmo_stack = Some(stack);
        assert_paths_identical(spec);
    }
}
