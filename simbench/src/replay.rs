//! Layer replays: a run's clwb'd `(line, value)` stream fed again through
//! the BMO pipeline, the crypto primitives and the NVM write path, and its
//! event count through the event queue, each timed alone. They say where
//! the event loop's host time goes without touching the simulator.

use std::hint::black_box;

use janus_bmo::pipeline::{BmoPipeline, DEFAULT_KEY};
use janus_core::config::JanusConfig;
use janus_crypto::aes::Aes128;
use janus_crypto::ctr::{encrypt_line, line_mac, otp_for_line};
use janus_crypto::md5::md5;
use janus_nvm::addr::LineAddr;
use janus_nvm::device::NvmDevice;
use janus_nvm::line::Line;
use janus_nvm::wq::AdrWriteQueue;
use janus_sim::event::EventQueue;
use janus_sim::rng::SimRng;
use janus_sim::time::Cycles;

use crate::spans::Spans;

/// Events kept in flight by the queue replay.
const QUEUE_DEPTH: u64 = 32;
/// Longest gap the queue replay schedules ahead (the longest BMO sub-op).
const QUEUE_MAX_GAP: u64 = 1_300;

/// What the replays did and how long each took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// Writes replayed.
    pub writes: u64,
    /// `BmoPipeline::dedup_stats` after the replay: (hits, misses).
    pub dedup: (u64, u64),
    /// `BmoPipeline::write` + `recycle` over the stream.
    pub pipeline_s: f64,
    /// The final `BmoPipeline::root` (the lazy Merkle flush).
    pub merkle_s: f64,
    /// `md5` calls (one per write) and their time.
    pub md5: (u64, f64),
    /// `otp_for_line` calls (one per non-duplicate write) and their time.
    pub otp: (u64, f64),
    /// `line_mac` calls (one per non-duplicate write) and their time.
    pub mac: (u64, f64),
    /// Device lines the pipeline emitted, replayed through the write queue.
    pub nvm_lines: u64,
    /// `AdrWriteQueue::accept` (which drives `NvmDevice::schedule`).
    pub nvm_s: f64,
    /// Event-queue operations (a schedule and a pop per event).
    pub queue_ops: u64,
    /// Their time.
    pub queue_s: f64,
}

/// Replays `stream` and `events` queue round trips under `config`. `gap`
/// spaces the writes in simulated time for the write-queue replay.
pub fn replay(
    stream: &[(LineAddr, Line)],
    events: u64,
    gap: Cycles,
    config: &JanusConfig,
    seed: u64,
    spans: &mut Spans,
) -> Replay {
    let mut out = Replay {
        writes: stream.len() as u64,
        ..Replay::default()
    };

    // BMO pipeline: the functional write path of the controller.
    let mut pipeline = BmoPipeline::for_stack(&config.stack(), config.latencies.dedup_algo);
    let mut dev_lines: Vec<(u32, LineAddr)> = Vec::with_capacity(stream.len() * 3);
    let mut fresh: Vec<(u64, u64, Line)> = Vec::with_capacity(stream.len());
    let open = spans.open("bmo.pipeline");
    for (i, (line, value)) in stream.iter().enumerate() {
        let fx = pipeline.write(*line, *value);
        if !fx.dup {
            fresh.push((fx.slot, fresh.len() as u64 + 1, *value));
        }
        let idx = u32::try_from(i).expect("stream fits u32");
        dev_lines.extend(fx.line_writes.iter().map(|(a, _)| (idx, *a)));
        pipeline.recycle(fx);
    }
    out.pipeline_s = spans.close(open);
    let (root, merkle_s) = spans.time("bmo.merkle", || pipeline.root());
    black_box(root);
    out.merkle_s = merkle_s;
    let (hits, misses, _) = pipeline.dedup_stats();
    out.dedup = (hits, misses);

    // Crypto primitives on the same stream.
    let (_, md5_s) = spans.time("crypto.md5", || {
        for (_, value) in stream {
            black_box(md5(black_box(value.as_bytes())));
        }
    });
    out.md5 = (stream.len() as u64, md5_s);
    let key = Aes128::new(DEFAULT_KEY);
    let (otps, otp_s) = spans.time("crypto.otp", || {
        fresh
            .iter()
            .map(|(slot, counter, _)| otp_for_line(&key, *counter, *slot))
            .collect::<Vec<_>>()
    });
    out.otp = (fresh.len() as u64, otp_s);
    let ciphers: Vec<[u8; 64]> = fresh
        .iter()
        .zip(&otps)
        .map(|((_, _, value), otp)| encrypt_line(value.as_bytes(), otp))
        .collect();
    let (_, mac_s) = spans.time("crypto.mac", || {
        for (cipher, (_, counter, _)) in ciphers.iter().zip(&fresh) {
            black_box(line_mac(black_box(cipher), *counter));
        }
    });
    out.mac = (fresh.len() as u64, mac_s);

    // NVM write path: every device line through the ADR write queue.
    let mut wq = AdrWriteQueue::new(config.wq_capacity);
    wq.set_coalescing(config.wq_coalescing);
    let mut device = NvmDevice::new(config.nvm);
    let open = spans.open("nvm.write_path");
    for (idx, addr) in &dev_lines {
        black_box(wq.accept(Cycles(gap.0 * u64::from(*idx)), *addr, &mut device));
    }
    out.nvm_s = spans.close(open);
    out.nvm_lines = dev_lines.len() as u64;

    // Event queue: `events` pop/schedule round trips at a fixed depth.
    let mut rng = SimRng::new(seed);
    let gaps: Vec<u64> = (0..events)
        .map(|_| 1 + rng.gen_range(QUEUE_MAX_GAP))
        .collect();
    let mut q: EventQueue<u64> = EventQueue::with_capacity(QUEUE_DEPTH as usize * 2);
    let open = spans.open("sim.queue");
    for i in 0..QUEUE_DEPTH.min(events) {
        q.schedule(Cycles(gaps[i as usize]), i);
    }
    for (i, g) in gaps.iter().enumerate().skip(QUEUE_DEPTH as usize) {
        let (t, _) = q.pop().expect("queue holds QUEUE_DEPTH events");
        q.schedule(t + Cycles(*g), i as u64);
    }
    while q.pop().is_some() {}
    out.queue_s = spans.close(open);
    out.queue_ops = 2 * events;
    out
}
