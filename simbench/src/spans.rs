//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent and run id. Spans stay in
//! memory until the benchmark ends, when [`Spans::write_jsonl`] writes
//! them out. A disabled recorder still times each phase (the untraced runs
//! need the durations) but stores nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `instrument.pass`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`], if any.
    pub parent: Option<usize>,
    /// The traced run the span belongs to.
    pub run: u32,
}

/// Handle of an open span, closed with [`Spans::close`].
#[must_use = "an open span must be closed"]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A recorder that only times phases.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts the next traced run; later spans carry its id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.stack.last().copied(),
                run: self.run,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans close innermost first");
            self.spans[slot].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let r = f();
        (r, self.close(open))
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans as JSON lines (`id`, `parent`, `run`, `name`, `start_ns`,
    /// `end_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Writes [`Spans::to_jsonl`] to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_self_time_excludes_children() {
        let mut s = Spans::enabled();
        s.next_run();
        let outer = s.open("outer");
        let inner = s.open("inner");
        s.close(inner);
        s.close(outer);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[0].run, 1);
        let own = s.self_times();
        let outer_total = (s.spans()[0].end_ns - s.spans()[0].start_ns) as f64 / 1e9;
        assert!(own["outer"] <= outer_total);
        assert_eq!(s.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut s = Spans::disabled();
        let ((), secs) = s.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs > 0.0);
        assert!(s.spans().is_empty());
    }
}
