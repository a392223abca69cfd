//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A loop thread records one `tick` span per base tick and one
//! child span per layer call inside it; spans of one tick share the tick
//! as their id. Nothing is recorded when tracing is off, and the spans
//! are written out only after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the per-tick parent span.
pub const TICK: &str = "tick";

/// One timed interval on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Thread that recorded it (`loop`, `agent`, `controld`).
    pub thread: &'static str,
    /// The base tick all spans of one loop iteration share.
    pub tick: u64,
    /// Layer call, or [`TICK`].
    pub name: &'static str,
    /// Name of the enclosing span (`TICK` for layer calls, `loop` for
    /// the tick span itself).
    pub parent: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A per-thread span recorder; a disabled one only runs the closures.
#[derive(Debug)]
pub struct Spans {
    thread: &'static str,
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder for `thread`, timing relative to `epoch`; records only
    /// when `on`.
    pub fn new(thread: &'static str, epoch: Instant, on: bool) -> Self {
        Spans {
            thread,
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The start of a tick span, when tracing.
    pub fn mark(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Run `f` as layer call `name` inside tick `tick`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, tick: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            thread: self.thread,
            tick,
            name,
            parent: TICK,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        out
    }

    /// Close the tick span opened by [`Spans::mark`].
    pub fn tick(&mut self, tick: u64, start: Option<Instant>) {
        if let Some(start) = start {
            let end = Instant::now();
            let span = Span {
                thread: self.thread,
                tick,
                name: TICK,
                parent: "loop",
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per `(thread, span name)` in seconds: a span's duration
/// minus the part its children cover. Layer calls have no children, so
/// their self time is their duration; a tick's self time is the part of
/// the tick no layer call covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut children: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == TICK) {
        *children.entry((s.thread, s.tick)).or_default() += s.duration_s();
    }
    let mut out: BTreeMap<(&'static str, &'static str), f64> = BTreeMap::new();
    for s in spans {
        let covered = if s.name == TICK {
            children.get(&(s.thread, s.tick)).copied().unwrap_or(0.0)
        } else {
            0.0
        };
        *out.entry((s.thread, s.name)).or_default() += s.duration_s() - covered;
    }
    out
}

/// Write spans as CSV (`thread,tick,name,parent,start_ns,end_ns`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,tick,name,parent,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.thread, s.tick, s.name, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, tick: u64, start: u64, end: u64) -> Span {
        Span {
            thread: "loop",
            tick,
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_tick() {
        let spans = [
            span("step", TICK, 0, 10, 40),
            span("advance", TICK, 0, 50, 90),
            span(TICK, "loop", 0, 0, 100),
            span("step", TICK, 1, 110, 130),
            span(TICK, "loop", 1, 100, 200),
        ];
        let t = self_times(&spans);
        let ns = |name| (t[&("loop", name)] * 1e9).round();
        assert_eq!(ns("step"), 50.0);
        assert_eq!(ns("advance"), 40.0);
        // Tick 0 leaves 30 ns uncovered, tick 1 leaves 80.
        assert_eq!(ns(TICK), 110.0);
    }
}
