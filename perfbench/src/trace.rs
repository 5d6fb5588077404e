//! In-memory span recording for the traced run.
//!
//! A span is a named interval around one call into a layer's public
//! function: `(id, parent, run, thread, name, start, end)`. Spans live
//! in memory while the benchmark runs and are written out once at the
//! end ([`write_jsonl`]). Code under measurement is generic over
//! [`Recorder`]; the untraced path passes [`NoTrace`], whose methods
//! compile to nothing, so the same code times itself with and without
//! tracing and the difference is the tracing overhead.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Span identifier; [`ROOT`] (0) means "no parent".
pub type SpanId = u64;

/// The parent id of a top-level span.
pub const ROOT: SpanId = 0;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub run: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: what [`Recorder::end`] needs to close it.
pub struct Open {
    pub id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Option<Instant>,
}

/// Something that records spans (or deliberately does not).
pub trait Recorder {
    fn begin(&mut self, name: &'static str, parent: SpanId) -> Open;
    fn end(&mut self, open: Open);

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }
}

/// The untraced recorder: no clock reads, no allocation.
pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline(always)]
    fn begin(&mut self, name: &'static str, parent: SpanId) -> Open {
        Open {
            id: ROOT,
            parent,
            name,
            start: None,
        }
    }

    #[inline(always)]
    fn end(&mut self, _open: Open) {}
}

/// The shared span sink: one per traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    next_run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            next_run: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh run id for one measured iteration; run 0 is the set-up.
    pub fn new_run(&self) -> u32 {
        self.next_run.fetch_add(1, Ordering::Relaxed)
    }

    /// A per-thread log that records spans of run `run` on `thread`
    /// without locking; [`SpanLog::finish`] hands them to the tracer.
    pub fn log(&self, run: u32, thread: u32) -> SpanLog<'_> {
        SpanLog {
            tracer: self,
            run,
            thread,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span sink poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// One thread's span buffer (see [`Tracer::log`]).
pub struct SpanLog<'t> {
    tracer: &'t Tracer,
    run: u32,
    thread: u32,
    spans: Vec<Span>,
}

impl SpanLog<'_> {
    /// Moves this log's spans into the tracer.
    pub fn finish(self) {
        self.tracer
            .spans
            .lock()
            .expect("span sink poisoned")
            .extend(self.spans);
    }
}

impl Recorder for SpanLog<'_> {
    fn begin(&mut self, name: &'static str, parent: SpanId) -> Open {
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    fn end(&mut self, open: Open) {
        let end = Instant::now();
        let origin = self.tracer.origin;
        let start = open.start.expect("a traced span has a start time");
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            run: self.run,
            thread: self.thread,
            name: open.name,
            start_ns: start.duration_since(origin).as_nanos() as u64,
            end_ns: end.duration_since(origin).as_nanos() as u64,
        });
    }
}

/// Per-name totals derived from spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: each span's duration minus the part of its
    /// interval covered by its children (overlapping children, as on
    /// parallel workers, are counted once).
    pub self_ns: u64,
}

/// Self time of every span, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Union of the children's intervals, clipped to the span.
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own[&s.id];
    }
    out
}

/// Writes the trace as JSON lines: a header, one line per span, and
/// one summary line per span name (counts, total and self time).
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"run\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.run, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (name, t) in layer_times(spans) {
        writeln!(
            out,
            "{{\"layer\":\"{name}\",\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )?;
    }
    out.flush()
}
