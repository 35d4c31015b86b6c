//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records a name, its start and end, the span that was open on the
//! same thread when it began (its parent), and the request it belongs to.
//! Spans are pushed to one process-wide buffer when they close and written
//! out once, after the measured work. While tracing is off, [`span`] and
//! [`request`] only call their closure.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one serve request.
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

// Relaxed suffices: the flag and the id counter publish no other data, and
// the span buffer is behind its own mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// `(span id, request id)` of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<(u64, Option<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// The wall clock. Every time the benchmark reads goes through here; the
/// times are measurements only and never reach the program's output.
pub fn now() -> Instant {
    Instant::now() // lint: allow(CL002) reason="benchmark wall-clock timing; never feeds program output"
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `name`, child of the span open on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    record(name, None, f)
}

/// Run `f` inside a root span of request `req`; spans opened inside it on
/// this thread carry the same request id.
pub fn request<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    record(name, Some(req), f)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(now).elapsed().as_nanos() as u64
}

fn record<R>(name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = OPEN.with(|open| open.borrow().last().copied());
    let parent = outer.map(|(p, _)| p);
    let request = request.or(outer.and_then(|(_, r)| r));
    OPEN.with(|open| open.borrow_mut().push((id, request)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    SPANS.lock().expect("span buffer poisoned by a panicking recorder").push(Span {
        id,
        parent,
        request,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Take every span recorded so far, in closing order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned by a panicking recorder"))
}

/// Calls, total time and self time of every span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: usize,
    pub total_ms: f64,
    /// Total time minus the part covered by child spans.
    pub self_ms: f64,
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0) as f64 / 1e6;
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ms += s.ms();
        layer.self_ms += (s.ms() - covered).max(0.0);
    }
    out
}

/// Durations in ms of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Write the spans as JSON lines, then one line per layer with its self time.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            opt(s.request),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    for (name, l) in layers(spans) {
        writeln!(
            out,
            "{{\"layer\":\"{name}\",\"calls\":{},\"total_ms\":{},\"self_ms\":{}}}",
            l.calls, l.total_ms, l.self_ms
        )?;
    }
    out.flush()
}
