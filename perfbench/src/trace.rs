//! The traced run's span recorder.
//!
//! Spans are recorded around the public calls the benchmark makes into the
//! program — the benchmark cannot see inside a call — and kept in memory,
//! one buffer per thread. Each holds a name, start and end on one clock,
//! the span that encloses it on the same thread, and the session or tree
//! it belongs to. Disarmed (the untraced run), `span` costs one relaxed
//! load and records nothing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ARMED: AtomicBool = AtomicBool::new(false);

pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Nanoseconds since the first call, on the clock every span uses.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or `u32::MAX`.
    pub parent: u32,
    pub session: u64,
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Opens a span; it closes when the returned guard drops.
pub fn span(name: &'static str, session: u64) -> Guard {
    if !armed() {
        return Guard(None);
    }
    let parent = OPEN.with(|o| o.borrow().last().copied().unwrap_or(NO_PARENT));
    let idx = SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            session,
        });
        (s.len() - 1) as u32
    });
    OPEN.with(|o| o.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            SPANS.with(|s| s.borrow_mut()[idx as usize].end_ns = end);
            OPEN.with(|o| o.borrow_mut().pop());
        }
    }
}

/// What one armed span costs the thread that records it, in ns: the mean
/// over 100,000 empty spans (recorded, then discarded).
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let kept = take();
    let start = Instant::now();
    for i in 0..N {
        drop(span("trace.cost", u64::from(i)));
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(N);
    SPANS.with(|s| *s.borrow_mut() = kept);
    ns
}

/// Takes the calling thread's spans (threads hand theirs back on join).
pub fn take() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Writes every buffer as one JSON document: `{"threads":[[span,...],...]}`
/// with spans as `[name, start_ns, end_ns, parent, session]`.
pub fn write(path: &std::path::Path, buffers: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = String::from("{\"threads\":[");
    for (t, spans) in buffers.iter().enumerate() {
        out.push_str(if t == 0 { "[" } else { ",[" });
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}[\"{}\",{},{},{},{}]",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.session
            );
        }
        out.push(']');
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
