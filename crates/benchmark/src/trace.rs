//! In-memory spans around the benchmark's calls into each layer.
//!
//! The program under test has no spans of its own yet (ROADMAP item 2), so
//! every span here is recorded from the benchmark's side of a public
//! function call. Spans stay in memory and are written out once, after the
//! measurement, as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that was open on this thread when this one began;
    /// 0 for a root.
    pub parent: u64,
    /// Spans of one operation share this; 0 when the operation is not known
    /// at the call site (a decorator running on one of the server's threads).
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Relaxed: the flag and the id counter publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the spans this thread opens from now on.
pub fn set_request(id: u64) {
    REQUEST.with(|r| r.set(id));
}

/// An open span; records itself when dropped. Inert while tracing is off.
pub struct Guard(Option<(u64, &'static str, u64, u64)>);

pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard(Some((id, name, parent, now_ns())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, parent, start_ns)) = self.0.take() else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        let request_id = REQUEST.with(Cell::get);
        // A poisoned lock only means another thread panicked mid-push; the
        // vector is still a valid list of spans.
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
    }
}

/// Records a finished child of the span open on this thread: one that ended
/// just now and lasted `took`. For callers that learn a span's name only
/// after the work is done.
pub fn record_child(name: &'static str, took: std::time::Duration) {
    if !enabled() {
        return;
    }
    let end_ns = now_ns();
    let span = Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        name,
        start_ns: end_ns.saturating_sub(took.as_nanos() as u64),
        end_ns,
        parent: OPEN.with(|open| open.borrow().last().copied().unwrap_or(0)),
        request_id: REQUEST.with(Cell::get),
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time per span id: its duration minus the time its direct children
/// cover. Children run on the parent's thread inside its interval, so they
/// never overlap each other.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut own: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(parent_self) = own.get_mut(&s.parent) {
            *parent_self = parent_self.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// One JSON object per line: `{id, name, start_ns, end_ns, parent,
/// request_id, self_ns}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{},\"self_ns\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request_id, own[&s.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "t",
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span_at(1, 0, 0, 100),
            span_at(2, 1, 10, 40),
            span_at(3, 1, 50, 70),
            span_at(4, 2, 15, 25), // grandchild: charged to 2, not to 1
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 50);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&4], 10);
        // Children plus self time add up to each parent exactly.
        for parent in &spans {
            let children: u64 = spans
                .iter()
                .filter(|s| s.parent == parent.id)
                .map(Span::duration_ns)
                .sum();
            assert_eq!(children + own[&parent.id], parent.duration_ns());
        }
    }

    #[test]
    fn guards_nest_on_one_thread_and_are_inert_when_off() {
        // The only test that touches the global recorder.
        set_enabled(false);
        drop(span("off"));
        set_enabled(true);
        set_request(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let spans = drain();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.request_id, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
