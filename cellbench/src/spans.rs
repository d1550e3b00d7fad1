//! In-memory spans recorded at layer boundaries from outside the library.
//!
//! A span's parent is the innermost span open on the same thread. Worker
//! threads of the campaign's pool start with no open span, so their spans
//! take the span marked as the *ambient* parent (the runner call that owns
//! the pool).

use difi::util::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Ids are positions in the vector [`Spans::finish`]
/// returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `dispatch` or `sink.journal`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Id of the enclosing span.
    pub parent: Option<usize>,
    /// Id of the mask the span worked on.
    pub mask_id: Option<u64>,
    /// Small per-process thread number.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: AtomicUsize,
    /// Id + 1 of the ambient parent; 0 for none.
    ambient: AtomicUsize,
    closed: Mutex<Vec<(usize, Span)>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            ambient: AtomicUsize::new(0),
            closed: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Opens a span on the calling thread; it closes when the guard drops.
    pub fn enter(&self, name: &'static str, mask_id: Option<u64>) -> Open<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o
                .last()
                .copied()
                .or_else(|| self.ambient.load(Ordering::SeqCst).checked_sub(1));
            o.push(id);
            parent
        });
        Open {
            spans: self,
            id,
            name,
            parent,
            mask_id,
            ambient: false,
            start_ns: self.now_ns(),
        }
    }

    /// Like [`Spans::enter`], and makes the span the parent of spans opened
    /// on threads with no span of their own while it is open.
    pub fn enter_ambient(&self, name: &'static str) -> Open<'_> {
        let mut open = self.enter(name, None);
        self.ambient.store(open.id + 1, Ordering::SeqCst);
        open.ambient = true;
        open
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// All spans, indexed by id.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<Span> {
        let mut closed = self.closed.into_inner().expect("span lock poisoned");
        closed.sort_by_key(|(id, _)| *id);
        assert!(
            closed.iter().enumerate().all(|(i, (id, _))| i == *id),
            "a span was left open"
        );
        closed.into_iter().map(|(_, s)| s).collect()
    }
}

/// Guard of an open span.
#[derive(Debug)]
pub struct Open<'a> {
    spans: &'a Spans,
    id: usize,
    name: &'static str,
    parent: Option<usize>,
    mask_id: Option<u64>,
    ambient: bool,
    start_ns: u64,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end_ns = self.spans.now_ns();
        OPEN.with(|o| o.borrow_mut().retain(|&id| id != self.id));
        if self.ambient {
            self.spans.ambient.store(0, Ordering::SeqCst);
        }
        let span = Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            parent: self.parent,
            mask_id: self.mask_id,
            thread: THREAD.with(|t| *t),
        };
        if let Ok(mut closed) = self.spans.closed.lock() {
            closed.push((self.id, span));
        }
    }
}

/// Runs `f` inside a span when a recorder is given.
pub fn timed<T>(
    spans: Option<&Spans>,
    name: &'static str,
    mask_id: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    let _open = spans.map(|s| s.enter(name, mask_id));
    f()
}

/// Checks that every span lies inside its parent and that spans sharing a
/// parent do not overlap. With `per_thread`, siblings are only compared
/// with siblings on the same thread (a worker pool runs them in parallel).
///
/// # Errors
///
/// Describes the first violation.
pub fn check_nesting(spans: &[Span], per_thread: bool) -> Result<(), String> {
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent.map(|p| &spans[p]) {
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {id} ({}) is not inside its parent ({})",
                    s.name, p.name
                ));
            }
        }
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.parent, if per_thread { s.thread } else { 0 }, s.start_ns)
    });
    for w in order.windows(2) {
        let (a, b) = (&spans[w[0]], &spans[w[1]]);
        let same_group = a.parent == b.parent && (!per_thread || a.thread == b.thread);
        if same_group && b.start_ns < a.end_ns {
            return Err(format!(
                "sibling spans {} ({}) and {} ({}) overlap",
                w[0], a.name, w[1], b.name
            ));
        }
    }
    Ok(())
}

/// Σ duration of the spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 * 1e-9)
        .fold(0.0, |a, b| a + b)
}

/// Σ self time of the spans named `name`, in seconds: each span's
/// duration minus the part of it its children cover.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut total = 0u64;
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        let kids = &mut children[id];
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        total += s.ns() - covered.min(s.ns());
    }
    total as f64 * 1e-9
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent,
/// mask_id, thread}` objects.
pub fn to_json(spans: &[Span]) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("parent", opt(s.parent.map(|p| p as u64))),
                    ("mask_id", opt(s.mask_id)),
                    ("thread", Json::U64(u64::from(s.thread))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            mask_id: None,
            thread: 0,
        }
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let rec = Spans::default();
        {
            let _outer = rec.enter("outer", None);
            timed(Some(&rec), "inner", Some(7), || ());
        }
        let spans = rec.finish();
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].mask_id, Some(7));
        assert_eq!(check_nesting(&spans, false), Ok(()));
    }

    #[test]
    fn worker_threads_inherit_the_ambient_parent() {
        let rec = Spans::default();
        {
            let _runner = rec.enter_ambient("runner");
            std::thread::scope(|s| {
                s.spawn(|| timed(Some(&rec), "dispatch", None, || ()));
            });
        }
        let spans = rec.finish();
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[0].thread, spans[1].thread);
    }

    #[test]
    fn overlap_and_escape_are_rejected() {
        let parent = span("p", 0, 100, None);
        let ok = [
            parent.clone(),
            span("a", 0, 50, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(check_nesting(&ok, false), Ok(()));
        let overlap = [
            parent.clone(),
            span("a", 0, 60, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert!(check_nesting(&overlap, false).is_err());
        let escape = [parent, span("a", 90, 110, Some(0))];
        assert!(check_nesting(&escape, false).is_err());
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span("runner", 0, 100, None),
            span("dispatch", 10, 40, Some(0)),
            span("dispatch", 30, 50, Some(0)),
            span("sink", 60, 70, Some(0)),
        ];
        assert!((self_s(&spans, "runner") - 50e-9).abs() < 1e-15);
        assert!((total_s(&spans, "dispatch") - 50e-9).abs() < 1e-15);
    }
}
