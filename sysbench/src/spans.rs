//! In-memory host-time spans recorded by the benchmark around its own
//! calls into the simulator's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that was open when it began, and the id of
//! the iteration it belongs to. Spans stay in memory and are written
//! out once, when the benchmark ends. When tracing is off every call is
//! a no-op, so the end-to-end runs time the layers without it.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `fleet.run_policy`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (equal to the start
    /// while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Iteration the span belongs to; shared by every span of it.
    pub iter: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
struct Open(Option<usize>);

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
}

/// The span recorder. Interior mutability lets it sit behind the
/// `Fn + Sync` evaluation closure the planner's search takes.
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and ignores every call
    /// otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Sets the iteration id stamped on spans that begin from now on.
    pub fn set_iter(&self, iter: u32) {
        if self.on {
            self.inner.lock().expect("tracer lock poisoned").iter = iter;
        }
    }

    /// Opens a span nested in the innermost open one.
    fn begin(&self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer lock poisoned");
        let idx = inner.spans.len();
        let parent = inner.stack.last().copied();
        let iter = inner.iter;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
        });
        inner.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span. Spans close in the reverse order they opened.
    fn end(&self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer lock poisoned");
        assert_eq!(
            inner.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        inner.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that the union of its direct children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans as JSON: one object per span, with its self time.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"spans\":[\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{i},\"name\":\"{}\",\"iter\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.iter,
            s.start_ns,
            s.end_ns,
        );
    }
    out.push_str("\n]}\n");
    out
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
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children cover [10, 50); a third [60, 70).
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            span("a.inner", 15, 35, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 10, 20]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn recorder_nests_and_stamps_iterations() {
        let tr = Tracer::new(true);
        tr.set_iter(3);
        tr.span("outer", || tr.span("inner", || ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + spans[1].dur_ns(), spans[0].dur_ns());
    }

    #[test]
    fn recorder_off_keeps_nothing() {
        let tr = Tracer::new(false);
        tr.span("outer", || tr.span("inner", || ()));
        assert!(tr.spans().is_empty());
    }
}
