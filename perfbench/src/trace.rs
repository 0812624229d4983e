//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code opens a span around each call it makes into a
//! layer's public functions; nothing inside the program is instrumented.
//! Spans stay in memory while the workload runs and are written out once,
//! as Chrome `trace_event` JSON, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Sentinel for "no parent" / "no label".
const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `ds.layout`.
    pub name: &'static str,
    /// Sub-classification the metrics group by (system, kernel, op kind).
    pub tag: &'static str,
    /// Index into [`Trace::labels`] (the sweep cell), or `u32::MAX`.
    pub label: u32,
    /// Index of the enclosing span in [`Trace::spans`], or `u32::MAX`.
    pub parent: u32,
    /// Recording thread (0 for the main thread, client index otherwise).
    pub thread: u32,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The enclosing span's index, if any.
    pub fn parent(&self) -> Option<usize> {
        (self.parent != NONE).then_some(self.parent as usize)
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    thread: u32,
    /// Recorded spans; an open span has `end_ns == start_ns` until closed.
    pub spans: Vec<Span>,
    /// Cell labels spans refer to by index.
    pub labels: Vec<String>,
    open: Vec<u32>,
}

impl Trace {
    /// A recorder for `thread` whose clock starts at `origin` (share one
    /// origin across threads so their spans line up).
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::new(),
            labels: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Intern a label for [`Trace::enter`].
    pub fn label(&mut self, label: &str) -> u32 {
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Open a span as a child of the innermost open one; close it with
    /// [`Trace::exit`].
    pub fn enter(&mut self, name: &'static str, tag: &'static str, label: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            label,
            parent: self.open.last().copied().unwrap_or(NONE),
            thread: self.thread,
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id as u32);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id as u32),
            "spans close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, tag, NONE);
        let r = f();
        self.exit(id);
        r
    }

    /// Append another thread's spans (re-indexing parents and labels).
    pub fn absorb(&mut self, other: Trace) {
        let span_base = self.spans.len() as u32;
        let label_base = self.labels.len() as u32;
        self.labels.extend(other.labels);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += span_base;
            }
            if s.label != NONE {
                s.label += label_base;
            }
            s
        }));
    }

    /// Total duration of the spans named `name` (optionally only `tag`).
    pub fn total_ns(&self, name: &str, tag: Option<&str>) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Children never overlap each other (one thread, strict
    /// nesting), so the covered part is the sum of their durations.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur_ns())).collect();
        for s in &self.spans {
            if let Some(p) = s.parent() {
                own[p] -= i128::from(s.dur_ns());
            }
        }
        own
    }

    /// Check that every span is closed, lies inside its parent on the same
    /// thread, and has a non-negative self time.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} span(s) still open", self.open.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent() {
                let parent = self
                    .spans
                    .get(p)
                    .ok_or_else(|| format!("span {i} has a dangling parent {p}"))?;
                if p >= i || parent.thread != s.thread {
                    return Err(format!("span {i} ({}) has a foreign parent {p}", s.name));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) [{}, {}] escapes parent {p} ({}) [{}, {}]",
                        s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                    ));
                }
            }
        }
        if let Some((i, t)) = self.self_ns().iter().enumerate().find(|(_, &t)| t < 0) {
            return Err(format!(
                "span {i} ({}) has negative self time {t} ns",
                self.spans[i].name
            ));
        }
        Ok(())
    }

    /// Chrome `trace_event` JSON (complete `X` events, microsecond times),
    /// loadable in Perfetto or `chrome://tracing`. Spans whose name is in
    /// `skip` are left out of the file (they still fed the metrics).
    pub fn to_chrome_json(&self, skip: &[&str]) -> String {
        let own = self.self_ns();
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if skip.contains(&s.name) {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let label = self.labels.get(s.label as usize).map_or("", String::as_str);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \
                 \"tag\": \"{}\", \"cell\": \"{}\", \"self_us\": {:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent().map_or(-1, |p| p as i64),
                s.tag,
                label.replace('\\', "\\\\").replace('"', "\\\""),
                own[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_nonnegative_self_time() {
        let mut t = Trace::new(Instant::now(), 0);
        let l = t.label("cell/a");
        let root = t.enter("bench.cell", "", l);
        t.time("ds.layout", "near", || std::hint::black_box(1 + 1));
        t.time("nsc.kernel", "bfs", || std::hint::black_box(2 + 2));
        t.exit(root);
        t.check_nesting().expect("well nested");
        assert_eq!(t.spans[1].parent(), Some(0));
        let own = t.self_ns();
        assert_eq!(
            own[0] + own[1] + own[2],
            i128::from(t.spans[0].dur_ns()),
            "self times partition the root"
        );
        let json = t.to_chrome_json(&[]);
        assert!(json.contains("\"cell\": \"cell/a\""));
    }

    #[test]
    fn escaping_child_is_reported() {
        let mut t = Trace::new(Instant::now(), 0);
        let root = t.enter("bench.cell", "", NONE);
        let child = t.enter("nsc.kernel", "", NONE);
        t.exit(child);
        t.exit(root);
        t.spans[1].end_ns = t.spans[0].end_ns + 1;
        assert!(t.check_nesting().is_err());
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut a = Trace::new(origin, 0);
        let r = a.enter("churn.client", "", NONE);
        a.exit(r);
        let mut b = Trace::new(origin, 1);
        let r = b.enter("churn.client", "", NONE);
        b.time("core.free_aff", "", || ());
        b.exit(r);
        a.absorb(b);
        assert_eq!(a.spans[2].parent(), Some(1));
        a.check_nesting().expect("absorbed trace still nests");
    }
}
