//! Spans recorded by the traced replay, from the benchmark's own files.
//!
//! A span is `name, start, end, parent, request`. Spans live in memory
//! and are written out (`--trace-out`) when the run ends. A span's *self
//! time* is its duration minus the part of it its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sqlfe.parse`.
    pub name: &'static str,
    /// Nanoseconds from the trace's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the trace's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The replayed request the span belongs to.
    pub request: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Every span entered so far, in entry order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A trace over already-timed spans (tests and offline analysis).
    pub fn from_spans(spans: Vec<Span>) -> Trace {
        Trace {
            spans,
            ..Trace::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Time one call as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of the span closed last (a leaf just timed by `call`).
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::duration_ns)
    }

    /// Self time of every span, in span order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per request, the summed duration of the spans named `name`; a
    /// request without such a span is absent.
    pub fn per_request_ns(&self, name: &str) -> Vec<u64> {
        let mut sums: Vec<(u64, u64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            match sums.last_mut() {
                Some((request, sum)) if *request == span.request => *sum += span.duration_ns(),
                _ => sums.push((span.request, span.duration_ns())),
            }
        }
        sums.into_iter().map(|(_, sum)| sum).collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (span, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.request, span.start_ns, span.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
