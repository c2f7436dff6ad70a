//! Spans recorded by the benchmark around its own calls into each
//! layer's public functions. Spans live in a thread-local buffer while
//! the run lasts and are written out when it ends; with tracing off a
//! span costs one thread-local flag check.

use crate::util::{num, obj, text, Samples};
use lsc_abi::json::JsonValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        request: 0,
    });
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(enabled: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = enabled);
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Run `f` inside a span named `name`. Spans opened inside `f` become
/// its children; the span carries the current request id.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.spans.len();
        let span = Span {
            name,
            start_ns: now_ns(t.epoch),
            end_ns: 0,
            parent: t.stack.last().copied(),
            request: t.request,
        };
        t.spans.push(span);
        t.stack.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = now_ns(t.epoch);
            t.spans[id].end_ns = end;
            t.stack.pop();
        });
    }
    out
}

/// Run `f` as request `id`: a root span named `name` whose descendants
/// all carry the id.
pub fn request<R>(id: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().request = id);
    span(name, f)
}

/// Take every span recorded on this thread.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time of each span: its duration minus the part its children
/// cover (children never overlap their siblings here: the tracer is
/// single-threaded per request).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Per span name: count, p50 and total of self time (µs).
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, Samples> {
    let mut table: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        table
            .entry(span.name)
            .or_default()
            .push(self_ns as f64 / 1e3);
    }
    table
}

pub fn table_json(table: &BTreeMap<&'static str, Samples>) -> JsonValue {
    obj(table.iter().map(|(name, s)| {
        (
            *name,
            obj([
                ("count", num(s.len() as f64)),
                ("self_p50_us", num(s.median())),
                ("self_total_us", num(s.sum())),
            ]),
        )
    }))
}

/// How well the spans account for each request: per root span, the sum
/// of self times over the request's spans (which must equal the root's
/// duration) and the share left in the root itself — time inside the
/// request that no layer span covers.
pub struct Coverage {
    pub requests: usize,
    /// Largest |Σ self − root duration| over requests, ns.
    pub max_sum_error_ns: u64,
    /// Median share of a request's time not inside any child span.
    pub unattributed_p50: f64,
}

/// Coverage of the requests whose root span is named `root`.
pub fn coverage(spans: &[Span], root: &str) -> Coverage {
    let selfs = self_times_ns(spans);
    let mut by_request: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.parent.is_none() && span.name == root {
            let entry = by_request.entry(span.request).or_default();
            entry.1 += span.end_ns - span.start_ns;
            entry.2 += selfs[i];
        }
    }
    for (i, span) in spans.iter().enumerate() {
        if let Some(entry) = by_request.get_mut(&span.request) {
            entry.0 += selfs[i];
        }
    }
    let mut max_err = 0;
    let mut shares = Samples::default();
    for (sum, root, root_self) in by_request.values() {
        max_err = max_err.max(sum.abs_diff(*root));
        if *root > 0 {
            shares.push(*root_self as f64 / *root as f64);
        }
    }
    Coverage {
        requests: by_request.len(),
        max_sum_error_ns: max_err,
        unattributed_p50: shares.median(),
    }
}

/// Cost of recording one span, measured on this thread (ns).
pub fn span_cost_ns() -> f64 {
    let was = enabled();
    set_enabled(true);
    let n = 20_000;
    let start = Instant::now();
    for i in 0..n {
        span("calibrate", || std::hint::black_box(i));
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(n);
    take();
    set_enabled(was);
    ns
}

/// Write spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = obj([
            ("name", text(span.name)),
            ("start_ns", num(span.start_ns as f64)),
            ("end_ns", num(span.end_ns as f64)),
            (
                "parent",
                span.parent.map_or(JsonValue::Null, |p| num(p as f64)),
            ),
            ("request", num(span.request as f64)),
        ]);
        writeln!(out, "{}", line.to_json())?;
    }
    out.flush()
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
            request: 7,
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        let cov = coverage(&spans, "root");
        assert_eq!(cov.requests, 1);
        assert_eq!(cov.max_sum_error_ns, 0);
        assert!((cov.unattributed_p50 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn recorded_spans_nest_under_the_request() {
        set_enabled(true);
        take();
        request(3, "root", || span_in("child"));
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        assert_eq!(coverage(&spans, "root").max_sum_error_ns, 0);
    }

    fn span_in(name: &'static str) {
        super::span(name, || std::hint::black_box(1));
    }
}
