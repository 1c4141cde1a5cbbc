//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every timed call goes through [`Tracer::open`] / [`Tracer::close`], in
//! traced and untraced runs alike, so both measure the same instants. Only
//! a traced run keeps the spans: name, parent, start, end and the
//! allocations made while the span was open. They stay in memory until the
//! run ends, when [`Tracer::summary`] folds them into per-name totals and
//! self times (a span's duration minus the part its children cover).

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    secs: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
    allocs: u64,
    alloc_bytes: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, seconds.
    pub secs: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_secs: f64,
    /// Allocations made while the spans were open, children included.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// The span recorder of one pass.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`, and only times otherwise.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing `name`, nested under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                secs: 0.0,
                allocs: 0,
                alloc_bytes: 0,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        let (allocs, alloc_bytes) = alloc::counts();
        Open {
            index,
            start: Instant::now(),
            allocs,
            alloc_bytes,
        }
    }

    /// Stop timing; returns the span's duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if let Some(index) = open.index {
            let (allocs, alloc_bytes) = alloc::counts();
            let span = &mut self.spans[index];
            span.secs = secs;
            span.allocs = allocs - open.allocs;
            span.alloc_bytes = alloc_bytes - open.alloc_bytes;
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans close in reverse opening order");
        }
        secs
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    /// Per-name totals, with self time computed from the parent links.
    pub fn summary(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_secs[parent] += span.secs;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_secs) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.secs += span.secs;
            t.self_secs += span.secs - children;
            t.allocs += span.allocs;
            t.alloc_bytes += span.alloc_bytes;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.open("outer");
        let inner = tracer.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_secs = tracer.close(inner);
        let outer_secs = tracer.close(outer);
        let summary = tracer.summary();
        assert_eq!(summary["inner"].count, 1);
        assert!(outer_secs >= inner_secs);
        let self_secs = summary["outer"].self_secs;
        assert!((self_secs - (outer_secs - inner_secs)).abs() < 1e-9);
    }

    #[test]
    fn untraced_tracer_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let (v, secs) = tracer.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.summary().is_empty());
    }
}
