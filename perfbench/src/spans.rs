//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a crate's public API:
//! its layer name, start, end, the enclosing span and the cell it
//! belongs to. Spans stay in memory until the run ends, when they are
//! written out as compact Chrome trace-event JSON and folded into a
//! self-time table. Recording is off unless [`enable`] was called, and
//! an off recorder costs one thread-local flag read per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Cell id of spans that belong to no cell (the layer probes).
pub const NO_CELL: usize = usize::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer (API call) name, e.g. `"sim.run"`.
    pub layer: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Cell the span belongs to.
    pub cell: usize,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Start recording spans (clears anything recorded before).
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Stop recording and hand back every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Ends its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span for `layer` in `cell`; it closes when the guard drops.
pub fn span(layer: &'static str, cell: usize) -> Guard {
    Guard(REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        r.open.push(idx);
        Some(idx)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.epoch.elapsed().as_nanos() as u64;
                if let Some(s) = r.spans.get_mut(idx) {
                    s.end_ns = end;
                }
                if r.open.last() == Some(&idx) {
                    r.open.pop();
                }
            });
        }
    }
}

/// Per-layer totals: number of spans, summed duration and summed self
/// time (duration minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LayerTime {
    /// Spans of this layer.
    count: u64,
    /// Summed duration, ns.
    total_ns: u64,
    /// Summed self time, ns.
    self_ns: u64,
}

/// Fold spans into per-layer totals, keyed by layer name.
fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.layer).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

/// The self-time table: one row per layer, largest self time first.
pub fn self_time_table(workload: &str, spans: &[Span]) -> String {
    let times = layer_times(spans);
    let all_self: u64 = times.values().map(|t| t.self_ns).sum::<u64>().max(1);
    let mut rows: Vec<_> = times.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = String::new();
    let _ = writeln!(out, "self time by layer, workload {workload}:");
    let _ = writeln!(
        out,
        "  {:<22} {:>8} {:>11} {:>11} {:>7}",
        "layer", "spans", "total ms", "self ms", "self %"
    );
    for (layer, t) in rows {
        let _ = writeln!(
            out,
            "  {:<22} {:>8} {:>11.3} {:>11.3} {:>6.1}%",
            layer,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / all_self as f64
        );
    }
    out
}

/// The spans as one compact Chrome trace-event document (complete
/// `"X"` events, microsecond timestamps, one track).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"cell\":{},\"parent\":{}}}}}",
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.cell,
            s.parent.map_or(-1, |p| p as i64)
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                layer: "cell",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                cell: 0,
            },
            Span {
                layer: "sim.new",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                cell: 0,
            },
            Span {
                layer: "sim.run",
                start_ns: 30,
                end_ns: 90,
                parent: Some(0),
                cell: 0,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t["cell"].self_ns, 20);
        assert_eq!(t["sim.run"].self_ns, 60);
        assert_eq!(t["sim.new"].count, 1);
    }

    #[test]
    fn recorder_nests_and_is_off_by_default() {
        {
            let _g = span("ignored", 0);
        }
        assert!(take().is_empty());
        enable();
        {
            let _outer = span("outer", 3);
            let _inner = span("inner", 3);
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(chrome_json(&spans).starts_with("{\"traceEvents\":[{\"name\":\"outer\""));
    }
}
