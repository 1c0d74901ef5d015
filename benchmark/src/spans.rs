//! A wall-clock [`SpanSink`]: the benchmark's own view of where host time
//! goes inside the engine.
//!
//! The device already opens spans at every layer boundary (query, plan
//! stage, operator, pass, readback, upload) but stamps them with the
//! *modeled* clock. This sink ignores that clock and stamps each begin
//! and end with [`Instant::now`], then folds the spans into per-layer
//! totals as they close, so nothing is kept per span. Self time is a
//! span's duration minus the durations of its direct children.

use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

use gpudb_sim::span::{SpanKind, SpanSink};
use gpudb_sim::WorkCounters;

/// Passes of at least this many fragments make the rasterizer fan out
/// over worker threads.
pub const FANOUT_FRAGMENTS: u64 = 32_768;

/// Host seconds and fragment counts accumulated per layer.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Passes with a fragment program bound (`pass:<program>`).
    pub program_s: f64,
    /// Fragments rasterized by program passes.
    pub program_fragments: u64,
    /// Fixed-function passes (`pass:fixed-function`).
    pub fixed_s: f64,
    /// Fragments rasterized by fixed-function passes.
    pub fixed_fragments: u64,
    /// Draw passes of either kind.
    pub passes: u64,
    /// Draw passes of at least [`FANOUT_FRAGMENTS`] fragments.
    pub fanout_passes: u64,
    /// Readback spans (buffer reads and occlusion syncs).
    pub readback_s: f64,
    /// Upload spans.
    pub upload_s: f64,
    /// The `selection` plan stage, inclusive.
    pub selection_s: f64,
    /// `aggregate:*` plan stages, inclusive.
    pub aggregate_s: f64,
    /// `filter/*` operators, inclusive.
    pub filter_s: f64,
    /// `agg/SUM(..)` and `agg/AVG(..)` operators, inclusive.
    pub agg_sum_s: f64,
    /// Every other `agg/*` operator (COUNT and order statistics).
    pub agg_order_s: f64,
    /// Operator self time: host work in operators outside device spans.
    pub operator_self_s: f64,
    /// Draw passes by span label, e.g. `pass:TestBit`.
    pub pass_counts: BTreeMap<String, u64>,
    /// Host seconds by pass label.
    pub pass_seconds: BTreeMap<String, f64>,
}

struct Open {
    kind: SpanKind,
    name: String,
    start: Instant,
    counters: WorkCounters,
    children_s: f64,
}

/// Wall-clock span sink; attach with `Gpu::attach_span_sink` and
/// recover the totals with [`WallSink::recover`].
#[derive(Default)]
pub struct WallSink {
    stack: Vec<Open>,
    totals: LayerTotals,
}

impl WallSink {
    /// A sink with empty totals.
    pub fn new() -> WallSink {
        WallSink::default()
    }

    /// Downcast a sink taken back from the device and return its totals.
    pub fn recover(sink: Box<dyn SpanSink>) -> Option<LayerTotals> {
        sink.into_any()
            .downcast::<WallSink>()
            .ok()
            .map(|sink| sink.totals)
    }

    fn close(&mut self, open: Open, seconds: f64, counters: &WorkCounters) {
        let self_s = seconds - open.children_s;
        let t = &mut self.totals;
        match open.kind {
            SpanKind::Pass => {
                let fragments = counters.since(&open.counters).fragments_generated;
                if open.name == "pass:fixed-function" {
                    t.fixed_s += seconds;
                    t.fixed_fragments += fragments;
                } else if open.name.starts_with("pass:") {
                    t.program_s += seconds;
                    t.program_fragments += fragments;
                }
                if open.name.starts_with("pass:") {
                    t.passes += 1;
                    t.fanout_passes += u64::from(fragments >= FANOUT_FRAGMENTS);
                }
                *t.pass_counts.entry(open.name.clone()).or_default() += 1;
                *t.pass_seconds.entry(open.name).or_default() += seconds;
            }
            SpanKind::Readback => t.readback_s += seconds,
            SpanKind::Upload => t.upload_s += seconds,
            SpanKind::Stage if open.name == "selection" => t.selection_s += seconds,
            SpanKind::Stage if open.name.starts_with("aggregate:") => t.aggregate_s += seconds,
            SpanKind::Operator => {
                t.operator_self_s += self_s;
                if open.name.starts_with("filter/") {
                    t.filter_s += seconds;
                } else if let Some(label) = open.name.strip_prefix("agg/") {
                    if label.starts_with("SUM(") || label.starts_with("AVG(") {
                        t.agg_sum_s += seconds;
                    } else {
                        t.agg_order_s += seconds;
                    }
                }
            }
            _ => {}
        }
    }
}

impl SpanSink for WallSink {
    fn begin_span(&mut self, kind: SpanKind, name: &str, _clock_ns: u64, counters: &WorkCounters) {
        self.stack.push(Open {
            kind,
            name: name.to_string(),
            start: Instant::now(),
            counters: *counters,
            children_s: 0.0,
        });
    }

    fn end_span(&mut self, _clock_ns: u64, counters: &WorkCounters) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let seconds = open.start.elapsed().as_secs_f64();
        if let Some(parent) = self.stack.last_mut() {
            parent.children_s += seconds;
        }
        self.close(open, seconds, counters);
    }

    fn instant(&mut self, _name: &str, _detail: &str, _clock_ns: u64) {}

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}
