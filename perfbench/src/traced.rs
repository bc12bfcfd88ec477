//! Per-layer metrics read off one traced run: the critical-path
//! attribution of `hetero_trace::analyze`, the metrics hub's histograms,
//! and the run's own accounting.

use std::collections::BTreeSet;

use hetero_core::{TrainResult, WorkerKind};
use hetero_metrics::{Metric, MetricsHub};
use hetero_trace::analyze::analyze;
use hetero_trace::{EventKind, Trace};

use crate::report::Metrics;

/// How far a drained trace accounts for itself.
struct TraceHealth {
    /// Events emitted: retained plus dropped.
    events: u64,
    /// Events the rings evicted.
    dropped: u64,
    /// No drops, and every dispatched batch started and completed under
    /// an id that was dispatched.
    lineage_complete: bool,
}

fn trace_health(trace: &Trace) -> TraceHealth {
    let dropped = trace.total_dropped();
    let (mut dispatched, mut started, mut completed) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for e in trace.shards.iter().flat_map(|s| &s.events) {
        match &e.kind {
            EventKind::BatchDispatched { id, .. } => {
                dispatched.insert(*id);
            }
            EventKind::BatchStarted { id } => {
                started.insert(*id);
            }
            EventKind::BatchCompleted { id, .. } => {
                completed.insert(*id);
            }
            _ => {}
        }
    }
    TraceHealth {
        events: trace.len() as u64 + dropped,
        dropped,
        lineage_complete: dropped == 0 && started == dispatched && completed == dispatched,
    }
}

/// Fill the path, core, mq, nn-merge, gpu-transfer and trace metrics that
/// come from the traced run. `run_secs` is the run's duration on the
/// trace's clock.
pub fn record(m: &mut Metrics, r: &TrainResult, run_secs: f64, trace: &Trace, hub: &MetricsHub) {
    let health = trace_health(trace);
    m.set("trace.events", health.events as f64);
    m.set("trace.dropped", health.dropped as f64);
    m.set(
        "trace.lineage_complete",
        f64::from(u8::from(health.lineage_complete)),
    );

    // Shares of the analysed span. When a ring dropped events the retained
    // window no longer covers the run, so shares are taken of the whole
    // run's duration and the gap is reported as unattributed instead of
    // being spread over the named phases.
    let a = analyze(trace);
    let p = a.critical_path.profile;
    let denom = if health.dropped == 0 {
        p.total()
    } else {
        run_secs.max(p.total())
    };
    let share = |secs: f64| if denom > 0.0 { secs / denom } else { 0.0 };
    for (label, secs) in p.named() {
        m.set(&format!("path.{label}_share"), share(secs));
    }
    m.set("path.unattributed_share", 1.0 - share(p.total()));

    m.set("core.dispatches", a.spans as f64);
    m.set("core.requeued", r.requeued_batches as f64);
    let snap = hub.snapshot();
    let ms = |metric: Metric, q: f64| {
        snap.merged(metric)
            .map_or(0.0, |h| h.quantile(q) as f64 * 1e-6)
    };
    m.set("core.queue_wait_ms.p50", ms(Metric::QueueWait, 0.5));
    m.set("core.queue_wait_ms.p99", ms(Metric::QueueWait, 0.99));
    for (kind, label) in [(WorkerKind::Cpu, "cpu"), (WorkerKind::Gpu, "gpu")] {
        let slot = r.workers.iter().position(|w| w.kind == kind);
        let latency = |q: f64| {
            slot.and_then(|w| snap.series_for(Metric::BatchLatency, w as u32))
                .map_or(0.0, |h| h.quantile(q) as f64 * 1e-6)
        };
        m.set(&format!("core.batch_ms.{label}.p50"), latency(0.5));
        m.set(&format!("core.batch_ms.{label}.p99"), latency(0.99));
        m.set(
            &format!("core.busy_share.{label}"),
            slot.map_or(0.0, |w| r.workers[w].timeline_summary.busy_fraction),
        );
    }
    m.set("core.staleness.p50", r.staleness.map_or(0.0, |s| s.p50));
    m.set("core.staleness.p99", r.staleness.map_or(0.0, |s| s.p99));
    m.set("core.cpu_update_share", r.cpu_update_fraction());

    let pushed = trace
        .shards
        .iter()
        .flat_map(|s| &s.events)
        .filter(|e| matches!(e.kind, EventKind::QueuePushed { .. }))
        .count();
    m.set("mq.messages", pushed as f64);

    m.set("nn.merge_wait_ms.p99", ms(Metric::MergeWait, 0.99));
    let (mut retries, mut merges) = (0u64, 0u64);
    for metric in [Metric::MergeRetries, Metric::MergeRetriesSparse] {
        if let Some(h) = snap.merged(metric) {
            retries += h.sum();
            merges += h.count();
        }
    }
    m.set(
        "nn.merge_retries_per_merge",
        if merges > 0 {
            retries as f64 / merges as f64
        } else {
            0.0
        },
    );
    m.set("gpu.h2d_ms.p50", ms(Metric::H2d, 0.5));
    m.set("gpu.d2h_ms.p50", ms(Metric::D2h, 0.5));
}
