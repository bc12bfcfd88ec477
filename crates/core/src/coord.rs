//! The coordinator core every engine shares (paper §V, Algorithm 2).
//!
//! The three engines differ in how a batch *executes* — virtual-clock
//! simulation, real OS threads, or a simulated parameter server — but not
//! in how a run is *coordinated*: dispatch sized batches with lineage ids,
//! credit updates, record eval points, react to training health, publish
//! checkpoints, and assemble the [`TrainResult`]. [`Coordinator`] owns
//! that lifecycle once; each engine keeps only its executor, its clock and
//! its own checkpoint state.
//!
//! Observation is configured through [`Observers`]: a trace sink, a
//! metrics hub, a flight recorder and a checkpointer, each disabled by
//! default. When the flight recorder is on but the caller's sink is not,
//! the coordinator falls back to the recorder's bounded drop-oldest ring,
//! so a postmortem always embeds the recent-event window.

use std::collections::VecDeque;

use hetero_ckpt::Checkpointer;
use hetero_data::batch::BatchRange;
use hetero_data::BatchScheduler;
use hetero_flight::{FlightRecorder, HealthAction, HealthSnapshot, Provenance, Watchdog};
use hetero_metrics::{HistHandle, Metric, MetricsHub, GLOBAL_WORKER};
use hetero_nn::{scan_model, Gradient, MergeScan};
use hetero_trace::{CounterHandle, EventKind, GaugeHandle, TimeDomain, TraceSink, COORDINATOR};
use serde::{Deserialize, Serialize};

use crate::adaptive::AdaptiveController;
use crate::config::TrainConfig;
use crate::metrics::{LossPoint, TrainResult, WorkerKind, WorkerStats};

/// Everything that can watch a run. Every field is a cheap handle, and
/// [`Observers::default`] disables all four, so a default run pays one
/// branch per hook and is bit-identical to an unobserved one.
pub struct Observers {
    /// Structured event trace. Engines stamp events in their own clock:
    /// use [`TraceSink::virtual_time`] for the simulator and parameter
    /// server, [`TraceSink::wall`] for the threaded engine.
    pub trace: TraceSink,
    /// Per-worker latency, transfer and staleness histograms, plus the
    /// checkpoint write-latency series.
    pub metrics: MetricsHub,
    /// Black-box recorder: provenance, health watchdog, snapshots, and a
    /// postmortem bundle on any abnormal end.
    pub flight: FlightRecorder,
    /// Crash-consistent checkpointing; with `resume: true` the run
    /// continues from the newest valid generation.
    pub ckpt: Checkpointer,
}

impl Default for Observers {
    fn default() -> Self {
        Observers {
            trace: TraceSink::disabled(),
            metrics: MetricsHub::disabled(),
            flight: FlightRecorder::disabled(),
            ckpt: Checkpointer::disabled(),
        }
    }
}

/// Live dashboard gauges for one worker slot (`worker.<w>.*`).
struct WorkerGauges {
    updates: GaugeHandle,
    batch: GaugeHandle,
    examples: GaugeHandle,
    busy_secs: GaugeHandle,
}

/// What a run is, for provenance and the result record.
pub(crate) struct RunInfo<'a> {
    /// Engine tag in postmortem provenance (`sim`, `threaded`, `ps`).
    pub engine: &'static str,
    /// Algorithm label (paper naming).
    pub algorithm: String,
    /// Dataset name.
    pub dataset: String,
    /// Worker slots, in slot order.
    pub kinds: &'a [WorkerKind],
    /// Run hyperparameters (provenance config and the configured β).
    pub train: &'a TrainConfig,
    /// The engine's clock: virtual engines stamp events with explicit
    /// times, the wall-clock engine with the sink's own clock.
    pub domain: TimeDomain,
}

/// The run lifecycle shared by every engine: see the module docs.
pub(crate) struct Coordinator<'a> {
    /// Effective trace sink: the caller's, or the flight recorder's ring.
    pub sink: TraceSink,
    pub hub: &'a MetricsHub,
    flight: &'a FlightRecorder,
    pub ckpt: &'a Checkpointer,
    pub watchdog: Watchdog,
    /// Loss curve so far (restored wholesale on resume).
    pub curve: Vec<LossPoint>,
    /// Ranges returned by faults or restored from a checkpoint; served
    /// before the scheduler so they are never re-counted as new examples.
    pub requeue: VecDeque<BatchRange>,
    /// Ranges ever returned through [`Coordinator::push_requeue`].
    pub requeued_batches: u64,
    algorithm: String,
    dataset: String,
    beta: f64,
    virtual_time: bool,
    /// Monotone batch lineage ids; 0 stays free as an "unset" marker.
    next_batch_id: u64,
    workers: Vec<WorkerGauges>,
    g_loss: GaugeHandle,
    g_epochs: GaugeHandle,
    g_ckpt_gen: GaugeHandle,
    g_ckpt_bytes: GaugeHandle,
    g_ckpt_age: GaugeHandle,
    ckpt_hist: HistHandle,
    requeues_ctr: CounterHandle,
}

impl<'a> Coordinator<'a> {
    /// Resolve the sink, record provenance, and pre-resolve every gauge.
    pub fn new(obs: &'a Observers, run: RunInfo<'_>) -> Self {
        let flight = &obs.flight;
        let sink = if flight.enabled() && !obs.trace.enabled() {
            flight.make_sink(run.domain)
        } else {
            obs.trace.clone()
        };
        if flight.enabled() {
            flight.set_provenance(Provenance {
                engine: run.engine.into(),
                algorithm: run.algorithm.clone(),
                dataset: run.dataset.clone(),
                workers: run.kinds.len(),
                config_json: serde_json::to_string(run.train).unwrap_or_default(),
                git_sha: hetero_flight::read_git_sha(),
                simd_level: format!("{:?}", hetero_tensor::simd::active_level()),
            });
        }
        let workers = run
            .kinds
            .iter()
            .enumerate()
            .map(|(w, k)| {
                sink.gauge(&format!("worker.{w}.kind")).set(match k {
                    WorkerKind::Cpu => 0.0,
                    WorkerKind::Gpu => 1.0,
                });
                WorkerGauges {
                    updates: sink.gauge(&format!("worker.{w}.updates")),
                    batch: sink.gauge(&format!("worker.{w}.batch")),
                    examples: sink.gauge(&format!("worker.{w}.examples")),
                    busy_secs: sink.gauge(&format!("worker.{w}.busy_secs")),
                }
            })
            .collect();
        Coordinator {
            g_loss: sink.gauge("engine.loss"),
            g_epochs: sink.gauge("engine.epochs"),
            g_ckpt_gen: sink.gauge("ckpt.generation"),
            g_ckpt_bytes: sink.gauge("ckpt.bytes"),
            g_ckpt_age: sink.gauge("ckpt.age_secs"),
            ckpt_hist: obs.metrics.histogram(Metric::CkptWrite, GLOBAL_WORKER),
            requeues_ctr: sink.counter("engine.requeues"),
            workers,
            sink,
            hub: &obs.metrics,
            flight,
            ckpt: &obs.ckpt,
            watchdog: flight.watchdog(),
            curve: Vec::new(),
            requeue: VecDeque::new(),
            requeued_batches: 0,
            algorithm: run.algorithm,
            dataset: run.dataset,
            beta: run.train.adaptive.beta,
            virtual_time: run.domain == TimeDomain::Virtual,
            next_batch_id: 1,
        }
    }

    /// Emit a coordinator-side event at engine time `t` (virtual engines)
    /// or now (wall-clock engine).
    fn event(&self, t: f64, worker: u32, kind: EventKind) {
        if !self.sink.enabled() {
            return;
        }
        if self.virtual_time {
            self.sink.emit_at(t, worker, kind);
        } else {
            self.sink.emit(worker, kind);
        }
    }

    fn health_event(&self, t: f64, action: &str, detail: String) {
        self.event(
            t,
            COORDINATOR,
            EventKind::HealthEvent {
                action: action.to_string(),
                detail,
            },
        );
    }

    /// `ScheduleWork` for worker `w` at engine time `t`: ask the controller
    /// for a size, take the next range (re-queued work first), and stamp
    /// it with a fresh lineage id. `None` when the schedule is exhausted.
    ///
    /// Virtual-clock workers start the instant they are assigned, so the
    /// dispatch (a coordinator event) and the start coincide; a threaded
    /// worker emits its own start when it dequeues the batch, and its
    /// dispatch is stamped with the target worker.
    pub fn dispatch(
        &mut self,
        w: usize,
        t: f64,
        controller: &mut AdaptiveController,
        scheduler: &mut BatchScheduler,
    ) -> Option<(u64, BatchRange)> {
        let size = controller.on_request_traced(w, &self.sink);
        let range = match self.requeue.pop_front() {
            Some(r) => r,
            None => scheduler.next_batch(size).filter(|r| !r.is_empty())?,
        };
        Some((self.issue(w, t, range.len()), range))
    }

    /// Mint a lineage id for a batch of `batch` examples handed to worker
    /// `w` at engine time `t`, and trace the dispatch.
    pub fn issue(&mut self, w: usize, t: f64, batch: usize) -> u64 {
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        let tid = if self.virtual_time {
            COORDINATOR
        } else {
            w as u32
        };
        self.event(t, tid, EventKind::BatchDispatched { id, batch });
        if self.virtual_time {
            self.event(t, w as u32, EventKind::BatchStarted { id });
        }
        id
    }

    /// Return `range` to the dispatch queue: the in-flight work of a dead
    /// worker, or the tail an OOM shrink left behind. `id` is the lineage
    /// id of the dispatch it came from — the re-dispatch gets a fresh id,
    /// and the `BatchRequeued` event is what links the two.
    pub fn push_requeue(&mut self, id: u64, range: BatchRange) {
        self.requeued_batches += 1;
        self.requeues_ctr.add(1);
        if self.sink.enabled() {
            let batch = range.len();
            self.sink
                .emit(COORDINATOR, EventKind::BatchRequeued { id, batch });
        }
        self.requeue.push_back(range);
    }

    /// Continue lineage ids past `id` (a restored in-flight batch), so a
    /// resumed trace never reuses one.
    pub fn reserve_batch_id(&mut self, id: u64) {
        self.next_batch_id = self.next_batch_id.max(id + 1);
    }

    /// Refresh worker `w`'s dashboard gauges after a completion.
    pub fn publish_worker(&self, w: usize, stats: &WorkerStats, batch: usize) {
        let g = &self.workers[w];
        g.updates.set(stats.updates);
        g.batch.set(batch as f64);
        g.examples.set(stats.examples as f64);
        g.busy_secs.set(stats.timeline.busy_time());
    }

    /// Append an eval point to the curve and publish it. No health
    /// reaction: use [`Coordinator::first_eval`] or [`Coordinator::eval`].
    pub fn record_eval(&mut self, point: LossPoint) {
        self.g_loss.set(point.loss as f64);
        self.g_epochs.set(point.epochs);
        self.event(
            point.time,
            COORDINATOR,
            EventKind::EvalPoint {
                loss: point.loss as f64,
            },
        );
        self.curve.push(point);
    }

    /// The initial eval of a fresh run: it seeds the watchdog's
    /// divergence/stall baseline (the first observation never reacts).
    pub fn first_eval(&mut self, point: LossPoint) {
        self.watchdog.observe_eval(point.loss as f64);
        self.record_eval(point);
    }

    /// A mid-run eval point plus the health reaction: warnings are traced,
    /// a clamp freezes the controller at its current batch sizes, an abort
    /// sets the trip flag the event loop polls ([`Coordinator::aborting`]),
    /// and the flight recorder takes a health snapshot. `beta` is the
    /// measured β̂ so far, when the run measures it; its gauge exists only
    /// then, so dashboards can tell "off" from "measured 0".
    pub fn eval(
        &mut self,
        point: LossPoint,
        controller: &mut AdaptiveController,
        beta: Option<f64>,
    ) {
        let (t, loss, epochs) = (point.time, point.loss as f64, point.epochs);
        self.record_eval(point);
        if let Some(b) = beta {
            self.sink.gauge("engine.beta_measured").set(b);
        }
        if self.ckpt.enabled() {
            self.g_ckpt_age
                .set(t - self.ckpt.last_saved_at().unwrap_or(0.0));
        }
        match self.watchdog.observe_eval(loss) {
            HealthAction::Ignore | HealthAction::Abort => {}
            HealthAction::Warn => {
                self.health_event(t, "warn", format!("eval health warning at loss {loss:.4}"));
            }
            HealthAction::Clamp => {
                self.freeze_batches(controller);
                self.health_event(t, "clamp", format!("batch growth frozen at loss {loss:.4}"));
            }
        }
        self.poll_clamp(t, controller);
        if !self.flight.enabled() {
            return;
        }
        let stale = self.hub.summary(Metric::Staleness);
        let h = self.watchdog.summary();
        self.flight.record_snapshot(HealthSnapshot {
            t,
            loss,
            epochs,
            batches: (0..controller.num_workers())
                .map(|w| controller.batch(w))
                .collect(),
            beta,
            staleness_p50: stale.as_ref().map(|s| s.p50),
            staleness_p99: stale.as_ref().map(|s| s.p99),
            grad_peak_norm: h.peak_grad_norm,
        });
        // Per-layer gradient-norm gauges for the dashboard / OpenMetrics.
        if self.sink.enabled() {
            for (l, n) in h.layer_peak_norms.iter().enumerate() {
                self.sink
                    .gauge(&format!("health.layer.{l}.grad_norm"))
                    .set(*n);
            }
            self.sink
                .gauge("health.nonfinite")
                .set(h.nonfinite_events as f64);
        }
    }

    /// Honour a clamp a worker hot path requested since the last poll.
    pub fn poll_clamp(&self, t: f64, controller: &mut AdaptiveController) {
        if self.watchdog.take_clamp_request() {
            self.freeze_batches(controller);
            self.health_event(
                t,
                "clamp",
                "batch growth frozen on worker health report".to_string(),
            );
        }
    }

    fn freeze_batches(&self, controller: &mut AdaptiveController) {
        for w in 0..controller.num_workers() {
            controller.clamp_max_batch(w, controller.batch(w));
        }
        self.watchdog.note_clamp();
    }

    /// Whether a health abort raised by a gradient scan or an eval stops
    /// the run at engine time `t` (traced once, when it does).
    pub fn aborting(&self, t: f64) -> bool {
        match self.watchdog.tripped() {
            Some(reason) => {
                self.health_event(t, "abort", reason);
                true
            }
            None => false,
        }
    }

    /// Publish `state` as the next checkpoint generation at engine time `t`.
    pub fn publish<S: serde::Serialize>(&self, t: f64, state: &S) {
        if let Some(report) = self.ckpt.save(t, state) {
            self.g_ckpt_gen.set(report.generation as f64);
            self.g_ckpt_bytes.set(report.bytes as f64);
            self.ckpt_hist.record_secs(report.write_secs);
            self.flight
                .set_resumable_from(report.path.display().to_string());
        }
    }

    /// Note that the run resumed from a checkpoint taken at engine time `t`:
    /// the checkpoint cadence restarts from there.
    pub fn mark_resumed(&self, t: f64) {
        self.ckpt.resume_mark(t);
        self.sink.counter("ckpt.resumes").add(1);
    }

    /// The epilogue: final batch sizes, end-of-run gauges, the abort
    /// reason, a postmortem bundle on any abnormal end, and the result
    /// record. `duration` and `epochs` are in the engine's own units.
    pub fn finish(
        self,
        mut workers: Vec<WorkerStats>,
        controller: &AdaptiveController,
        duration: f64,
        epochs: f64,
        measured_beta: Option<f64>,
    ) -> TrainResult {
        for (w, s) in workers.iter_mut().enumerate() {
            s.final_batch = controller.batch(w);
            s.summarize_timeline();
        }
        let sink = &self.sink;
        if sink.enabled() {
            if self.virtual_time {
                sink.set_virtual_now(duration);
            }
            let examples: u64 = workers.iter().map(|s| s.examples).sum();
            sink.gauge("engine.examples_per_sec")
                .set(examples as f64 / duration.max(1e-9));
            sink.gauge("engine.beta").set(self.beta);
            if let Some(beta) = measured_beta {
                sink.gauge("engine.beta_measured").set(beta);
            }
        }
        let aborted = self
            .watchdog
            .tripped()
            .map(|r| format!("health watchdog: {r}"))
            .or_else(|| {
                workers
                    .iter()
                    .all(|s| s.retired.is_some())
                    .then(|| "all workers retired by faults".to_string())
            });
        // Black-box dump on any abnormal end: watchdog trip, a retired
        // worker, or the all-dead abort. `capture` copies the retained
        // window without draining, so the caller's own `drain` still sees
        // the full trace.
        let mut health = self.watchdog.enabled().then(|| self.watchdog.summary());
        if self.flight.enabled()
            && (aborted.is_some() || workers.iter().any(|s| s.retired.is_some()))
        {
            let reason = aborted
                .clone()
                .unwrap_or_else(|| "worker retirement".to_string());
            let path = self.flight.dump(&reason, sink.capture(), self.hub);
            if let (Some(h), Some(p)) = (health.as_mut(), path) {
                h.postmortem = Some(p);
            }
        }
        TrainResult {
            algorithm: self.algorithm,
            dataset: self.dataset,
            loss_curve: self.curve,
            workers,
            duration,
            epochs,
            trace_path: None,
            requeued_batches: self.requeued_batches,
            aborted,
            measured_beta,
            staleness: self.hub.summary(Metric::Staleness),
            health,
        }
    }
}

/// Per-worker counters a resumed run continues from — the checkpoint
/// entry the parameter-server and threaded engines share.
#[derive(Serialize, Deserialize)]
pub(crate) struct WorkerCkpt {
    updates: f64,
    batches: u64,
    examples: u64,
}

impl WorkerCkpt {
    pub fn capture(stats: &[WorkerStats]) -> Vec<Self> {
        let entry = |s: &WorkerStats| WorkerCkpt {
            updates: s.updates,
            batches: s.batches,
            examples: s.examples,
        };
        stats.iter().map(entry).collect()
    }

    pub fn restore(saved: &[Self], stats: &mut [WorkerStats]) {
        for (s, c) in stats.iter_mut().zip(saved) {
            s.updates = c.updates;
            s.batches = c.batches;
            s.examples = c.examples;
        }
    }
}

/// Feed one filled per-layer scan (gradient or merged delta) to the
/// watchdog, as worker `worker`'s step `step`.
pub(crate) fn report_scan(watchdog: &Watchdog, worker: usize, step: u64, scan: &MergeScan) {
    for (l, ls) in scan.layers().iter().enumerate() {
        watchdog.observe_layer(worker as u32, l, step, ls.sumsq, ls.nonfinite);
    }
}

/// Scan `grad` into `scan` and report it, when the watchdog is on.
pub(crate) fn scan_gradient(
    watchdog: &Watchdog,
    worker: usize,
    step: u64,
    grad: &Gradient,
    scan: &mut MergeScan,
) {
    if watchdog.enabled() {
        scan.reset();
        scan_model(grad, scan);
        report_scan(watchdog, worker, step, scan);
    }
}
