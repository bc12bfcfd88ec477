//! Real-thread training engine — the paper's implementation architecture
//! on actual OS threads.
//!
//! One coordinator plus one stand-alone worker thread per device,
//! communicating over the custom asynchronous message queue
//! ([`hetero_mq::channel()`]); the global model is a
//! [`hetero_nn::SharedModel`] that CPU threads update Hogwild-style (racy
//! read–modify–write) while the GPU worker trains a deep-copy replica on
//! the software GPU ([`hetero_gpu::GpuDevice`]) and merges the delta back.
//!
//! This engine runs on wall-clock time and real concurrency — it
//! demonstrates that the algorithms are implementable exactly as §V
//! describes. The deterministic counterpart for reproducing the paper's
//! figures is [`crate::engine_sim::SimEngine`].
//!
//! ## Supervision (see `DESIGN.md`, "Failure model & supervision")
//!
//! Workers never panic the process. Each worker body runs under
//! `catch_unwind` and reports typed [`WorkerError`] faults to the
//! coordinator instead:
//!
//! - a **device OOM** during a training step triggers a bounded retry loop
//!   that halves the batch until the step fits; the size that fit clamps
//!   the adaptive controller's ceiling so the OOMed size is never
//!   re-requested, and the unprocessed tail of the range is re-queued;
//! - an **unrecoverable fault** (model doesn't fit at upload, a panic, a
//!   dead channel) retires the worker: its slot is quarantined, its
//!   in-flight batch is re-queued to survivors, and training degrades
//!   gracefully to the remaining devices;
//! - when **every** worker is gone the run stops early and reports why in
//!   [`TrainResult::aborted`] instead of hanging.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hetero_data::batch::BatchRange;
use hetero_data::{BatchScheduler, DenseDataset, Labels};
use hetero_flight::{Watchdog, WatchdogState};
use hetero_gpu::{GpuDevice, GpuMlp};
use hetero_metrics::{HistHandle, Metric, MetricsHub};
use hetero_mq::{channel_traced_lineage, Receiver, RecvTimeoutError, Sender};
use hetero_nn::{MergeScan, MlpSpec, Model, SharedModel, Workspace};
use hetero_sim::{DeviceModel, GpuModel};
use hetero_tensor::{CsrMatrix, Matrix};
use hetero_trace::{BatchPhases, CounterHandle, EventKind, TimeDomain, TraceSink, COORDINATOR};
use serde::{Deserialize, Serialize};

use crate::adaptive::{credit_updates, AdaptiveController, WorkerBatchState};
use crate::config::{AlgorithmKind, TrainConfig};
use crate::coord::{report_scan, scan_gradient, Coordinator, Observers, RunInfo, WorkerCkpt};
use crate::eval::EvalSet;
use crate::fault::{panic_message, FaultPlan, WorkerError};
use crate::metrics::{LossPoint, TrainResult, WorkerKind, WorkerStats};
use crate::staging::Staged;

/// Configuration of the threaded engine.
#[derive(Debug, Clone)]
pub struct ThreadedEngineConfig {
    /// Network to train.
    pub spec: MlpSpec,
    /// Algorithm + hyperparameters. `time_budget` is wall-clock seconds.
    pub train: TrainConfig,
    /// Hogwild threads inside the CPU worker.
    pub cpu_threads: usize,
    /// Performance model for the software GPU (memory bound + occupancy).
    pub gpu_perf: GpuModel,
    /// Number of GPU workers to spawn (the paper's future work is scaling
    /// to multi-GPU; each worker gets its own software device + replica).
    pub gpu_workers: usize,
    /// Deterministic fault injection (empty = fault-free run).
    pub fault_plan: FaultPlan,
}

#[derive(Debug)]
enum CoordMsg {
    Execute {
        /// Batch lineage id, fresh per dispatch (a re-queued range gets a
        /// new id when it is re-dispatched; `BatchRequeued` links the
        /// fault chain by the old id).
        id: u64,
        range: BatchRange,
    },
    Stop,
}

/// Lineage extractor for the exec channels: queue events carry the batch
/// id of the `Execute` they wrap.
fn coord_msg_lineage(m: &CoordMsg) -> Option<u64> {
    match m {
        CoordMsg::Execute { id, .. } => Some(*id),
        CoordMsg::Stop => None,
    }
}

struct Ready {
    worker: usize,
    /// Lineage id of the completed dispatch.
    id: u64,
    updates: f64,
    examples: u64,
    busy_start: f64,
    busy_end: f64,
    batch: usize,
    /// When a device OOM forced the step smaller, the batch size that
    /// actually fit — the coordinator clamps the controller's ceiling to it.
    shrunk_to: Option<usize>,
    /// The unprocessed tail of the dispatched range after an OOM shrink;
    /// the coordinator re-queues it.
    leftover: Option<BatchRange>,
}

/// Lineage extractor for the ready channel.
fn worker_msg_lineage(m: &WorkerMsg) -> Option<u64> {
    match m {
        WorkerMsg::Ready(r) => Some(r.id),
        WorkerMsg::Fault { .. } => None,
    }
}

/// What a worker sends the coordinator: a completed batch, or a typed
/// fault in place of a panic.
enum WorkerMsg {
    Ready(Ready),
    Fault { worker: usize, error: WorkerError },
}

/// Coordinator-side supervision state threaded through the helpers below.
struct Supervision<'a, 'c> {
    coord: &'a mut Coordinator<'c>,
    active: &'a mut [bool],
    stats: &'a mut [WorkerStats],
    in_flight: &'a mut [Option<(u64, BatchRange)>],
    faults_ctr: &'a CounterHandle,
}

impl Supervision<'_, '_> {
    /// Quarantine worker `w`: mark the slot inactive, record why, and
    /// return its in-flight batch (if any) to the dispatch queue.
    fn retire(&mut self, w: usize, error: &WorkerError) {
        if let Some(existing) = &self.stats[w].retired {
            // Already quarantined — but a typed fault that lost the race to
            // the generic disconnect sweep still carries the real reason.
            if existing.starts_with("channel disconnected")
                && !matches!(error, WorkerError::Disconnected(_))
            {
                self.stats[w].retired = Some(error.to_string());
            }
            return;
        }
        self.active[w] = false;
        let reason = error.to_string();
        self.stats[w].retired = Some(reason.clone());
        self.faults_ctr.add(1);
        let sink = &self.coord.sink;
        if sink.enabled() {
            sink.emit(
                w as u32,
                EventKind::WorkerFault {
                    reason: reason.clone(),
                },
            );
            sink.emit(w as u32, EventKind::WorkerRetired { reason });
        }
        if let Some((id, range)) = self.in_flight[w].take() {
            self.coord.push_requeue(id, range);
        }
    }
}

/// Wall-clock engine state frozen at one instant. Unlike the virtual-clock
/// engines this cannot be bit-identical — workers race the capture — so the
/// checkpoint holds the *statistically sufficient* state: a racy-read model
/// image, the schedule cursor, the adaptive controller, and every range
/// that was in flight (re-queued on resume so no example is silently
/// dropped). A resumed run is a fresh set of threads continuing the same
/// optimization trajectory, so its loss curve is statistically — not
/// bit-for-bit — indistinguishable from an uninterrupted run.
#[derive(Serialize, Deserialize)]
struct ThreadedCkptState {
    schema: String,
    /// Training wall-seconds consumed before this checkpoint, summed
    /// across incarnations; the resumed run offsets its clock and shrinks
    /// its budget by this.
    t: f64,
    model: Model,
    controller: AdaptiveController,
    scheduler: BatchScheduler,
    curve: Vec<LossPoint>,
    workers: Vec<WorkerCkpt>,
    requeue: Vec<BatchRange>,
    requeued_batches: u64,
    watchdog: WatchdogState,
}

/// Schema tag rejecting checkpoints from other engines or layouts.
const THREADED_CKPT_SCHEMA: &str = "hetero-threaded-ckpt/v1";

/// The wall-clock engine.
pub struct ThreadedEngine {
    cfg: ThreadedEngineConfig,
}

impl ThreadedEngine {
    /// Build the engine; the TensorFlow comparator only exists in the
    /// simulation engine and is rejected here.
    pub fn new(cfg: ThreadedEngineConfig) -> Result<Self, String> {
        cfg.train.validate()?;
        cfg.spec.validate()?;
        if matches!(
            cfg.train.algorithm,
            AlgorithmKind::TensorFlow | AlgorithmKind::HybridSvrg
        ) {
            return Err(format!(
                "{} is simulation-only",
                cfg.train.algorithm.label()
            ));
        }
        if cfg.cpu_threads == 0 {
            return Err("cpu_threads must be positive".into());
        }
        if cfg.train.algorithm.uses_gpu() && cfg.gpu_workers == 0 {
            return Err("algorithm needs a GPU but gpu_workers is 0".into());
        }
        Ok(ThreadedEngine { cfg })
    }

    /// Train on `dataset` with `obs` attached, until the wall-clock budget
    /// expires. With [`Observers::default`] nothing is observed.
    ///
    /// - **Trace:** every batch dispatch/completion, adaptive resize, queue
    ///   operation, GPU transfer/kernel, model merge, eval point and worker
    ///   fault flows through the sink, stamped with wall seconds since the
    ///   sink was created (use [`TraceSink::wall`]).
    /// - **Metrics:** workers fill per-worker histograms (batch latency,
    ///   queue wait, H2D/D2H transfer time, merge wait/retries, gradient
    ///   staleness) and the coordinator publishes the live dashboard
    ///   gauges (`worker.<w>.*`, `engine.loss`, …) so
    ///   [`hetero_metrics::DashboardFrame::collect`] and the OpenMetrics
    ///   exporter see a consistent picture.
    /// - **Flight recorder:** the watchdog observes per-layer gradient
    ///   norms and NaN/±Inf counts from every worker hot path (fused into
    ///   the SIMD merge/scan — no extra pass over the model) and loss
    ///   health at every eval point, enforcing its
    ///   [`hetero_flight::HealthPolicy`]: warnings are traced, clamps
    ///   freeze the adaptive controller at the current batch sizes, and an
    ///   abort stops the run with the reason in [`TrainResult::aborted`].
    ///   Any abnormal end (watchdog trip, worker retirement, all-workers-dead
    ///   abort) dumps a postmortem bundle; its path lands in
    ///   [`hetero_flight::HealthSummary::postmortem`].
    /// - **Checkpointer:** when a checkpoint comes due the coordinator
    ///   captures the model via a racy [`SharedModel::snapshot_into`] read
    ///   — the Hogwild lanes and the GPU CAS-merge loop never stall — plus
    ///   the schedule cursor, adaptive controller, loss curve, in-flight
    ///   ranges and watchdog tallies. With `resume: true` the run restores
    ///   that state, offsets the wall clock by the consumed training time,
    ///   and finishes the remaining budget with fresh threads; the
    ///   continued loss curve is statistically indistinguishable from an
    ///   uninterrupted run (real concurrency makes bit-identity impossible
    ///   here — the virtual-clock engines provide that property).
    pub fn run(&self, dataset: Arc<DenseDataset>, obs: &Observers) -> TrainResult {
        let cfg = &self.cfg;
        let train = cfg.train.clone();
        let algo = train.algorithm;
        let spec = cfg.spec.clone();
        assert_eq!(dataset.features(), spec.input_dim, "feature width");

        // Worker slots: CPU first (if used), then GPU. Built before the
        // model so the resume guard below can check the run shape.
        let mut kinds = Vec::new();
        if algo.uses_cpu() {
            kinds.push(WorkerKind::Cpu);
        }
        if algo.uses_gpu() {
            for _ in 0..cfg.gpu_workers.max(1) {
                kinds.push(WorkerKind::Gpu);
            }
        }
        let mut coord = Coordinator::new(
            obs,
            RunInfo {
                engine: "threaded",
                algorithm: algo.label().to_string(),
                dataset: dataset.name.clone(),
                kinds: &kinds,
                train: &train,
                domain: TimeDomain::Wall,
            },
        );
        let sink = &coord.sink.clone();
        let hub = coord.hub;
        let watchdog = coord.watchdog.clone();

        // --- Resume from the newest valid checkpoint ----------------------------
        // The worker-count guard rejects a checkpoint from a differently
        // shaped run (the schema tag already rejects other engines').
        let resume: Option<ThreadedCkptState> = coord
            .ckpt
            .resume_state::<ThreadedCkptState>()
            .filter(|s| s.schema == THREADED_CKPT_SCHEMA && s.workers.len() == kinds.len());
        let t_base = resume.as_ref().map_or(0.0, |s| s.t);

        let init = match &resume {
            Some(s) => s.model.clone(),
            None => Model::new(spec.clone(), train.init, train.seed),
        };
        watchdog.ensure_layers(init.layers().len());
        let shared = Arc::new(SharedModel::new(&init));

        // Sparse staging source: compress the feature matrix once per run so
        // workers slice CSR batches in O(nnz) instead of rescanning the dense
        // matrix per batch — an O(batch × features) cost that is independent
        // of density and would otherwise swamp the sparse kernels' win.
        // Built before the clock starts: it is data preparation, the sparse
        // counterpart of the dense matrix already sitting in memory.
        let csr_data: Option<Arc<CsrMatrix>> =
            train.sparse_input.then(|| Arc::new(dataset.to_csr()));

        let t0 = Instant::now();

        let (ready_tx, ready_rx) =
            channel_traced_lineage::<WorkerMsg>(sink, "ready", COORDINATOR, worker_msg_lineage);
        let mut exec_txs: Vec<Sender<CoordMsg>> = Vec::new();
        let mut handles = Vec::new();
        for (slot, kind) in kinds.iter().enumerate() {
            let (tx, rx) = channel_traced_lineage::<CoordMsg>(
                sink,
                &format!("exec{slot}"),
                slot as u32,
                coord_msg_lineage,
            );
            exec_txs.push(tx);
            let h = match kind {
                WorkerKind::Cpu => self.spawn_cpu_worker(
                    slot,
                    Arc::clone(&dataset),
                    csr_data.clone(),
                    Arc::clone(&shared),
                    rx,
                    ready_tx.clone(),
                    t0,
                    train.clone(),
                    sink.clone(),
                    hub.clone(),
                    watchdog.clone(),
                ),
                WorkerKind::Gpu => self.spawn_gpu_worker(
                    slot,
                    Arc::clone(&dataset),
                    csr_data.clone(),
                    Arc::clone(&shared),
                    rx,
                    ready_tx.clone(),
                    t0,
                    train.clone(),
                    sink.clone(),
                    hub.clone(),
                    watchdog.clone(),
                ),
            };
            handles.push(h);
        }
        drop(ready_tx);

        // --- Coordinator loop ---------------------------------------------------
        let mut stats: Vec<WorkerStats> = kinds.iter().map(|k| WorkerStats::new(*k)).collect();
        let mut controller = self.build_controller(&kinds, dataset.len());
        let mut scheduler = BatchScheduler::new(dataset.len(), train.max_epochs);

        let timeline_rejects = sink.counter("engine.timeline_rejects");
        let faults_ctr = sink.counter("engine.faults");
        // Published only on sparse runs, so dashboards can tell "dense
        // path" (gauge absent) from a fully dense batch on the sparse path.
        if train.sparse_input {
            sink.gauge("engine.sparse_density")
                .set(1.0 - dataset.sparsity() as f64);
        }

        // Coordinator-side GEMM pool, pinned to `train.rayon_threads`
        // (0 = one thread per host core): loss evaluations fan their
        // parallel forward pass out to this pool instead of whatever
        // `available_parallelism` says, so evals don't steal every core
        // from the Hogwild lanes. Report how far the run as a whole
        // oversubscribes the host: lanes plus per-GPU-worker GEMM fan-out
        // can all be runnable at once.
        let gemm_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(train.rayon_threads)
            .build()
            .expect("coordinator gemm pool");
        let host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_lanes = if algo.uses_cpu() { cfg.cpu_threads } else { 0 };
        let gpu_slots = kinds.iter().filter(|k| **k == WorkerKind::Gpu).count();
        let requested = cpu_lanes + gpu_slots * gemm_pool.current_num_threads();
        sink.counter("engine.pool_oversubscription")
            .add(requested.saturating_sub(host_threads) as u64);

        // On sparse runs the eval rows come straight from the CSR copy
        // (O(nnz), no dense gather) and the eval forward goes through the
        // CSR kernels too, so it does not stall the coordinator's dispatch.
        let eval_set = EvalSet::subset(
            &dataset,
            train.eval_subsample,
            train.seed,
            csr_data.as_deref(),
        );
        let measure = |shared: &SharedModel, scheduler: &BatchScheduler| -> LossPoint {
            let model = shared.snapshot();
            let (loss, accuracy) = gemm_pool.install(|| eval_set.measure(&model));
            LossPoint {
                // `t_base` splices a resumed incarnation's curve onto the
                // restored prefix's time axis.
                time: t_base + t0.elapsed().as_secs_f64(),
                epochs: scheduler.epochs_elapsed(),
                loss,
                accuracy,
            }
        };
        let beta_estimate = || {
            train
                .measured_beta
                .then(|| shared.beta_estimate())
                .flatten()
        };
        // The remaining budget is what the original run had not yet spent.
        let budget = Duration::from_secs_f64((train.time_budget - t_base).max(0.0));
        let mut active = vec![true; kinds.len()];
        let mut in_flight: Vec<Option<(u64, BatchRange)>> = vec![None; kinds.len()];

        if let Some(s) = resume {
            controller = s.controller;
            scheduler = s.scheduler;
            coord.curve = s.curve;
            WorkerCkpt::restore(&s.workers, &mut stats);
            // Ranges that were in flight (or re-queued) when the
            // checkpoint froze go back to the front of the queue: they were
            // already counted by the scheduler, so serving them from the
            // requeue keeps `examples_served`/`epochs_elapsed` exact.
            coord.requeue.extend(s.requeue);
            coord.requeued_batches = s.requeued_batches;
            watchdog.restore_state(&s.watchdog);
            coord.mark_resumed(t_base);
        } else {
            coord.first_eval(measure(&shared, &scheduler));
        }

        // The checkpoint capture buffer is reused so a checkpoint allocates
        // nothing on the coordinator's steady path beyond the payload.
        let mut ckpt_model: Option<Model> = coord
            .ckpt
            .enabled()
            .then(|| Model::zeros_like(shared.spec()));

        macro_rules! sup {
            () => {
                Supervision {
                    coord: &mut coord,
                    active: &mut active,
                    stats: &mut stats,
                    in_flight: &mut in_flight,
                    faults_ctr: &faults_ctr,
                }
            };
        }

        macro_rules! dispatch {
            ($w:expr) => {{
                let w: usize = $w;
                // Wall-clock events take the sink's own timestamp, so the
                // engine-time argument is unused here.
                match coord.dispatch(w, 0.0, &mut controller, &mut scheduler) {
                    Some((id, range)) => {
                        match exec_txs[w].send(CoordMsg::Execute { id, range }) {
                            Ok(()) => in_flight[w] = Some((id, range)),
                            Err(_) => {
                                // The worker died without a fault message:
                                // the range never left, put it back and
                                // quarantine the slot.
                                coord.requeue.push_front(range);
                                sup!().retire(
                                    w,
                                    &WorkerError::Disconnected("exec channel closed".into()),
                                );
                            }
                        }
                    }
                    None => {
                        let _ = exec_txs[w].send(CoordMsg::Stop);
                        active[w] = false;
                    }
                }
            }};
        }

        // Kick off every worker.
        for w in 0..kinds.len() {
            dispatch!(w);
        }
        let eval_interval = Duration::from_secs_f64(train.eval_interval);
        let mut next_eval = eval_interval;

        while active.iter().any(|&a| a) {
            // Health policy enforcement between messages: an abort raised
            // from any worker hot path (or a prior eval) stops the run; a
            // clamp request freezes the adaptive controller at the current
            // batch sizes.
            let t_train = t_base + t0.elapsed().as_secs_f64();
            if coord.aborting(t_train) {
                break;
            }
            coord.poll_clamp(t_train, &mut controller);
            // Periodic crash-consistency checkpoint. The model image is a
            // racy `snapshot_into` read — workers keep merging throughout —
            // so the capture never stalls the hot path; everything else
            // captured here is coordinator-owned state.
            if coord.ckpt.due(t_train) {
                if let Some(m) = ckpt_model.as_mut() {
                    shared.snapshot_into(m);
                    let state = ThreadedCkptState {
                        schema: THREADED_CKPT_SCHEMA.to_string(),
                        t: t_train,
                        model: m.clone(),
                        controller: controller.clone(),
                        scheduler: scheduler.clone(),
                        curve: coord.curve.clone(),
                        workers: WorkerCkpt::capture(&stats),
                        requeue: coord
                            .requeue
                            .iter()
                            .copied()
                            .chain(in_flight.iter().flatten().map(|(_, r)| *r))
                            .collect(),
                        requeued_batches: coord.requeued_batches,
                        watchdog: watchdog.export_state(),
                    };
                    coord.publish(t_train, &state);
                }
            }
            let now = t0.elapsed();
            if now >= next_eval {
                let point = measure(&shared, &scheduler);
                coord.eval(point, &mut controller, beta_estimate());
                // Advance past `now` in whole intervals: a stall longer
                // than one interval must not leave `next_eval` behind the
                // wall clock (which would starve batch dispatch with
                // back-to-back evals until it caught up).
                let behind = (now - next_eval).as_secs_f64() / eval_interval.as_secs_f64();
                next_eval += eval_interval * (behind.floor() as u32 + 1);
                continue;
            }
            let wait = (next_eval - now).min(Duration::from_millis(50));
            match ready_rx.recv_timeout(wait) {
                Ok(WorkerMsg::Ready(r)) => {
                    in_flight[r.worker] = None;
                    controller.report_updates(r.worker, r.updates);
                    if let Some(fit) = r.shrunk_to {
                        // The device OOMed above `fit`: the adaptive loop
                        // must never re-request a size it already rejected.
                        controller.clamp_max_batch(r.worker, fit);
                    }
                    if let Some(tail) = r.leftover {
                        coord.push_requeue(r.id, tail);
                    }
                    let s = &mut stats[r.worker];
                    s.updates += r.updates;
                    s.batches += 1;
                    s.examples += r.examples;
                    let level = match s.kind {
                        WorkerKind::Cpu => {
                            (r.batch.min(self.cfg.cpu_threads) as f64) / self.cfg.cpu_threads as f64
                        }
                        WorkerKind::Gpu => self.cfg.gpu_perf.busy_utilization(r.batch),
                    };
                    // Wall-clock segments from a racing worker can jitter;
                    // clamp monotonic.
                    let start = r.busy_start.max(s.timeline.horizon());
                    let end = r.busy_end.max(start);
                    if s.timeline.try_record(start, end, level).is_err() {
                        timeline_rejects.add(1);
                    }
                    coord.publish_worker(r.worker, s, r.batch);

                    if t0.elapsed() < budget {
                        dispatch!(r.worker);
                    } else {
                        let _ = exec_txs[r.worker].send(CoordMsg::Stop);
                        active[r.worker] = false;
                    }
                }
                Ok(WorkerMsg::Fault { worker, error }) => {
                    sup!().retire(worker, &error);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Sweep for workers that died without managing to send
                    // a fault (their exec receiver is gone).
                    for w in 0..kinds.len() {
                        if active[w] && exec_txs[w].is_disconnected() {
                            sup!().retire(
                                w,
                                &WorkerError::Disconnected("exec channel closed".into()),
                            );
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Shut down: every surviving worker already got Stop when its slot
        // went inactive; dropping the senders unblocks any straggler.
        drop(exec_txs);
        for h in handles {
            let _ = h.join();
        }
        // Faults that raced the shutdown still deserve a retirement record.
        while let Ok(msg) = ready_rx.try_recv() {
            if let WorkerMsg::Fault { worker, error } = msg {
                sup!().retire(worker, &error);
            }
        }

        coord.record_eval(measure(&shared, &scheduler));
        // Total training time across incarnations, not just this one.
        let duration = t_base + t0.elapsed().as_secs_f64();
        let epochs = scheduler.epochs_elapsed();
        coord.finish(stats, &controller, duration, epochs, beta_estimate())
    }

    /// [`ThreadedEngine::run`] with only a trace sink and a metrics hub
    /// attached.
    pub fn run_observed(
        &self,
        dataset: Arc<DenseDataset>,
        sink: &TraceSink,
        hub: &MetricsHub,
    ) -> TrainResult {
        self.run(
            dataset,
            &Observers {
                trace: sink.clone(),
                metrics: hub.clone(),
                ..Observers::default()
            },
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_cpu_worker(
        &self,
        slot: usize,
        dataset: Arc<DenseDataset>,
        csr_data: Option<Arc<CsrMatrix>>,
        shared: Arc<SharedModel>,
        rx: Receiver<CoordMsg>,
        tx: Sender<WorkerMsg>,
        t0: Instant,
        train: TrainConfig,
        sink: TraceSink,
        hub: MetricsHub,
        watchdog: Watchdog,
    ) -> std::thread::JoinHandle<()> {
        let threads = self.cfg.cpu_threads;
        let plan = self.cfg.fault_plan.clone();
        std::thread::Builder::new()
            .name(format!("cpu-worker-{slot}"))
            .spawn(move || {
                let body = || -> Result<(), WorkerError> {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .thread_name(|i| format!("hogwild-{i}"))
                        .build()
                        .map_err(|e| WorkerError::Panic(format!("cpu worker pool: {e}")))?;
                    let mut lanes: Vec<Lane> = (0..threads)
                        .map(|_| {
                            let local = shared.snapshot();
                            let scan = MergeScan::for_model(&local);
                            Lane {
                                local,
                                ws: Workspace::new(shared.spec()),
                                batch: Staged::new(),
                                scan,
                                phases: BatchPhases::default(),
                            }
                        })
                        .collect();
                    let poison_step = plan.poison_at(slot);
                    // Histogram handles resolved once; recording is a few
                    // relaxed atomic adds, so the zero-alloc steady state
                    // of the lanes is preserved.
                    let lat_hist = hub.histogram(Metric::BatchLatency, slot as u32);
                    let queue_hist = hub.histogram(Metric::QueueWait, slot as u32);
                    let stale_hist = hub.histogram(Metric::Staleness, slot as u32);
                    let rows_hist = hub.histogram(Metric::RowsTouched, slot as u32);
                    let skipped_ctr = sink.counter("engine.sparse_rows_skipped");
                    let csr_src = csr_data.as_deref();
                    let mut batches_done = 0u64;
                    loop {
                        let (msg, waited) = rx.recv_timed();
                        let Ok(msg) = msg else { break };
                        queue_hist.record_secs(waited.as_secs_f64());
                        let (batch_id, range) = match msg {
                            CoordMsg::Execute { id, range } => (id, range),
                            CoordMsg::Stop => break,
                        };
                        if sink.enabled() {
                            sink.emit(slot as u32, EventKind::BatchStarted { id: batch_id });
                        }
                        if plan.death_after(slot) == Some(batches_done) {
                            panic!(
                                "injected fault: worker {slot} died after {batches_done} batches"
                            );
                        }
                        let busy_start = t0.elapsed().as_secs_f64();
                        let total = range.len();
                        let sub = total.div_ceil(threads);
                        let sub_ranges: Vec<(usize, usize)> = (0..threads)
                            .map(|i| {
                                let s = range.start + i * sub;
                                (s, (s + sub).min(range.end))
                            })
                            .filter(|(s, e)| e > s)
                            .collect();
                        let n_updates = sub_ranges.len();
                        // Each Hogwild lane: read the live shared model (racy
                        // snapshot), compute its sub-gradient, apply racily.
                        // Lane i owns lanes[i] exclusively (chunk size 1), so
                        // every buffer is reused without synchronization.
                        pool.install(|| {
                            use rayon::prelude::*;
                            lanes[..n_updates].par_chunks_mut(1).enumerate().for_each(
                                |(i, lane)| {
                                    let lane = &mut lane[0];
                                    let (s, e) = sub_ranges[i];
                                    // Injected fault lands in lane 0 only —
                                    // one poisoned update is enough, and it
                                    // keeps the site exact.
                                    let poison = i == 0 && poison_step == Some(batches_done);
                                    cpu_lane_step(
                                        lane,
                                        &shared,
                                        &dataset,
                                        csr_src,
                                        s,
                                        e,
                                        &train,
                                        poison,
                                        &watchdog,
                                        slot,
                                        batches_done,
                                        &stale_hist,
                                        &rows_hist,
                                        &skipped_ctr,
                                    );
                                },
                            );
                        });
                        let busy_end = t0.elapsed().as_secs_f64();
                        lat_hist.record_secs(busy_end - busy_start);
                        batches_done += 1;
                        // Lane phase timings are CPU-seconds summed across
                        // parallel lanes; project them onto the batch's wall
                        // busy span so attribution never exceeds elapsed.
                        let mut phases = BatchPhases::default();
                        for lane in &lanes[..n_updates] {
                            phases.add(&lane.phases);
                        }
                        let lane_total = phases.total();
                        let busy_wall = (busy_end - busy_start).max(0.0);
                        if lane_total > busy_wall && lane_total > 0.0 {
                            phases.scale(busy_wall / lane_total);
                        }
                        if sink.enabled() {
                            sink.emit(
                                slot as u32,
                                EventKind::BatchCompleted {
                                    id: batch_id,
                                    batch: total,
                                    updates: n_updates,
                                    phases,
                                },
                            );
                        }
                        // `t·β` crediting: the configured constant by
                        // default; the live CAS-probe estimate when the run
                        // opted into measured β (DESIGN.md §4g).
                        let credited = if train.measured_beta {
                            credit_updates(
                                n_updates as u64,
                                train.adaptive.beta,
                                shared.beta_estimate(),
                            )
                        } else {
                            n_updates as f64 * train.adaptive.beta
                        };
                        let sent = tx.send(WorkerMsg::Ready(Ready {
                            worker: slot,
                            id: batch_id,
                            updates: credited,
                            examples: total as u64,
                            busy_start,
                            busy_end,
                            batch: total,
                            shrunk_to: None,
                            leftover: None,
                        }));
                        if sent.is_err() {
                            break; // coordinator gone: nothing left to tell
                        }
                    }
                    Ok(())
                };
                report_worker_exit(slot, catch_unwind(AssertUnwindSafe(body)), &tx);
            })
            .expect("spawn cpu worker")
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_gpu_worker(
        &self,
        slot: usize,
        dataset: Arc<DenseDataset>,
        csr_data: Option<Arc<CsrMatrix>>,
        shared: Arc<SharedModel>,
        rx: Receiver<CoordMsg>,
        tx: Sender<WorkerMsg>,
        t0: Instant,
        train: TrainConfig,
        sink: TraceSink,
        hub: MetricsHub,
        watchdog: Watchdog,
    ) -> std::thread::JoinHandle<()> {
        let perf = self.cfg.gpu_perf.clone();
        let plan = self.cfg.fault_plan.clone();
        std::thread::Builder::new()
            .name(format!("gpu-worker-{slot}"))
            .spawn(move || {
                let body = || -> Result<(), WorkerError> {
                    // The observed device feeds H2D/D2H transfer
                    // histograms on top of the trace events.
                    let device = GpuDevice::new_observed(perf, &sink, slot as u32, &hub);
                    let lat_hist = hub.histogram(Metric::BatchLatency, slot as u32);
                    let queue_hist = hub.histogram(Metric::QueueWait, slot as u32);
                    let stale_hist = hub.histogram(Metric::Staleness, slot as u32);
                    let merge_hist = hub.histogram(Metric::MergeWait, slot as u32);
                    let retries_hist = hub.histogram(Metric::MergeRetries, slot as u32);
                    let rows_hist = hub.histogram(Metric::RowsTouched, slot as u32);
                    let sparse_retries_hist =
                        hub.histogram(Metric::MergeRetriesSparse, slot as u32);
                    if plan.upload_oom(slot) {
                        device.inject_oom_at(0);
                    }
                    if let Some(n) = plan.oom_alloc_index(slot) {
                        device.inject_oom_at(n);
                    }
                    // Kernel-emulation GEMMs fan out to this pinned pool
                    // instead of grabbing every host core.
                    let gemm_pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(train.rayon_threads)
                        .build()
                        .map_err(|e| WorkerError::Panic(format!("gpu gemm pool: {e}")))?;
                    // Persistent host-side staging, reused across batches:
                    // snapshot/replica models and the batch buffers make the
                    // steady-state step loop allocation-free on the host
                    // (the device side reuses `GpuMlp`'s scratch pool).
                    let mut snapshot = shared.snapshot();
                    let mut replica = Model::zeros_like(shared.spec());
                    let mut batch = Staged::new();
                    // Sparse fast path (`train.sparse_input`): the replica
                    // trains on the host's sparse kernels instead of the
                    // dense device step, so it needs its own workspace.
                    let mut host_ws = Workspace::new(shared.spec());
                    // Watchdog scratch: per-layer sumsq / non-finite counts
                    // of the merged delta, filled *inside* the merge's
                    // element loop (no extra pass over the model).
                    let mut merge_scan = MergeScan::for_model(&snapshot);
                    let poison_step = plan.poison_at(slot);
                    // An OOM here is unrecoverable — there is no batch to
                    // shrink when the parameters themselves don't fit.
                    let mut mlp = GpuMlp::upload(&device, &snapshot)
                        .map_err(|e| WorkerError::Oom(format!("model upload failed: {e}")))?;
                    let mut batches_done = 0u64;
                    loop {
                        let (msg, waited) = rx.recv_timed();
                        let Ok(msg) = msg else { break };
                        queue_hist.record_secs(waited.as_secs_f64());
                        let (batch_id, range) = match msg {
                            CoordMsg::Execute { id, range } => (id, range),
                            CoordMsg::Stop => break,
                        };
                        if sink.enabled() {
                            sink.emit(slot as u32, EventKind::BatchStarted { id: batch_id });
                        }
                        if plan.death_after(slot) == Some(batches_done) {
                            panic!(
                                "injected fault: worker {slot} died after {batches_done} batches"
                            );
                        }
                        // Transfers the device emits while this batch runs
                        // carry its lineage id.
                        device.set_active_batch(Some(batch_id));
                        let busy_start = t0.elapsed().as_secs_f64();
                        let poison = poison_step == Some(batches_done);
                        let step = GpuStepCtx {
                            shared: &shared,
                            dataset: &dataset,
                            csr_data: csr_data.as_deref(),
                            gemm_pool: &gemm_pool,
                            train: &train,
                            watchdog: &watchdog,
                            slot,
                            batches_done,
                            stale_hist: &stale_hist,
                            merge_hist: &merge_hist,
                            retries_hist: &retries_hist,
                            rows_hist: &rows_hist,
                            sparse_retries_hist: &sparse_retries_hist,
                        };
                        let (len, shrunk_to, leftover, scale, phases) = if train.sparse_input {
                            gpu_batch_step_sparse(
                                &step,
                                &mut snapshot,
                                &mut replica,
                                &mut host_ws,
                                &mut batch,
                                &mut merge_scan,
                                range,
                                poison,
                            )
                        } else {
                            gpu_batch_step(
                                &step,
                                &mut mlp,
                                &mut snapshot,
                                &mut replica,
                                &mut batch.x,
                                &mut batch.labels,
                                &mut merge_scan,
                                range,
                                poison,
                            )?
                        };
                        device.set_active_batch(None);
                        let busy_end = t0.elapsed().as_secs_f64();
                        lat_hist.record_secs(busy_end - busy_start);
                        batches_done += 1;
                        if sink.enabled() {
                            sink.emit(
                                slot as u32,
                                EventKind::ModelMerge {
                                    scale: scale as f64,
                                    id: Some(batch_id),
                                },
                            );
                            sink.emit(
                                slot as u32,
                                EventKind::BatchCompleted {
                                    id: batch_id,
                                    batch: len,
                                    updates: 1,
                                    phases,
                                },
                            );
                        }
                        let sent = tx.send(WorkerMsg::Ready(Ready {
                            worker: slot,
                            id: batch_id,
                            updates: 1.0,
                            examples: len as u64,
                            busy_start,
                            busy_end,
                            batch: len,
                            shrunk_to,
                            leftover,
                        }));
                        if sent.is_err() {
                            break; // coordinator gone: nothing left to tell
                        }
                    }
                    Ok(())
                    // `mlp` (and its device buffers) drop here — and on any
                    // unwind path above, via GpuMlp's Drop impl.
                };
                report_worker_exit(slot, catch_unwind(AssertUnwindSafe(body)), &tx);
            })
            .expect("spawn gpu worker")
    }

    fn build_controller(&self, kinds: &[WorkerKind], n: usize) -> AdaptiveController {
        let train = &self.cfg.train;
        let p = &train.adaptive;
        let adapt = train.algorithm.is_adaptive();
        let states = kinds
            .iter()
            .map(|k| match k {
                WorkerKind::Cpu => {
                    if adapt {
                        let min_b = p.cpu_min_batch.max(self.cfg.cpu_threads).min(n.max(1));
                        WorkerBatchState::new(min_b, min_b, p.cpu_max_batch.max(min_b))
                    } else {
                        let b = (train.cpu_batch_per_thread * self.cfg.cpu_threads)
                            .min(n.max(1))
                            .max(1);
                        WorkerBatchState::new(b, b, b)
                    }
                }
                WorkerKind::Gpu => {
                    if adapt {
                        let max_b = p.gpu_max_batch.max(1);
                        let min_b = p.gpu_min_batch.min(max_b).max(1);
                        WorkerBatchState::new(max_b, min_b, max_b)
                    } else {
                        let b = train.gpu_batch.max(1);
                        WorkerBatchState::new(b, b, b)
                    }
                }
            })
            .collect();
        AdaptiveController::new(p.alpha, adapt, states)
    }
}

/// One persistent scratch set per Hogwild lane — model snapshot, batch
/// staging, and forward/backward workspace all reused across batches, so a
/// steady-state lane performs zero heap allocations.
struct Lane {
    local: Model,
    ws: Workspace,
    batch: Staged,
    /// Watchdog scratch: per-layer sumsq / non-finite counts of the lane's
    /// own gradient, reused every batch (lane-local, so no
    /// synchronization).
    scan: MergeScan,
    /// This lane's stage/compute/merge split of its last step
    /// (lane-local CPU seconds; the worker projects the lane sum onto the
    /// batch's wall busy span before reporting).
    phases: BatchPhases,
}

/// One Hogwild lane step: racy snapshot → sub-gradient → racy apply.
/// This is the CPU hot path the paper's speedup model assumes is cheap;
/// the audit proves its steady state stays allocation-free (DESIGN.md §4j).
// audit: no_alloc
#[allow(clippy::too_many_arguments)]
fn cpu_lane_step(
    lane: &mut Lane,
    shared: &SharedModel,
    dataset: &DenseDataset,
    csr_data: Option<&CsrMatrix>,
    s: usize,
    e: usize,
    train: &TrainConfig,
    poison: bool,
    watchdog: &Watchdog,
    slot: usize,
    batches_done: u64,
    stale_hist: &HistHandle,
    rows_hist: &HistHandle,
    skipped_ctr: &CounterHandle,
) {
    // Staleness = global updates applied between this lane's read and its
    // own write landing (minus the write itself).
    let stale_at = (!stale_hist.is_disabled()).then(|| shared.update_count());
    let t_stage = Instant::now();
    shared.snapshot_into(&mut lane.local);
    // Sparse fast path: CSR batch, sparse kernels, and (below) a racy
    // apply that walks only the layer-0 columns the batch touched. The
    // gradient is still globally exact (true zeros elsewhere), so
    // clip/poison/scan below are unchanged.
    lane.batch.stage(dataset, csr_data, s, e);
    let t_compute = Instant::now();
    lane.phases.stage_secs = (t_compute - t_stage).as_secs_f64();
    lane.batch.gradient(&mut lane.ws, &lane.local, false);
    lane.phases.compute_secs = t_compute.elapsed().as_secs_f64();
    lane.phases.transfer_secs = 0.0;
    if let Some(c) = train.grad_clip {
        lane.ws.grad_mut().clip_to_norm(c);
    }
    // Injected fault: one NaN into this worker's gradient at the planned
    // step.
    if poison {
        lane.ws.grad_mut().layers_mut()[0].b[0] = f32::NAN;
    }
    scan_gradient(watchdog, slot, batches_done, lane.ws.grad(), &mut lane.scan);
    let eta = train.lr_scaling.eta(train.lr, e - s);
    let t_merge = Instant::now();
    if train.sparse_input {
        let cols = lane.ws.sparse_active_cols();
        rows_hist.record(cols.len() as u64);
        skipped_ctr.add((dataset.features() - cols.len()) as u64);
        if train.measured_beta {
            shared.apply_gradient_racy_sampled_cols(lane.ws.grad(), eta, cols);
        } else {
            shared.apply_gradient_racy_cols(lane.ws.grad(), eta, cols);
        }
    } else if train.measured_beta {
        shared.apply_gradient_racy_sampled(lane.ws.grad(), eta);
    } else {
        shared.apply_gradient_racy(lane.ws.grad(), eta);
    }
    lane.phases.merge_secs = t_merge.elapsed().as_secs_f64();
    if let Some(at) = stale_at {
        let now = shared.update_count();
        stale_hist.record(now.saturating_sub(at + 1));
    }
}

/// Shared, read-only context of one GPU batch step (bundled so the step
/// function's signature stays reviewable).
struct GpuStepCtx<'a> {
    shared: &'a SharedModel,
    dataset: &'a DenseDataset,
    /// Run-level CSR copy of the features; `Some` iff `train.sparse_input`.
    csr_data: Option<&'a CsrMatrix>,
    gemm_pool: &'a rayon::ThreadPool,
    train: &'a TrainConfig,
    watchdog: &'a Watchdog,
    slot: usize,
    batches_done: u64,
    stale_hist: &'a HistHandle,
    merge_hist: &'a HistHandle,
    retries_hist: &'a HistHandle,
    rows_hist: &'a HistHandle,
    sparse_retries_hist: &'a HistHandle,
}

/// One GPU batch step's outcome: examples processed, the shrunk batch size
/// after OOM retries (if any), the unprocessed leftover tail, the merge
/// scale, and the measured per-phase wall-clock breakdown.
type GpuStepOutcome = (usize, Option<usize>, Option<BatchRange>, f32, BatchPhases);

/// One GPU batch step: replica refresh → device train step (with bounded
/// OOM-halving retry) → staleness-discounted delta merge (§V/§VI-B).
/// Returns `(processed len, shrunk_to, leftover tail, merge scale, phase
/// breakdown)` — staging (snapshot + batch gather), transfer (model
/// refresh + delta download), compute (device step), and merge are
/// wall-timed separately, accumulated across OOM retries.
///
/// The steady-state path is allocation-free on the host; the `format!`
/// calls on the unrecoverable-OOM branch are reviewed allowlist entries
/// (the worker retires immediately after).
// audit: no_alloc
#[allow(clippy::too_many_arguments)]
fn gpu_batch_step(
    ctx: &GpuStepCtx<'_>,
    mlp: &mut GpuMlp,
    snapshot: &mut Model,
    replica: &mut Model,
    x: &mut Matrix,
    labels: &mut Labels,
    merge_scan: &mut MergeScan,
    range: BatchRange,
    poison: bool,
) -> Result<GpuStepOutcome, WorkerError> {
    let mut phases = BatchPhases::default();
    // Deep-copy replica of the current global model (§V).
    let updates_at_snapshot = ctx.shared.update_count();
    let t_stage = Instant::now();
    ctx.shared.snapshot_into(snapshot);
    phases.stage_secs += t_stage.elapsed().as_secs_f64();
    // Bounded retry: halve the batch until the step fits on the device (a
    // mid-step OOM leaves the replica partially updated, so refresh before
    // every try).
    let mut len = range.len();
    let mut shrunk_to = None;
    loop {
        let t_refresh = Instant::now();
        mlp.refresh(snapshot);
        phases.transfer_secs += t_refresh.elapsed().as_secs_f64();
        let t_batch = Instant::now();
        ctx.dataset
            .batch_into(range.start, range.start + len, x, labels);
        phases.stage_secs += t_batch.elapsed().as_secs_f64();
        let eta = ctx.train.lr_scaling.eta(ctx.train.lr, len);
        let t_compute = Instant::now();
        let step = ctx
            .gemm_pool
            .install(|| mlp.train_step(x, labels.as_targets(), eta));
        phases.compute_secs += t_compute.elapsed().as_secs_f64();
        match step {
            Ok(_) => break,
            Err(e) if len > 1 => {
                len /= 2;
                shrunk_to = Some(len);
                let _ = e;
            }
            Err(e) => {
                return Err(WorkerError::Oom(format!("single-example step failed: {e}")));
            }
        }
    }
    let leftover = (len < range.len()).then_some(BatchRange {
        start: range.start + len,
        end: range.end,
        epoch: range.epoch,
    });
    // Merge the replica's delta into the global model without clobbering
    // concurrent CPU updates. §VI-B: the delta is discounted by how stale
    // its base snapshot became while the device was computing.
    let staleness = ctx
        .shared
        .update_count()
        .saturating_sub(updates_at_snapshot);
    let scale = 1.0 / (1.0 + ctx.train.staleness_discount * staleness as f32);
    ctx.stale_hist.record(staleness);
    let t_download = Instant::now();
    mlp.download_into(replica);
    phases.transfer_secs += t_download.elapsed().as_secs_f64();
    // Injected fault: one NaN into this worker's delta at the planned step
    // (the merge carries it into the shared model — detection is the
    // watchdog's job, not the merge's).
    if poison {
        replica.layers_mut()[0].b[0] = f32::NAN;
    }
    let merge_start = Instant::now();
    let retries = if ctx.watchdog.enabled() {
        merge_scan.reset();
        let r = ctx
            .shared
            .merge_delta_scaled_scanned(snapshot, replica, scale, merge_scan);
        report_scan(ctx.watchdog, ctx.slot, ctx.batches_done, merge_scan);
        r
    } else {
        ctx.shared
            .merge_delta_scaled_observed(snapshot, replica, scale)
    };
    phases.merge_secs = merge_start.elapsed().as_secs_f64();
    ctx.merge_hist.record_secs(phases.merge_secs);
    ctx.retries_hist.record(retries);
    Ok((len, shrunk_to, leftover, scale, phases))
}

/// Sparse-input variant of [`gpu_batch_step`]: the replica trains one step
/// on the host's CSR kernels (the software device has no sparse path), and
/// the merge walks only the layer-0 columns the batch touched plus the
/// dense tail. The replica equals the snapshot outside those columns, so
/// the row-sparse merge is exactly the dense merge, scan included. Host
/// memory can't OOM-shrink, so the whole range always processes.
// audit: no_alloc
#[allow(clippy::too_many_arguments)]
fn gpu_batch_step_sparse(
    ctx: &GpuStepCtx<'_>,
    snapshot: &mut Model,
    replica: &mut Model,
    ws: &mut Workspace,
    batch: &mut Staged,
    merge_scan: &mut MergeScan,
    range: BatchRange,
    poison: bool,
) -> GpuStepOutcome {
    let mut phases = BatchPhases::default();
    // Deep-copy replica of the current global model (§V).
    let updates_at_snapshot = ctx.shared.update_count();
    let t_stage = Instant::now();
    ctx.shared.snapshot_into(snapshot);
    replica.copy_from(snapshot);
    batch.stage(ctx.dataset, ctx.csr_data, range.start, range.end);
    phases.stage_secs = t_stage.elapsed().as_secs_f64();
    let eta = ctx.train.lr_scaling.eta(ctx.train.lr, range.len());
    let t_compute = Instant::now();
    ctx.gemm_pool.install(|| batch.gradient(ws, replica, true));
    replica.apply_gradient_sparse(ws.grad(), eta, ws.sparse_active_cols());
    phases.compute_secs = t_compute.elapsed().as_secs_f64();
    ctx.rows_hist.record(ws.sparse_active_cols().len() as u64);
    // §VI-B staleness discount, same as the dense step.
    let staleness = ctx
        .shared
        .update_count()
        .saturating_sub(updates_at_snapshot);
    let scale = 1.0 / (1.0 + ctx.train.staleness_discount * staleness as f32);
    ctx.stale_hist.record(staleness);
    // Injected fault: the bias is part of the merge's dense tail, so the
    // NaN still reaches the shared model for the watchdog to catch.
    if poison {
        replica.layers_mut()[0].b[0] = f32::NAN;
    }
    let merge_start = Instant::now();
    merge_scan.reset();
    let retries = ctx.shared.merge_delta_sparse_scanned(
        snapshot,
        replica,
        scale,
        ws.sparse_active_cols(),
        merge_scan,
    );
    if ctx.watchdog.enabled() {
        report_scan(ctx.watchdog, ctx.slot, ctx.batches_done, merge_scan);
    }
    phases.merge_secs = merge_start.elapsed().as_secs_f64();
    ctx.merge_hist.record_secs(phases.merge_secs);
    ctx.sparse_retries_hist.record(retries);
    // Host-resident CSR path: nothing crosses a device link.
    phases.transfer_secs = 0.0;
    (range.len(), None, None, scale, phases)
}

/// Convert a worker body's exit into a [`WorkerMsg::Fault`] when it did not
/// end cleanly. A clean exit (coordinator said Stop, or the schedule ran
/// dry) sends nothing.
fn report_worker_exit(
    slot: usize,
    exit: std::thread::Result<Result<(), WorkerError>>,
    tx: &Sender<WorkerMsg>,
) {
    let error = match exit {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(payload) => WorkerError::Panic(panic_message(&*payload)),
    };
    // If the coordinator is already gone there is nobody left to tell.
    let _ = tx.send(WorkerMsg::Fault {
        worker: slot,
        error,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveParams, LrScaling};
    use hetero_data::SynthConfig;

    /// One unobserved run of `cfg`.
    fn run(cfg: ThreadedEngineConfig, data: Arc<DenseDataset>) -> TrainResult {
        ThreadedEngine::new(cfg)
            .unwrap()
            .run(data, &Observers::default())
    }

    fn dataset() -> Arc<DenseDataset> {
        let mut cfg = SynthConfig::small(400, 8, 2, 5);
        cfg.separability = 3.0;
        let mut d = cfg.generate();
        d.standardize();
        Arc::new(d)
    }

    fn config(algo: AlgorithmKind, secs: f64) -> ThreadedEngineConfig {
        ThreadedEngineConfig {
            spec: MlpSpec::tiny(8, 2),
            train: TrainConfig {
                init: hetero_nn::InitScheme::Xavier,
                algorithm: algo,
                lr: 0.05,
                lr_scaling: LrScaling::Sqrt {
                    ref_batch: 1,
                    max_lr: 0.3,
                },
                cpu_batch_per_thread: 1,
                gpu_batch: 64,
                adaptive: AdaptiveParams {
                    alpha: 2.0,
                    beta: 1.0,
                    cpu_min_batch: 4,
                    cpu_max_batch: 64,
                    gpu_min_batch: 16,
                    gpu_max_batch: 64,
                },
                time_budget: secs,
                max_epochs: None,
                grad_clip: None,
                weight_decay: 0.0,
                staleness_discount: 0.0,
                rayon_threads: 0,
                measured_beta: false,
                sparse_input: false,
                eval_interval: secs / 4.0,
                eval_subsample: 200,
                ckpt_interval: None,
                ckpt_retain: 2,
                seed: 3,
            },
            cpu_threads: 4,
            gpu_perf: GpuModel::v100(),
            gpu_workers: 1,
            fault_plan: FaultPlan::none(),
        }
    }

    #[test]
    fn cpu_only_run_converges() {
        let r = run(config(AlgorithmKind::HogwildCpu, 0.4), dataset());
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        assert_eq!(r.cpu_update_fraction(), 1.0);
        assert!(r.workers[0].batches > 0);
    }

    #[test]
    fn gpu_only_run_converges() {
        let r = run(config(AlgorithmKind::MiniBatchGpu, 0.4), dataset());
        assert!(r.final_loss() < r.initial_loss());
        assert_eq!(r.cpu_update_fraction(), 0.0);
    }

    #[test]
    fn heterogeneous_run_uses_both_workers() {
        let r = run(config(AlgorithmKind::CpuGpuHogbatch, 0.5), dataset());
        assert!(r.final_loss() < r.initial_loss());
        let frac = r.cpu_update_fraction();
        assert!(frac > 0.0 && frac < 1.0, "cpu fraction {frac}");
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
    }

    #[test]
    fn adaptive_run_completes_and_adapts() {
        let r = run(config(AlgorithmKind::AdaptiveHogbatch, 0.5), dataset());
        assert!(r.final_loss() < r.initial_loss());
        assert!(r.loss_curve.len() >= 3);
        // Update distribution must be less skewed than all-CPU/all-GPU.
        let frac = r.cpu_update_fraction();
        assert!(frac > 0.02 && frac < 0.98, "cpu fraction {frac}");
    }

    #[test]
    fn traced_run_emits_batch_lifecycle() {
        let sink = TraceSink::wall(8192);
        let r = ThreadedEngine::new(config(AlgorithmKind::AdaptiveHogbatch, 0.4))
            .unwrap()
            .run(
                dataset(),
                &Observers {
                    trace: sink.clone(),
                    ..Observers::default()
                },
            );
        assert!(r.final_loss().is_finite());
        assert!(
            r.trace_path.is_none(),
            "engine never writes the file itself"
        );
        let trace = sink.drain();
        let events = trace.events_sorted();
        let (mut dispatched, mut started, mut completed, mut evals, mut merges) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut dispatched_ids = std::collections::HashSet::new();
        let mut phase_time = 0.0f64;
        for e in &events {
            match e.kind {
                EventKind::BatchDispatched { id, batch } => {
                    assert!(batch > 0);
                    assert!(id > 0, "batch ids start at 1");
                    assert!(dispatched_ids.insert(id), "duplicate batch id {id}");
                    dispatched += 1;
                }
                EventKind::BatchStarted { id } => {
                    assert!(dispatched_ids.contains(&id), "start without dispatch: {id}");
                    started += 1;
                }
                EventKind::BatchCompleted { id, ref phases, .. } => {
                    assert!(
                        dispatched_ids.contains(&id),
                        "completion without dispatch: {id}"
                    );
                    phase_time += phases.total();
                    completed += 1;
                }
                EventKind::EvalPoint { .. } => {
                    assert_eq!(e.worker, COORDINATOR);
                    evals += 1;
                }
                EventKind::ModelMerge { scale, id } => {
                    assert!(scale > 0.0 && scale <= 1.0);
                    assert!(id.is_some(), "GPU merge must carry batch lineage");
                    merges += 1;
                }
                EventKind::WorkerFault { ref reason } | EventKind::WorkerRetired { ref reason } => {
                    panic!("fault-free run traced a fault: {reason}")
                }
                EventKind::BatchRequeued { .. } => {
                    panic!("fault-free run re-queued a batch")
                }
                _ => {}
            }
        }
        assert!(dispatched > 0, "no dispatches traced");
        assert_eq!(started, completed, "every started batch completes");
        assert!(completed > 0, "no completions traced");
        assert!(phase_time > 0.0, "completions must carry phase breakdowns");
        assert!(merges > 0, "GPU merges not traced");
        assert!(evals >= 2, "expected initial + final eval, got {evals}");
        // Both worker slots (CPU=0, GPU=1) completed work.
        let workers: std::collections::HashSet<u32> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BatchCompleted { .. }))
            .map(|e| e.worker)
            .collect();
        assert!(workers.contains(&0) && workers.contains(&1), "{workers:?}");
        let counters: std::collections::HashMap<String, f64> =
            trace.counters.iter().cloned().collect();
        assert!(
            counters
                .get("engine.examples_per_sec")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
        assert_eq!(counters.get("engine.beta"), Some(&1.0));
        // Fault-free run: supervision counters must stay untouched.
        assert_eq!(r.requeued_batches, 0);
        assert!(r.aborted.is_none());
        assert!(r.workers.iter().all(|w| w.retired.is_none()));
    }

    #[test]
    fn observed_run_fills_histograms_and_dashboard_gauges() {
        let sink = TraceSink::wall(8192);
        let hub = MetricsHub::new();
        let mut cfg = config(AlgorithmKind::AdaptiveHogbatch, 0.4);
        cfg.train.measured_beta = true;
        let r = ThreadedEngine::new(cfg)
            .unwrap()
            .run_observed(dataset(), &sink, &hub);
        assert!(r.final_loss().is_finite());
        // Measured β: the run opted in, so the estimate must be present
        // and a valid survival fraction.
        let beta = r.measured_beta.expect("measured β missing");
        assert!((0.0..=1.0).contains(&beta), "β̂ = {beta}");
        // Staleness summary comes from the hub.
        let stale = r.staleness.expect("staleness summary missing");
        assert!(stale.count > 0);
        assert!(stale.p50 <= stale.p99);
        // Both workers filled latency + queue-wait histograms; the GPU
        // additionally filled transfer + merge series.
        let snap = hub.snapshot();
        for w in [0u32, 1u32] {
            for m in [Metric::BatchLatency, Metric::QueueWait] {
                let s = snap.series_for(m, w).expect("series missing");
                assert!(s.count() > 0, "{m:?} empty for worker {w}");
            }
        }
        for m in [
            Metric::H2d,
            Metric::D2h,
            Metric::MergeWait,
            Metric::MergeRetries,
        ] {
            let s = snap.merged(m).expect("gpu series missing");
            assert!(s.count() > 0, "{m:?} empty");
        }
        // Dashboard gauges were published through the sink.
        let typed = sink.snapshot_typed();
        let gauge = |name: &str| {
            typed
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(gauge("worker.0.kind"), Some(0.0));
        assert_eq!(gauge("worker.1.kind"), Some(1.0));
        assert!(gauge("worker.0.updates").unwrap_or(0.0) > 0.0);
        assert!(gauge("worker.1.batch").unwrap_or(0.0) > 0.0);
        assert!(gauge("engine.loss").unwrap_or(f64::NAN).is_finite());
        assert!(gauge("engine.beta_measured").is_some());
        // Timeline digests were filled in before returning.
        for w in &r.workers {
            assert!(w.timeline_summary.intervals > 0);
            assert!(w.timeline_summary.busy_fraction > 0.0);
        }
    }

    #[test]
    fn sparse_input_run_converges_and_reports_sparse_metrics() {
        let sink = TraceSink::wall(8192);
        let hub = MetricsHub::new();
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.5);
        cfg.train.sparse_input = true;
        cfg.train.measured_beta = true; // exercise the sampled-cols apply
        let r = ThreadedEngine::new(cfg)
            .unwrap()
            .run_observed(dataset(), &sink, &hub);
        assert!(r.final_loss() < r.initial_loss(), "{:?}", r.loss_curve);
        for w in &r.workers {
            assert!(w.batches > 0, "{:?} idle", w.kind);
        }
        // β̂ still comes out of the sampled-cols CAS probes.
        let beta = r.measured_beta.expect("measured β missing");
        assert!((0.0..=1.0).contains(&beta), "β̂ = {beta}");
        // Sparse observability: rows-touched from both worker kinds, the
        // sparse-split CAS-retry series from the GPU merge, the density
        // gauge, and the rows-skipped counter.
        let snap = hub.snapshot();
        let rows = snap
            .merged(Metric::RowsTouched)
            .expect("rows_touched series missing");
        assert!(rows.count() > 0);
        let sparse_retries = snap
            .merged(Metric::MergeRetriesSparse)
            .expect("sparse merge-retry series missing");
        assert!(sparse_retries.count() > 0);
        let typed = sink.snapshot_typed();
        let density = typed
            .gauges
            .iter()
            .find(|(n, _)| n == "engine.sparse_density")
            .map(|(_, v)| *v)
            .expect("density gauge missing");
        assert!(density > 0.0 && density <= 1.0, "density {density}");
        let counters: std::collections::HashMap<String, f64> =
            sink.drain().counters.iter().cloned().collect();
        assert!(
            counters.contains_key("engine.sparse_rows_skipped"),
            "rows-skipped counter missing"
        );
    }

    #[test]
    fn paper_parity_run_reports_no_measured_beta() {
        let r = run(config(AlgorithmKind::CpuGpuHogbatch, 0.3), dataset());
        // Default config: β stays the configured constant and the result
        // carries no estimate (and no hub → no staleness summary).
        assert!(r.measured_beta.is_none());
        assert!(r.staleness.is_none());
    }

    #[test]
    fn pool_oversubscription_counter_reports_excess_threads() {
        // Deliberately request far more GEMM threads than any host has:
        // the counter must report the excess (lanes + GPU GEMM fan-out
        // beyond the host's cores).
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.2);
        cfg.train.rayon_threads = 1024;
        let sink = TraceSink::wall(4096);
        let _ = ThreadedEngine::new(cfg).unwrap().run(
            dataset(),
            &Observers {
                trace: sink.clone(),
                ..Observers::default()
            },
        );
        let counters: std::collections::HashMap<String, f64> =
            sink.drain().counters.iter().cloned().collect();
        let over = counters
            .get("engine.pool_oversubscription")
            .copied()
            .expect("counter missing");
        assert!(over >= 512.0, "oversubscription not reported: {over}");
    }

    #[test]
    fn multi_gpu_threaded_workers() {
        // The paper's future work: scale the framework to multi-GPU.
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.5);
        cfg.gpu_workers = 2;
        let r = run(cfg, dataset());
        let gpu_workers: Vec<_> = r
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Gpu)
            .collect();
        assert_eq!(gpu_workers.len(), 2);
        assert!(
            gpu_workers.iter().all(|w| w.batches > 0),
            "an idle GPU worker"
        );
        assert!(r.final_loss() < r.initial_loss());
    }

    #[test]
    fn zero_gpu_workers_rejected_for_gpu_algorithms() {
        let mut cfg = config(AlgorithmKind::MiniBatchGpu, 0.1);
        cfg.gpu_workers = 0;
        assert!(ThreadedEngine::new(cfg).is_err());
        // CPU-only algorithms don't care.
        let mut cfg = config(AlgorithmKind::HogwildCpu, 0.1);
        cfg.gpu_workers = 0;
        assert!(ThreadedEngine::new(cfg).is_ok());
    }

    #[test]
    fn tensorflow_rejected() {
        assert!(ThreadedEngine::new(config(AlgorithmKind::TensorFlow, 0.1)).is_err());
    }

    #[test]
    fn checkpoint_and_resume_continues_the_run() {
        use hetero_ckpt::{Checkpointer, CkptConfig};
        let data = dataset();
        let dir = std::env::temp_dir().join(format!("hetero-thr-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First incarnation: train 0.4s of a 0.8s budget, checkpointing
        // every 50ms, then stop (simulating a crash after the last save).
        let mut cfg = config(AlgorithmKind::CpuGpuHogbatch, 0.4);
        cfg.train.time_budget = 0.4;
        let writer = Observers {
            ckpt: Checkpointer::new(CkptConfig {
                dir: dir.clone(),
                interval: 0.05,
                retain: 2,
                resume: false,
            })
            .unwrap(),
            ..Observers::default()
        };
        let first = ThreadedEngine::new(cfg.clone())
            .unwrap()
            .run(data.clone(), &writer);
        assert!(writer.ckpt.latest_path().is_some(), "no checkpoint written");
        assert!(first.final_loss() < first.initial_loss());

        // Second incarnation: same config with a larger budget resumes
        // from the newest generation and finishes the remaining time.
        cfg.train.time_budget = 0.7;
        let reader = Observers {
            ckpt: Checkpointer::new(CkptConfig {
                dir: dir.clone(),
                interval: 0.05,
                retain: 2,
                resume: true,
            })
            .unwrap(),
            ..Observers::default()
        };
        let resumed = ThreadedEngine::new(cfg).unwrap().run(data, &reader);
        // The restored curve is a literal prefix of the first run's curve
        // (it was captured from that run), and the resumed incarnation
        // appends new points beyond it on the same time axis.
        let n_prefix = resumed
            .loss_curve
            .iter()
            .zip(&first.loss_curve)
            .take_while(|(a, b)| a.time == b.time && a.loss == b.loss)
            .count();
        assert!(n_prefix >= 1, "resumed curve lost the original prefix");
        assert!(
            resumed.loss_curve.len() > n_prefix,
            "resume added no new eval points"
        );
        let t_ck = resumed.loss_curve[n_prefix - 1].time;
        assert!(
            resumed.loss_curve[n_prefix..].iter().all(|p| p.time > t_ck),
            "resumed points must continue past the checkpoint"
        );
        // The resumed run spent the restored time plus the remainder.
        assert!(resumed.duration > 0.5, "duration {}", resumed.duration);
        assert!(resumed.final_loss().is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_roughly_respected() {
        let r = run(config(AlgorithmKind::MiniBatchGpu, 0.3), dataset());
        // Generous upper bound: budget + one batch + eval slack.
        assert!(r.duration < 3.0, "ran {}s", r.duration);
    }
}
