//! Discrete-event training engine.
//!
//! Executes any [`AlgorithmKind`] against calibrated device models
//! ([`hetero_sim::CpuModel`], [`hetero_sim::GpuModel`]) on a **virtual
//! clock**: every gradient is computed for real on the host, but the
//! *instant it lands* on the global model is decided by the device
//! performance models. This captures the two things the paper's evaluation
//! depends on — the CPU/GPU speed gap and asynchronous staleness (gradients
//! are computed on the model **snapshot taken at batch-assignment time**
//! and applied at completion time) — while remaining exactly reproducible.
//!
//! Workflow per worker (paper Figure 4):
//! 1. coordinator computes the worker's batch size (the
//!    [`AdaptiveController`] is Algorithm 2; static algorithms freeze it),
//! 2. extracts a contiguous range from the data (the [`BatchScheduler`]),
//! 3. snapshots the model (reference for CPU, deep copy for GPU — in the
//!    simulation both are snapshots, but GPU workers additionally pay the
//!    H2D/D2H transfer cost of a deep copy),
//! 4. at `now + batch_time`, the gradient(s) computed on the snapshot are
//!    applied to the live model, update counts are credited, and the worker
//!    immediately requests more work.

use hetero_data::batch::BatchRange;
use hetero_data::{BatchScheduler, DenseDataset};
use hetero_flight::{Watchdog, WatchdogState};
use hetero_metrics::{HistHandle, Metric, MetricsHub};
use hetero_nn::{Gradient, MergeScan, MlpSpec, Model, Workspace};
use hetero_sim::{CpuModel, DeviceModel, EventQueue, GpuModel, UtilizationTimeline};
use hetero_tensor::CsrMatrix;
use hetero_trace::{BatchPhases, CounterHandle, EventKind, TimeDomain, TraceSink};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::adaptive::{AdaptiveController, WorkerBatchState};
use crate::config::{AlgorithmKind, TrainConfig};
use crate::coord::{scan_gradient, Coordinator, Observers, RunInfo};
use crate::eval::EvalSet;
use crate::fault::FaultPlan;
use crate::metrics::{LossPoint, TimelineSummary, TrainResult, WorkerKind, WorkerStats};
use crate::staging::Staged;

/// Hardware and comparator parameters for a simulated run.
#[derive(Debug, Clone)]
pub struct SimEngineConfig {
    /// Network to train.
    pub spec: MlpSpec,
    /// Algorithm + hyperparameters.
    pub train: TrainConfig,
    /// Host CPU model.
    pub cpu: CpuModel,
    /// GPU models; the paper evaluates with one V100, more are supported
    /// (the paper's multi-GPU future work).
    pub gpus: Vec<GpuModel>,
    /// TensorFlow comparator: per-primitive dispatch overhead (§II —
    /// "scheduling primitives instead of the complete SGD has more
    /// overhead").
    pub tf_op_overhead: f64,
    /// TensorFlow comparator: slowdown factor on multi-label losses
    /// (§VII-B: delicious "is much slower in TensorFlow").
    pub tf_multilabel_penalty: f64,
    /// Deterministic fault injection (empty = fault-free run). The sim
    /// honours [`crate::FaultKind::DieAfterBatches`]; the OOM kinds need a
    /// real device allocator and only apply to the threaded engine.
    pub fault_plan: FaultPlan,
}

impl SimEngineConfig {
    /// Paper hardware: 2×Xeon host + one V100.
    pub fn paper_hardware(spec: MlpSpec, train: TrainConfig) -> Self {
        SimEngineConfig {
            spec,
            train,
            cpu: CpuModel::xeon_pair(),
            gpus: vec![GpuModel::v100()],
            tf_op_overhead: 20e-6,
            tf_multilabel_penalty: 3.0,
            fault_plan: FaultPlan::none(),
        }
    }
}

/// One simulated worker device (shared with the parameter server).
pub(crate) enum Device {
    Cpu(CpuModel),
    Gpu(GpuModel),
}

impl Device {
    pub(crate) fn kind(&self) -> WorkerKind {
        match self {
            Device::Cpu(_) => WorkerKind::Cpu,
            Device::Gpu(_) => WorkerKind::Gpu,
        }
    }

    pub(crate) fn batch_time(&self, fpe: u64, batch: usize) -> f64 {
        match self {
            Device::Cpu(c) => c.batch_time(fpe, batch),
            Device::Gpu(g) => g.batch_time(fpe, batch),
        }
    }

    pub(crate) fn busy_utilization(&self, batch: usize) -> f64 {
        match self {
            Device::Cpu(c) => c.busy_utilization(batch),
            Device::Gpu(g) => g.busy_utilization(batch),
        }
    }
}

/// Persistent scratch for one gradient lane: batch staging, the main
/// forward/backward workspace, and (for Hybrid SVRG) a second workspace
/// plus a direction buffer for the anchor correction. Reused across every
/// event, so steady-state gradient computation allocates nothing.
struct SimLane {
    ws: Workspace,
    anchor_ws: Workspace,
    dir: Gradient,
    batch: Staged,
}

impl SimLane {
    fn new(spec: &MlpSpec) -> Self {
        SimLane {
            ws: Workspace::new(spec),
            anchor_ws: Workspace::new(spec),
            dir: Model::zeros_like(spec),
            batch: Staged::new(),
        }
    }
}

/// Per-run scratch shared by every [`SimEngine::apply_batch`] call: one
/// lane per concurrent Hogwild sub-batch, the wave base model, and a
/// dedicated GPU lane.
struct SimScratch {
    lanes: Vec<SimLane>,
    base: Model,
    gpu: SimLane,
    /// Reused sub-batch range list for the CPU wave split (capacity grows
    /// to the thread count once, then steady-state batches don't allocate).
    sub_ranges: Vec<(usize, usize)>,
}

impl SimScratch {
    fn new(spec: &MlpSpec) -> Self {
        SimScratch {
            lanes: Vec::new(),
            base: Model::zeros_like(spec),
            gpu: SimLane::new(spec),
            sub_ranges: Vec::new(),
        }
    }
}

/// Pre-resolved per-worker histogram handles for an observed run. Every
/// handle is a no-op when the hub is disabled, so the unobserved path pays
/// one branch per record. The sim has no queue wait — workers are
/// re-assigned the instant they complete — so that series is left to the
/// threaded engine.
struct SimObs {
    lat: Vec<HistHandle>,
    stale: Vec<HistHandle>,
    h2d: Vec<HistHandle>,
    d2h: Vec<HistHandle>,
}

impl SimObs {
    fn new(hub: &MetricsHub, workers: usize) -> Self {
        let per = |m: Metric| -> Vec<HistHandle> {
            (0..workers).map(|w| hub.histogram(m, w as u32)).collect()
        };
        SimObs {
            lat: per(Metric::BatchLatency),
            stale: per(Metric::Staleness),
            h2d: per(Metric::H2d),
            d2h: per(Metric::D2h),
        }
    }
}

/// One scheduled simulator event. Serialized as-is into checkpoints:
/// in-flight completions carry their full model snapshot, because the
/// gradient a resumed run computes for them must come from the exact same
/// weights the original schedule assigned, or bit-identity is lost.
#[derive(Clone, Serialize, Deserialize)]
enum Ev {
    Complete {
        /// Lineage id stamped on the batch's dispatch/start/complete events.
        id: u64,
        worker: usize,
        range: BatchRange,
        snapshot: Model,
        /// Global update count when the snapshot was taken — the gradient's
        /// staleness is measured against this (§VI-B).
        updates_at_snapshot: u64,
        /// Modeled phase breakdown, fixed at assignment time from the same
        /// cost formulas that set the completion's virtual latency.
        phases: BatchPhases,
    },
    Eval,
}

/// One pending event at its scheduled virtual time. Stored in pop order;
/// re-scheduling in this order reproduces the queue's tie-breaking exactly
/// (see [`EventQueue::pending_in_order`]).
#[derive(Serialize, Deserialize)]
struct PendingEv {
    at: f64,
    ev: Ev,
}

/// Per-worker counters a resumed run must continue from (the watchdog's
/// per-layer step numbers and the fault plan's `death_after`/`poison_at`
/// sites key off `batches`).
#[derive(Serialize, Deserialize)]
struct SimWorkerCkpt {
    updates: f64,
    batches: u64,
    examples: u64,
    retired: Option<String>,
}

/// Everything a [`SimEngine`] run is, frozen at one virtual instant.
///
/// Deliberately exhaustive: model weights, the adaptive controller, the
/// batch-schedule cursor, the SVRG anchor pair, the loss curve so far,
/// eval cadence state, per-worker counters, watchdog tallies, and every
/// in-flight event (with its model snapshot). Restoring this state and
/// re-running the event loop continues the original run bit-identically —
/// the property `crates/ckpt/tests` locks in.
#[derive(Serialize, Deserialize)]
struct SimCkptState {
    schema: String,
    t: f64,
    model: Model,
    controller: AdaptiveController,
    scheduler: BatchScheduler,
    global_updates: u64,
    anchor: Option<(Model, Model)>,
    curve: Vec<LossPoint>,
    last_epoch_evaled: usize,
    last_eval_time: f64,
    workers: Vec<SimWorkerCkpt>,
    pending: Vec<PendingEv>,
    watchdog: WatchdogState,
}

/// Schema tag sanity-checked at restore so a checkpoint from a different
/// engine (or a future incompatible layout) is rejected instead of
/// half-applied.
const SIM_CKPT_SCHEMA: &str = "hetero-sim-ckpt/v1";

/// The discrete-event engine.
pub struct SimEngine {
    cfg: SimEngineConfig,
}

impl SimEngine {
    /// Build an engine; validates the configuration.
    pub fn new(cfg: SimEngineConfig) -> Result<Self, String> {
        cfg.train.validate()?;
        cfg.spec.validate()?;
        if cfg.train.algorithm.uses_gpu() && cfg.gpus.is_empty() {
            return Err("algorithm needs a GPU but none configured".into());
        }
        Ok(SimEngine { cfg })
    }

    /// Train on `dataset` with `obs` attached, returning the full metrics
    /// record. With [`Observers::default`] nothing is observed.
    ///
    /// - **Trace:** events are stamped with **virtual** simulation
    ///   seconds — the engine publishes its clock to the sink at every
    ///   event-loop step, and dispatch events carry their exact schedule
    ///   time — so the sink should be [`TraceSink::virtual_time`].
    /// - **Metrics:** per-worker batch-latency, transfer and staleness
    ///   histograms (virtual-time durations) plus the live dashboard
    ///   gauges flow out while the run progresses.
    /// - **Flight recorder:** the watchdog scans every applied gradient for
    ///   per-layer norms and NaN/±Inf, watches the loss curve for
    ///   divergence/stall at every eval, and enforces its
    ///   [`hetero_flight::HealthPolicy`] (warn / clamp the adaptive
    ///   controller / abort with a postmortem).
    /// - **Checkpointer:** at its cadence (virtual seconds) the engine
    ///   freezes its complete state — model, adaptive controller, schedule
    ///   cursor, SVRG anchor, loss curve, per-worker counters, watchdog
    ///   tallies, and every in-flight event with its model snapshot — and
    ///   publishes it atomically. With `resume: true` the run loads the
    ///   newest valid generation and **continues the original run
    ///   bit-identically**: pending events are re-scheduled in pop order,
    ///   so even same-instant ties break as they would have.
    ///
    /// Observation never feeds back into the virtual schedule, so only an
    /// explicit health *action* (clamp, abort) changes the run.
    pub fn run(&self, dataset: &DenseDataset, obs: &Observers) -> TrainResult {
        let devices = self.devices();
        let kinds: Vec<WorkerKind> = devices.iter().map(Device::kind).collect();
        let coord = Coordinator::new(
            obs,
            RunInfo {
                engine: "sim",
                algorithm: self.cfg.train.algorithm.label().to_string(),
                dataset: dataset.name.clone(),
                kinds: &kinds,
                train: &self.cfg.train,
                domain: TimeDomain::Virtual,
            },
        );
        // Pin the GEMM fan-out to `train.rayon_threads` (0 = host cores)
        // for the whole run; the sim is single-coordinator, so the only
        // oversubscription possible is the pool itself exceeding the host.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.cfg.train.rayon_threads)
            .build()
            .expect("sim gemm pool");
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        coord
            .sink
            .counter("engine.pool_oversubscription")
            .add(pool.current_num_threads().saturating_sub(host) as u64);
        pool.install(|| self.run_inner(dataset, &devices, coord))
    }

    /// [`SimEngine::run`] with only a trace sink and a metrics hub
    /// attached.
    pub fn run_observed(
        &self,
        dataset: &DenseDataset,
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

    /// Worker devices: the CPU first (if used), then every GPU.
    fn devices(&self) -> Vec<Device> {
        let algo = self.cfg.train.algorithm;
        let mut devices: Vec<Device> = Vec::new();
        if algo.uses_cpu() {
            devices.push(Device::Cpu(self.cfg.cpu.clone()));
        }
        if algo.uses_gpu() {
            for g in &self.cfg.gpus {
                devices.push(Device::Gpu(g.clone()));
            }
        }
        devices
    }

    fn run_inner(
        &self,
        dataset: &DenseDataset,
        devices: &[Device],
        mut coord: Coordinator<'_>,
    ) -> TrainResult {
        let cfg = &self.cfg;
        let train = &cfg.train;
        let spec = &cfg.spec;
        assert_eq!(
            dataset.features(),
            spec.input_dim,
            "dataset features != network input_dim"
        );
        let sink = &coord.sink.clone();
        let mut stats: Vec<WorkerStats> =
            devices.iter().map(|d| WorkerStats::new(d.kind())).collect();

        // Sparse staging source: compress the feature matrix once per run so
        // lanes slice CSR batches in O(nnz) instead of rescanning the dense
        // matrix per batch (O(batch × features) regardless of density).
        let csr_data: Option<CsrMatrix> = train.sparse_input.then(|| dataset.to_csr());
        let mut eval_timeline = UtilizationTimeline::new();
        let obs = SimObs::new(coord.hub, devices.len());

        // --- Batch-size controller ---------------------------------------------
        let example_bytes = 4 * spec.input_dim as u64;
        let param_bytes = spec.param_bytes();
        let mut controller =
            self.build_controller(devices, dataset.len(), example_bytes, param_bytes);

        // --- Model, schedule, eval subset --------------------------------------
        let mut model = Model::new(spec.clone(), train.init, train.seed);
        let watchdog = coord.watchdog.clone();
        watchdog.ensure_layers(model.layers().len());
        // Watchdog scratch: per-layer sumsq / non-finite counts of each
        // applied gradient, reused across every event.
        let mut health_scan = MergeScan::for_model(&model);
        let mut scheduler = BatchScheduler::new(dataset.len(), train.max_epochs);
        let eval_set = EvalSet::subset(dataset, train.eval_subsample, train.seed, false);

        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut global_updates: u64 = 0;
        // Hybrid SVRG anchor: the latest GPU large-batch (model, gradient)
        // pair — the "compass" CPU updates correct against (§II).
        let mut anchor: Option<(Model, Model)> = None;
        // Reused gradient-lane buffers (see `SimScratch`): warmed during
        // the first events, allocation-free thereafter.
        let mut scratch = SimScratch::new(spec);
        let budget = train.time_budget;
        let timeline_rejects = sink.counter("engine.timeline_rejects");

        let mut measure = |t: f64, epochs: f64, model: &Model| -> LossPoint {
            let (loss, accuracy) = eval_set.measure(model);
            // The paper runs the loss evaluation on the GPU at epoch end,
            // which shows up as a utilization spike (Figure 7). Account it
            // on a dedicated timeline to avoid perturbing worker schedules.
            if let Some(g) = cfg.gpus.first() {
                let fwd = spec.forward_flops_per_example();
                let dur = g.batch_time(fwd, eval_set.rows());
                let start = t.max(eval_timeline.horizon());
                if eval_timeline.try_record(start, start + dur, 1.0).is_err() {
                    timeline_rejects.add(1);
                }
            }
            LossPoint {
                time: t,
                epochs,
                loss,
                accuracy,
            }
        };

        let mut last_epoch_evaled = 0usize;
        let mut last_eval_time = 0.0f64;

        // --- Resume from the newest valid checkpoint ----------------------------
        // Replaces the freshly initialized state wholesale. The worker-count
        // guard rejects a checkpoint from a differently shaped run (the
        // schema tag already rejects other engines' checkpoints).
        let resume: Option<SimCkptState> = coord
            .ckpt
            .resume_state::<SimCkptState>()
            .filter(|s| s.schema == SIM_CKPT_SCHEMA && s.workers.len() == devices.len());
        let resumed = resume.is_some();
        if let Some(s) = resume {
            model = s.model;
            controller = s.controller;
            scheduler = s.scheduler;
            global_updates = s.global_updates;
            anchor = s.anchor;
            coord.curve = s.curve;
            last_epoch_evaled = s.last_epoch_evaled;
            last_eval_time = s.last_eval_time;
            for (stat, w) in stats.iter_mut().zip(&s.workers) {
                stat.updates = w.updates;
                stat.batches = w.batches;
                stat.examples = w.examples;
                stat.retired = w.retired.clone();
            }
            watchdog.restore_state(&s.watchdog);
            // Re-schedule the in-flight events in pop order: fresh monotone
            // sequence numbers preserve the original tie-breaking, so the
            // continuation is bit-identical to the uninterrupted run.
            for p in s.pending {
                if let Ev::Complete { id, .. } = &p.ev {
                    coord.reserve_batch_id(*id);
                }
                queue.schedule_at(p.at, p.ev);
            }
            coord.mark_resumed(s.t);
        } else {
            // Initial loss (identical across algorithms per §VII-A).
            coord.first_eval(measure(0.0, 0.0, &model));
        }

        // --- Kick off every worker ---------------------------------------------
        // A resumed run's workers are already in flight (their completion
        // events came back with the checkpoint), so the kickoff is fresh
        // starts only.
        if !resumed {
            for (w, device) in devices.iter().enumerate() {
                self.assign(
                    w,
                    device,
                    &mut coord,
                    &mut controller,
                    &mut scheduler,
                    &model,
                    &mut queue,
                    &mut stats,
                    global_updates,
                    &timeline_rejects,
                    &obs,
                );
            }
            queue.schedule_at(train.eval_interval.min(budget), Ev::Eval);
        }

        // Evaluations are throttled so that datasets small enough to finish
        // an epoch every few events do not flood the curve.
        let min_eval_spacing = train.eval_interval * 0.25;

        // --- Event loop ---------------------------------------------------------
        loop {
            // Periodic crash-consistency checkpoint, captured *between*
            // events — the only instants at which the queue's pending set
            // plus the coordinator state is the complete run state. The
            // capture reads everything and mutates nothing, so the
            // schedule and the math are untouched whether or not a
            // checkpoint is written.
            if coord.ckpt.due(queue.now()) {
                let state = SimCkptState {
                    schema: SIM_CKPT_SCHEMA.to_string(),
                    t: queue.now(),
                    model: model.clone(),
                    controller: controller.clone(),
                    scheduler: scheduler.clone(),
                    global_updates,
                    anchor: anchor.clone(),
                    curve: coord.curve.clone(),
                    last_epoch_evaled,
                    last_eval_time,
                    workers: stats
                        .iter()
                        .map(|s| SimWorkerCkpt {
                            updates: s.updates,
                            batches: s.batches,
                            examples: s.examples,
                            retired: s.retired.clone(),
                        })
                        .collect(),
                    pending: queue
                        .pending_in_order()
                        .into_iter()
                        .map(|(at, ev)| PendingEv { at, ev: ev.clone() })
                        .collect(),
                    watchdog: watchdog.export_state(),
                };
                coord.publish(state.t, &state);
            }
            let Some((t, ev)) = queue.pop() else { break };
            if t > budget || coord.aborting(t) {
                break;
            }
            // Publish the virtual clock so events emitted while handling
            // this step (merges, resizes, completions) are stamped at `t`.
            sink.set_virtual_now(t);
            match ev {
                Ev::Eval => {
                    let point = measure(t, scheduler.epochs_elapsed(), &model);
                    coord.eval(point, &mut controller, None);
                    last_eval_time = t;
                    let next = t + train.eval_interval;
                    if next <= budget {
                        queue.schedule_at(next, Ev::Eval);
                    }
                }
                Ev::Complete {
                    id,
                    worker,
                    range,
                    snapshot,
                    updates_at_snapshot,
                    phases,
                } => {
                    let staleness = global_updates.saturating_sub(updates_at_snapshot);
                    obs.stale[worker].record(staleness);
                    global_updates += self.apply_batch(
                        id,
                        worker,
                        &devices[worker],
                        &range,
                        &snapshot,
                        dataset,
                        csr_data.as_ref(),
                        &mut model,
                        &mut controller,
                        &mut stats,
                        staleness,
                        phases,
                        &mut anchor,
                        &mut scratch,
                        sink,
                        &watchdog,
                        &mut health_scan,
                    );
                    // Epoch-boundary loss evaluation (paper: "loss
                    // computation is always performed on the GPU at the
                    // end of the epoch").
                    if range.epoch >= last_epoch_evaled
                        && scheduler.epoch() > range.epoch
                        && t - last_eval_time >= min_eval_spacing
                    {
                        last_epoch_evaled = range.epoch + 1;
                        last_eval_time = t;
                        let point = measure(t, scheduler.epochs_elapsed(), &model);
                        coord.eval(point, &mut controller, None);
                    }
                    if sink.enabled() {
                        coord.publish_worker(worker, &stats[worker], controller.batch(worker));
                    }
                    self.assign(
                        worker,
                        &devices[worker],
                        &mut coord,
                        &mut controller,
                        &mut scheduler,
                        &model,
                        &mut queue,
                        &mut stats,
                        global_updates,
                        &timeline_rejects,
                        &obs,
                    );
                }
            }
        }

        // Final loss at the budget boundary.
        coord.record_eval(measure(budget, scheduler.epochs_elapsed(), &model));
        // The sim applies every update serially on the virtual clock, so no
        // Hogwild write is ever lost: the measured serialization rate is
        // exactly 1 (the paper's idealized β). The sim loses no in-flight
        // work on an injected death (the worker dies at assignment time),
        // so nothing is re-queued.
        let measured_beta = train.measured_beta.then_some(1.0);
        let epochs = scheduler.epochs_elapsed();
        let mut result = coord.finish(stats, &controller, budget, epochs, measured_beta);
        // The epoch-end loss evaluations run on the GPU (§VII-B) but must
        // not perturb the worker schedules, so they live on a dedicated
        // timeline appended as a zero-update pseudo-worker.
        let eval_summary = TimelineSummary::from_timeline(&eval_timeline);
        result.workers.push(WorkerStats {
            kind: WorkerKind::Gpu,
            updates: 0.0,
            batches: 0,
            examples: 0,
            final_batch: 0,
            retired: None,
            timeline: eval_timeline,
            timeline_summary: eval_summary,
        });
        result
    }

    /// Coordinator `ScheduleWork`: compute the batch size, extract a range,
    /// snapshot the model, and schedule the completion event.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &self,
        worker: usize,
        device: &Device,
        coord: &mut Coordinator<'_>,
        controller: &mut AdaptiveController,
        scheduler: &mut BatchScheduler,
        model: &Model,
        queue: &mut EventQueue<Ev>,
        stats: &mut [WorkerStats],
        global_updates: u64,
        timeline_rejects: &CounterHandle,
        obs: &SimObs,
    ) {
        if queue.now() >= self.cfg.train.time_budget {
            return;
        }
        if stats[worker].retired.is_some() {
            return;
        }
        // Injected death: the worker completed its allotted batches and
        // never asks for work again — the simulated analogue of the
        // threaded engine's quarantine (survivors keep the run alive).
        if let Some(k) = self.cfg.fault_plan.death_after(worker) {
            if stats[worker].batches >= k {
                let reason = format!("injected death after {k} batches");
                let sink = &coord.sink;
                if sink.enabled() {
                    sink.emit(
                        worker as u32,
                        EventKind::WorkerFault {
                            reason: reason.clone(),
                        },
                    );
                    sink.emit(
                        worker as u32,
                        EventKind::WorkerRetired {
                            reason: reason.clone(),
                        },
                    );
                }
                sink.counter("engine.faults").add(1);
                stats[worker].retired = Some(reason);
                return;
            }
        }
        let start = queue.now();
        let Some((id, range)) = coord.dispatch(worker, start, controller, scheduler) else {
            return; // epoch budget exhausted
        };
        let cost = self.batch_cost(device, range.len());
        // The virtual clock decides latency, so the histogram is filled at
        // assignment time with the modeled cost; GPU transfer components
        // use the same formulas as `batch_cost`. The phase breakdown comes
        // from the same decomposition: GPU cost = compute + replica
        // transfers (merge is the apply inside compute in this model), CPU
        // cost is pure lane compute.
        obs.lat[worker].record_secs(cost);
        let mut phases = BatchPhases {
            compute_secs: cost,
            ..BatchPhases::default()
        };
        if let Device::Gpu(g) = device {
            let batch_bytes = (4 * self.cfg.spec.input_dim * range.len()) as u64;
            let model_bytes = self.cfg.spec.param_bytes();
            let h2d = g.transfer_time(batch_bytes) + g.transfer_time(model_bytes);
            let d2h = g.transfer_time(model_bytes);
            obs.h2d[worker].record_secs(h2d);
            obs.d2h[worker].record_secs(d2h);
            phases.transfer_secs = h2d + d2h;
            phases.compute_secs = (cost - phases.transfer_secs).max(0.0);
        }
        if stats[worker]
            .timeline
            .try_record(start, start + cost, device.busy_utilization(range.len()))
            .is_err()
        {
            timeline_rejects.add(1);
        }
        queue.schedule_after(
            cost,
            Ev::Complete {
                id,
                worker,
                range,
                snapshot: model.clone(),
                updates_at_snapshot: global_updates,
                phases,
            },
        );
    }

    /// Virtual cost of one batch on a device, including the GPU deep-copy
    /// replica transfers and the TensorFlow comparator overheads.
    fn batch_cost(&self, device: &Device, batch: usize) -> f64 {
        let spec = &self.cfg.spec;
        let fpe = spec.train_flops_per_example();
        match device {
            Device::Cpu(c) => {
                let t = c.batch_time(fpe, batch);
                if self.cfg.train.algorithm == AlgorithmKind::HybridSvrg {
                    // SVRG correction doubles the CPU gradient work:
                    // ∇f_i(w) and ∇f_i(ŵ) per sub-batch.
                    2.0 * t
                } else {
                    t
                }
            }
            Device::Gpu(g) => {
                let batch_bytes = (4 * spec.input_dim * batch) as u64;
                // Deep-copy replica: model in (H2D) + model out (D2H), §VI-B.
                let model_bytes = spec.param_bytes();
                let mut t = g.batch_time(fpe, batch)
                    + g.transfer_time(batch_bytes)
                    + 2.0 * g.transfer_time(model_bytes);
                if self.cfg.train.algorithm == AlgorithmKind::TensorFlow {
                    // Op-granularity scheduling: ~8 primitives per layer
                    // per step, each paying a dispatch overhead.
                    let ops = 8.0 * spec.num_layers() as f64;
                    t += ops * self.cfg.tf_op_overhead;
                    if spec.loss == hetero_nn::LossKind::MultiLabelBce {
                        t *= self.cfg.tf_multilabel_penalty;
                    }
                }
                t
            }
        }
    }

    /// `ExecuteWork` completion: compute the gradient(s) on the snapshot
    /// and apply them to the live model. Returns the number of raw updates
    /// applied (for global staleness accounting).
    // audit: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn apply_batch(
        &self,
        id: u64,
        worker: usize,
        device: &Device,
        range: &BatchRange,
        snapshot: &Model,
        dataset: &DenseDataset,
        csr_data: Option<&CsrMatrix>,
        model: &mut Model,
        controller: &mut AdaptiveController,
        stats: &mut [WorkerStats],
        staleness: u64,
        phases: BatchPhases,
        anchor: &mut Option<(Model, Model)>,
        scratch: &mut SimScratch,
        sink: &TraceSink,
        watchdog: &Watchdog,
        scan: &mut MergeScan,
    ) -> u64 {
        let train = &self.cfg.train;
        // Injected fault: one NaN into this worker's first applied gradient
        // at the planned step (0-based batch counter, like `death_after`).
        let mut poison_pending =
            self.cfg.fault_plan.poison_at(worker) == Some(stats[worker].batches);
        // §VI-B staleness compensation: discount the learning rate for
        // gradients computed on an old snapshot.
        let discount = 1.0 / (1.0 + train.staleness_discount * staleness as f32);
        match device {
            Device::Cpu(c) => {
                // Algorithm 2 CPU worker: split into t sub-batches, one
                // Hogwild update each, all computed on the snapshot
                // (maximum intra-batch staleness — the conservative model).
                let t = c.threads;
                let total = range.len();
                let sub = total.div_ceil(t);
                scratch.sub_ranges.clear();
                for i in 0..t {
                    let s = range.start + i * sub;
                    let e = (s + sub).min(range.end);
                    if e > s {
                        scratch.sub_ranges.push((s, e));
                    }
                }
                let svrg_anchor = if train.algorithm == AlgorithmKind::HybridSvrg {
                    anchor.as_ref()
                } else {
                    None
                };
                // Hogwild threads read the live model *during* their
                // sub-batch, so the effective staleness is far finer than
                // one whole coordinator batch. Model that by processing the
                // sub-batches in waves: each wave's gradients are computed
                // on the model as updated by the previous waves (the first
                // wave sees the batch snapshot), bounding the intra-batch
                // divergence by a wave rather than the full batch.
                const WAVE: usize = 8;
                let mut n_updates = 0usize;
                // Split the scratch borrows: the wave loop iterates the
                // range list while mutating the lanes and the base model.
                let SimScratch {
                    lanes,
                    base: wave_base,
                    sub_ranges,
                    ..
                } = scratch;
                wave_base.copy_from(snapshot);
                for wave in sub_ranges.chunks(WAVE) {
                    // Lanes are created during warm-up only; afterwards
                    // every buffer in them is reused (chunk size 1 gives
                    // lane i exclusive ownership of lanes[i]).
                    while lanes.len() < wave.len() {
                        lanes.push(SimLane::new(model.spec()));
                    }
                    let base = &*wave_base;
                    lanes[..wave.len()]
                        .par_chunks_mut(1)
                        .enumerate()
                        .for_each(|(i, lane)| {
                            let lane = &mut lane[0];
                            let (s, e) = wave[i];
                            lane.batch.stage(dataset, csr_data, s, e);
                            lane.batch.gradient(&mut lane.ws, base, false);
                            if let Some((anchor_model, mu)) = svrg_anchor {
                                // SVRG-corrected direction against the
                                // most recent GPU anchor:
                                // ∇f_i(w) − ∇f_i(ŵ) + μ̂.
                                lane.batch
                                    .gradient(&mut lane.anchor_ws, anchor_model, false);
                                lane.dir.copy_from(lane.ws.grad());
                                lane.dir.scaled_add(lane.anchor_ws.grad(), -1.0);
                                lane.dir.scaled_add(mu, 1.0);
                            }
                        });
                    n_updates += wave.len();
                    for (i, &(s, e)) in wave.iter().enumerate() {
                        let lane = &mut lanes[i];
                        let eta = train.lr_scaling.eta(train.lr, e - s) * discount;
                        let g: &mut Gradient = if svrg_anchor.is_some() {
                            &mut lane.dir
                        } else {
                            lane.ws.grad_mut()
                        };
                        if let Some(c) = train.grad_clip {
                            g.clip_to_norm(c);
                        }
                        if poison_pending {
                            poison_pending = false;
                            g.layers_mut()[0].b[0] = f32::NAN;
                        }
                        scan_gradient(watchdog, worker, stats[worker].batches, g, scan);
                        if train.weight_decay > 0.0 {
                            model.scale(1.0 - eta * train.weight_decay);
                        }
                        if train.sparse_input && svrg_anchor.is_none() {
                            // Row-sparse apply: only the layer-0 columns
                            // the batch touched (plus biases + dense tail).
                            // The SVRG direction mixes in the dense anchor
                            // term, so it keeps the dense apply.
                            model.apply_gradient_sparse(
                                lane.ws.grad(),
                                eta,
                                lane.ws.sparse_active_cols(),
                            );
                        } else {
                            model.apply_gradient(g, eta);
                        }
                    }
                    wave_base.copy_from(model);
                }
                if sink.enabled() {
                    sink.emit(
                        worker as u32,
                        EventKind::BatchCompleted {
                            id,
                            batch: total,
                            updates: n_updates,
                            phases,
                        },
                    );
                }
                let credited = n_updates as f64 * train.adaptive.beta;
                controller.report_updates(worker, credited);
                stats[worker].updates += credited;
                stats[worker].batches += 1;
                stats[worker].examples += total as u64;
                n_updates as u64
            }
            Device::Gpu(_) => {
                let lane = &mut scratch.gpu;
                lane.batch.stage(dataset, csr_data, range.start, range.end);
                lane.batch.gradient(&mut lane.ws, snapshot, true);
                if let Some(c) = train.grad_clip {
                    lane.ws.grad_mut().clip_to_norm(c);
                }
                if poison_pending {
                    lane.ws.grad_mut().layers_mut()[0].b[0] = f32::NAN;
                }
                scan_gradient(
                    watchdog,
                    worker,
                    stats[worker].batches,
                    lane.ws.grad(),
                    scan,
                );
                let eta = train.lr_scaling.eta(train.lr, range.len()) * discount;
                if train.weight_decay > 0.0 {
                    model.scale(1.0 - eta * train.weight_decay);
                }
                if train.sparse_input {
                    model.apply_gradient_sparse(lane.ws.grad(), eta, lane.ws.sparse_active_cols());
                } else {
                    model.apply_gradient(lane.ws.grad(), eta);
                }
                if train.algorithm == AlgorithmKind::HybridSvrg {
                    // The accurate large-batch gradient becomes the new
                    // variance-reduction anchor for CPU workers. The anchor
                    // pair is allocated on the first GPU merge only;
                    // afterwards its buffers are reused in place.
                    match anchor {
                        Some((anchor_model, mu)) => {
                            anchor_model.copy_from(snapshot);
                            mu.copy_from(lane.ws.grad());
                        }
                        None => *anchor = Some((snapshot.clone(), lane.ws.grad().clone())),
                    }
                }
                if sink.enabled() {
                    // The simulated GPU merge is the staleness-discounted
                    // apply of the deep-copy replica's gradient (§VI-B).
                    sink.emit(
                        worker as u32,
                        EventKind::ModelMerge {
                            scale: discount as f64,
                            id: Some(id),
                        },
                    );
                    sink.emit(
                        worker as u32,
                        EventKind::BatchCompleted {
                            id,
                            batch: range.len(),
                            updates: 1,
                            phases,
                        },
                    );
                }
                controller.report_updates(worker, 1.0);
                stats[worker].updates += 1.0;
                stats[worker].batches += 1;
                stats[worker].examples += range.len() as u64;
                1
            }
        }
    }

    /// Build the per-algorithm batch-size controller.
    fn build_controller(
        &self,
        devices: &[Device],
        n: usize,
        example_bytes: u64,
        param_bytes: u64,
    ) -> AdaptiveController {
        let train = &self.cfg.train;
        let p = &train.adaptive;
        let adapt = train.algorithm.is_adaptive();
        // Omnivore-style sizing (§II): pick the CPU batch so that, per the
        // *pre-execution estimate*, the CPU finishes a batch in the same
        // time the GPU takes for its configured batch. Computed once here
        // and frozen thereafter — exactly the criticism the paper levels.
        let proportional_cpu_batch = |c: &CpuModel| -> usize {
            let fpe = self.cfg.spec.train_flops_per_example();
            let t_gpu = self
                .cfg
                .gpus
                .first()
                .map(|g| g.batch_time(fpe, train.gpu_batch.min(n.max(1))))
                .unwrap_or(0.0);
            let mut b = c.threads.max(1);
            while b < n.max(1) && c.batch_time(fpe, b * 2) <= t_gpu {
                b *= 2;
            }
            b.min(n.max(1))
        };
        let states: Vec<WorkerBatchState> = devices
            .iter()
            .map(|d| match d {
                Device::Cpu(c) => {
                    if adapt {
                        // Paper: CPU starts at the lower threshold
                        // (1 example per thread = Hogwild).
                        let min_b = p.cpu_min_batch.max(c.threads).min(n.max(1));
                        let max_b = p.cpu_max_batch.max(min_b);
                        WorkerBatchState::new(min_b, min_b, max_b)
                    } else if train.algorithm == AlgorithmKind::StaticProportional {
                        let b = proportional_cpu_batch(c).max(1);
                        WorkerBatchState::new(b, b, b)
                    } else {
                        let b = (train.cpu_batch_per_thread * c.threads)
                            .min(n.max(1))
                            .max(1);
                        WorkerBatchState::new(b, b, b)
                    }
                }
                Device::Gpu(g) => {
                    // §VI-B: device memory bounds the batch size.
                    let mem_cap = g
                        .max_batch(
                            example_bytes + 8 * self.cfg.spec.hidden.iter().sum::<usize>() as u64,
                            param_bytes,
                        )
                        .max(1);
                    if adapt {
                        let max_b = p.gpu_max_batch.min(mem_cap).max(1);
                        let min_b = p.gpu_min_batch.min(max_b).max(1);
                        // Paper: GPU starts at the upper threshold.
                        WorkerBatchState::new(max_b, min_b, max_b)
                    } else {
                        let b = train.gpu_batch.min(mem_cap).max(1);
                        WorkerBatchState::new(b, b, b)
                    }
                }
            })
            .collect();
        AdaptiveController::new(p.alpha, adapt, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptiveParams, LrScaling};
    use hetero_data::SynthConfig;
    use hetero_trace::COORDINATOR;

    /// One unobserved run of `cfg`.
    fn run(cfg: SimEngineConfig, data: &DenseDataset) -> TrainResult {
        SimEngine::new(cfg)
            .unwrap()
            .run(data, &Observers::default())
    }

    /// Small hardware so tests run fast: 4-thread CPU, toy GPU 100× faster.
    fn tiny_hardware() -> (CpuModel, GpuModel) {
        let cpu = CpuModel {
            name: "tiny-cpu".into(),
            threads: 4,
            hw_threads: 4,
            flops_small: 1e9,
            flops_large: 8e9,
            batch_half: 8.0,
            dispatch_overhead: 20e-6,
            memory: 1 << 30,
        };
        let gpu = GpuModel {
            name: "tiny-gpu".into(),
            peak_flops: 1e12,
            occupancy_half_batch: 64.0,
            launch_overhead: 20e-6,
            transfer_latency: 5e-6,
            transfer_bandwidth: 12e9,
            memory: 1 << 30,
        };
        (cpu, gpu)
    }

    fn tiny_config(algo: AlgorithmKind, budget: f64) -> SimEngineConfig {
        let (cpu, gpu) = tiny_hardware();
        let spec = MlpSpec::tiny(10, 2);
        let train = TrainConfig {
            init: hetero_nn::InitScheme::Xavier,
            algorithm: algo,
            lr: 0.05,
            lr_scaling: LrScaling::Sqrt {
                ref_batch: 1,
                max_lr: 0.5,
            },
            cpu_batch_per_thread: 1,
            gpu_batch: 256,
            adaptive: AdaptiveParams {
                alpha: 2.0,
                beta: 1.0,
                cpu_min_batch: 4,
                cpu_max_batch: 256,
                gpu_min_batch: 32,
                gpu_max_batch: 256,
            },
            time_budget: budget,
            max_epochs: None,
            grad_clip: None,
            weight_decay: 0.0,
            staleness_discount: 0.0,
            rayon_threads: 0,
            measured_beta: false,
            sparse_input: false,
            eval_interval: budget / 10.0,
            eval_subsample: 256,
            ckpt_interval: None,
            ckpt_retain: 2,
            seed: 7,
        };
        SimEngineConfig {
            spec,
            train,
            cpu,
            gpus: vec![gpu],
            tf_op_overhead: 20e-6,
            tf_multilabel_penalty: 3.0,
            fault_plan: FaultPlan::none(),
        }
    }

    fn tiny_dataset() -> DenseDataset {
        let mut cfg = SynthConfig::small(600, 10, 2, 3);
        cfg.separability = 3.0;
        let mut d = cfg.generate();
        d.standardize();
        d
    }

    #[test]
    fn deterministic_runs() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        let r1 = run(cfg.clone(), &data);
        let r2 = run(cfg, &data);
        assert_eq!(r1.loss_curve.len(), r2.loss_curve.len());
        for (a, b) in r1.loss_curve.iter().zip(&r2.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        assert_eq!(r1.total_updates(), r2.total_updates());
    }

    #[test]
    fn sparse_runs_are_deterministic_and_converge() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        cfg.train.sparse_input = true;
        let r1 = run(cfg.clone(), &data);
        let r2 = run(cfg, &data);
        assert_eq!(r1.loss_curve.len(), r2.loss_curve.len());
        for (a, b) in r1.loss_curve.iter().zip(&r2.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        assert!(r1.final_loss() < r1.initial_loss(), "{:?}", r1.loss_curve);
    }

    #[test]
    fn sparse_path_reaches_dense_loss_on_real_sim_shape() {
        // The convergence target of the ISSUE: on real-sim-shaped data
        // (extreme width, ~0.25% density) the sparse path must reach the
        // dense path's final loss — same optimization, cheaper arithmetic.
        let data = hetero_data::PaperDataset::RealSim.generate(0.01, 42);
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        cfg.spec = MlpSpec::tiny(data.features(), data.num_classes());
        let dense = run(cfg.clone(), &data);
        cfg.train.sparse_input = true;
        let sparse = run(cfg, &data);
        assert!(dense.final_loss() < dense.initial_loss());
        assert!(sparse.final_loss() < sparse.initial_loss());
        // Equal-or-better target up to per-step rounding drift (the sparse
        // kernels accumulate in a different order than the dense GEMM).
        assert!(
            sparse.final_loss() <= dense.final_loss() * 1.05 + 1e-3,
            "sparse {} vs dense {}",
            sparse.final_loss(),
            dense.final_loss()
        );
    }

    #[test]
    fn checkpointed_run_is_untouched_and_resume_is_bit_identical() {
        use hetero_ckpt::{Checkpointer, CkptConfig};
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.02);
        let dir = std::env::temp_dir().join(format!("hetero-sim-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: the uninterrupted run.
        let baseline = run(cfg.clone(), &data);

        // Checkpointing on: the run itself must be bit-identical to the
        // baseline (observation never feeds back into the schedule).
        let writer = Observers {
            ckpt: Checkpointer::new(CkptConfig {
                dir: dir.clone(),
                interval: 0.004,
                retain: 3,
                resume: false,
            })
            .unwrap(),
            ..Observers::default()
        };
        let checked = SimEngine::new(cfg.clone()).unwrap().run(&data, &writer);
        assert_eq!(baseline.loss_curve, checked.loss_curve);
        assert!(writer.ckpt.latest_path().is_some(), "no checkpoint written");

        // Resume from the newest mid-run generation: the continued curve
        // must equal the uninterrupted one bit-for-bit.
        let reader = Observers {
            ckpt: Checkpointer::new(CkptConfig {
                dir: dir.clone(),
                interval: 0.004,
                retain: 3,
                resume: true,
            })
            .unwrap(),
            ..Observers::default()
        };
        let resumed = SimEngine::new(cfg).unwrap().run(&data, &reader);
        assert_eq!(baseline.loss_curve, resumed.loss_curve);
        assert_eq!(baseline.epochs, resumed.epochs);
        // Worker counters continue, not restart.
        for (a, b) in baseline.workers.iter().zip(&resumed.workers) {
            assert_eq!(a.batches, b.batches);
            assert_eq!(a.examples, b.examples);
            assert_eq!(a.updates, b.updates);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_algorithm_reduces_loss() {
        let data = tiny_dataset();
        for algo in AlgorithmKind::all() {
            let budget = if algo == AlgorithmKind::HogwildCpu {
                0.1
            } else {
                0.05
            };
            let cfg = tiny_config(algo, budget);
            let r = run(cfg, &data);
            assert!(
                r.final_loss() < r.initial_loss(),
                "{}: {} -> {}",
                algo.label(),
                r.initial_loss(),
                r.final_loss()
            );
            assert!(r.loss_curve.iter().all(|p| p.loss.is_finite()));
        }
    }

    #[test]
    fn gpu_only_algorithms_have_no_cpu_updates() {
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::MiniBatchGpu, 0.02), &data);
        assert_eq!(r.cpu_update_fraction(), 0.0);
        assert!(r.total_updates() > 0.0);
    }

    #[test]
    fn cpu_only_algorithm_has_only_cpu_updates() {
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::HogwildCpu, 0.05), &data);
        assert_eq!(r.cpu_update_fraction(), 1.0);
    }

    #[test]
    fn cpu_gpu_hogbatch_cpu_dominates_updates() {
        // Figure 8: with static small CPU / large GPU batches, CPU updates
        // dominate (many cheap sub-updates vs few big batches).
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05), &data);
        assert!(
            r.cpu_update_fraction() > 0.5,
            "cpu fraction {}",
            r.cpu_update_fraction()
        );
    }

    #[test]
    fn adaptive_balances_updates_vs_static() {
        let data = tiny_dataset();
        let stat = run(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05), &data);
        let adap = run(tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.05), &data);
        // Adaptive moves the distribution toward uniform (Figure 8).
        let d_static = (stat.cpu_update_fraction() - 0.5).abs();
        let d_adaptive = (adap.cpu_update_fraction() - 0.5).abs();
        assert!(
            d_adaptive <= d_static + 0.05,
            "adaptive {} static {}",
            adap.cpu_update_fraction(),
            stat.cpu_update_fraction()
        );
    }

    #[test]
    fn adaptive_gpu_batch_shrinks_below_max() {
        // Figure 7: the adaptive GPU batch decreases toward the lower
        // threshold, reducing utilization.
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.05), &data);
        let gpu = r
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::Gpu && w.batches > 0)
            .expect("gpu worker");
        assert!(
            gpu.final_batch < 256,
            "gpu batch stayed at max ({})",
            gpu.final_batch
        );
    }

    #[test]
    fn tf_slower_than_plain_gpu_per_epoch() {
        let data = tiny_dataset();
        let gpu = run(tiny_config(AlgorithmKind::MiniBatchGpu, 0.02), &data);
        let tf = run(tiny_config(AlgorithmKind::TensorFlow, 0.02), &data);
        assert!(
            tf.epochs < gpu.epochs,
            "TF epochs {} !< GPU epochs {}",
            tf.epochs,
            gpu.epochs
        );
    }

    #[test]
    fn utilization_timelines_recorded() {
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02), &data);
        for w in &r.workers {
            if w.batches > 0 {
                assert!(
                    w.timeline.busy_time() > 0.0,
                    "{:?} has empty timeline",
                    w.kind
                );
                // Busy time cannot exceed the run duration.
                assert!(w.timeline.horizon() <= r.duration * 1.5);
            }
        }
    }

    #[test]
    fn loss_curve_time_monotone() {
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03), &data);
        for pair in r.loss_curve.windows(2) {
            assert!(pair[1].time >= pair[0].time);
            assert!(pair[1].epochs >= pair[0].epochs);
        }
        assert!(r.loss_curve.len() >= 3);
    }

    #[test]
    fn max_epochs_caps_training() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::MiniBatchGpu, 10.0);
        cfg.train.max_epochs = Some(2);
        let r = run(cfg, &data);
        assert!(r.epochs <= 2.01, "epochs {}", r.epochs);
    }

    #[test]
    fn rejects_gpu_algorithm_without_gpu() {
        let mut cfg = tiny_config(AlgorithmKind::MiniBatchGpu, 1.0);
        cfg.gpus.clear();
        assert!(SimEngine::new(cfg).is_err());
    }

    #[test]
    fn static_proportional_solves_for_equal_batch_times() {
        // Omnivore-style sizing: the engine must pick the largest
        // power-of-two-scaled CPU batch whose estimated time still fits
        // within the GPU's batch time, frozen for the whole run.
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::StaticProportional, 0.05);
        // Replicate the solve with the same models.
        let fpe = cfg.spec.train_flops_per_example();
        let t_gpu = cfg.gpus[0].batch_time(fpe, cfg.train.gpu_batch.min(data.len()));
        let mut expected = cfg.cpu.threads;
        while expected < data.len() && cfg.cpu.batch_time(fpe, expected * 2) <= t_gpu {
            expected *= 2;
        }
        let r = run(cfg.clone(), &data);
        assert!(r.final_loss() < r.initial_loss());
        let cpu = r
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::Cpu)
            .unwrap();
        let gpu = r
            .workers
            .iter()
            .find(|w| w.kind == WorkerKind::Gpu && w.batches > 0)
            .unwrap();
        assert!(cpu.batches > 0 && gpu.batches > 0);
        assert_eq!(
            cpu.final_batch,
            expected.min(data.len()),
            "proportional solve mismatch"
        );
        // Maximality: doubling the chosen batch would overshoot the GPU's
        // time (unless already capped by the dataset). The floor of one
        // example per thread may itself exceed t_gpu — that is allowed.
        if cpu.final_batch * 2 <= data.len() {
            assert!(
                cfg.cpu.batch_time(fpe, cpu.final_batch * 2) > t_gpu,
                "solve was not maximal"
            );
        }
    }

    #[test]
    fn staleness_discount_shrinks_stale_steps() {
        // With a huge κ every stale gradient is nearly nulled; training
        // still runs, stays finite, and makes less progress than κ = 0.
        let data = tiny_dataset();
        let base = run(tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05), &data);
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        cfg.train.staleness_discount = 1000.0;
        let damped = run(cfg, &data);
        assert!(damped.final_loss().is_finite());
        assert!(
            damped.final_loss() >= base.final_loss(),
            "huge staleness discount should not speed up convergence: {} vs {}",
            damped.final_loss(),
            base.final_loss()
        );
        // And it should visibly slow progress relative to no discount.
        assert!(
            damped.final_loss() > base.final_loss() * 1.01
                || damped.initial_loss() - damped.final_loss()
                    < (base.initial_loss() - base.final_loss()) * 0.9,
            "discount had no visible effect"
        );
    }

    #[test]
    fn hybrid_svrg_converges_and_uses_anchors() {
        let data = tiny_dataset();
        let r = run(tiny_config(AlgorithmKind::HybridSvrg, 0.05), &data);
        assert!(
            r.final_loss() < r.initial_loss(),
            "{} -> {}",
            r.initial_loss(),
            r.final_loss()
        );
        // Both worker kinds participate (GPU provides anchors, CPU the
        // corrected walk).
        let frac = r.cpu_update_fraction();
        assert!(frac > 0.0 && frac < 1.0, "cpu fraction {frac}");
        assert!(r.loss_curve.iter().all(|p| p.loss.is_finite()));
    }

    #[test]
    fn hybrid_svrg_cpu_batches_cost_double() {
        // The SVRG correction doubles CPU gradient work; the virtual cost
        // model must reflect it.
        let cfg_plain = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        let cfg_svrg = tiny_config(AlgorithmKind::HybridSvrg, 0.05);
        let e_plain = SimEngine::new(cfg_plain).unwrap();
        let e_svrg = SimEngine::new(cfg_svrg).unwrap();
        let cpu = Device::Cpu(tiny_hardware().0);
        let t_plain = e_plain.batch_cost(&cpu, 64);
        let t_svrg = e_svrg.batch_cost(&cpu, 64);
        assert!((t_svrg - 2.0 * t_plain).abs() < 1e-12);
    }

    #[test]
    fn traced_sim_run_is_virtual_time_and_deterministic() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.05);

        let sink = TraceSink::virtual_time(1 << 14);
        let traced = SimEngine::new(cfg.clone()).unwrap().run(
            &data,
            &Observers {
                trace: sink.clone(),
                ..Observers::default()
            },
        );
        let plain = run(cfg.clone(), &data);
        // Tracing must not feed back into the schedule or the math.
        assert_eq!(traced.loss_curve.len(), plain.loss_curve.len());
        for (a, b) in traced.loss_curve.iter().zip(&plain.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }

        let trace = sink.drain();
        assert_eq!(trace.domain, hetero_trace::TimeDomain::Virtual);
        let events = trace.events_sorted();
        assert!(!events.is_empty());
        // Virtual stamps live inside the budget (final eval lands on it).
        for e in &events {
            assert!(
                e.t >= 0.0 && e.t <= cfg.train.time_budget + 1e-9,
                "t={}",
                e.t
            );
        }
        let has = |f: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::BatchDispatched { .. })));
        assert!(has(&|k| matches!(k, EventKind::BatchCompleted { .. })));
        assert!(has(&|k| matches!(k, EventKind::ModelMerge { .. })));
        assert!(
            has(&|k| matches!(k, EventKind::BatchResized { .. })),
            "adaptive run resized no batch"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::EvalPoint { .. }) && e.worker == COORDINATOR));

        // Same run again: identical virtual event stream (determinism).
        let sink2 = TraceSink::virtual_time(1 << 14);
        let _ = SimEngine::new(cfg).unwrap().run(
            &data,
            &Observers {
                trace: sink2.clone(),
                ..Observers::default()
            },
        );
        let events2 = sink2.drain().events_sorted();
        assert_eq!(events.len(), events2.len());
        for (a, b) in events.iter().zip(&events2) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.worker, b.worker);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn observed_sim_run_fills_histograms_without_perturbing_the_schedule() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03);
        let hub = MetricsHub::new();
        let sink = TraceSink::virtual_time(1 << 14);
        let observed = SimEngine::new(cfg.clone())
            .unwrap()
            .run_observed(&data, &sink, &hub);
        let plain = run(cfg, &data);
        // Observation must not feed back into the schedule or the math.
        assert_eq!(observed.loss_curve.len(), plain.loss_curve.len());
        for (a, b) in observed.loss_curve.iter().zip(&plain.loss_curve) {
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.time, b.time);
        }
        let snap = hub.snapshot();
        // CPU (0) and GPU (1) both filled latency; GPU filled transfers.
        for w in [0u32, 1u32] {
            assert!(snap.series_for(Metric::BatchLatency, w).unwrap().count() > 0);
        }
        assert!(snap.series_for(Metric::H2d, 1).unwrap().count() > 0);
        assert!(snap.series_for(Metric::D2h, 1).unwrap().count() > 0);
        assert!(snap.merged(Metric::Staleness).unwrap().count() > 0);
        // Latency histograms hold the modeled virtual costs (sub-second ns
        // values, never zero).
        let lat = snap.merged(Metric::BatchLatency).unwrap();
        assert!(lat.max() > 0 && lat.max() < 1_000_000_000);
        assert!(observed.staleness.is_some());
        // The per-worker digests round-trip what the raw timelines say.
        for w in &observed.workers {
            if w.batches > 0 {
                assert!(w.timeline_summary.busy_secs > 0.0);
                assert_eq!(
                    w.timeline_summary.intervals,
                    w.timeline.segments().len() as u64
                );
            }
        }
    }

    #[test]
    fn sim_measured_beta_is_exactly_one() {
        // Serial virtual-clock application loses no update, so the
        // measured serialization rate is the idealized β = 1.
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        cfg.train.measured_beta = true;
        let r = run(cfg, &data);
        assert_eq!(r.measured_beta, Some(1.0));
    }

    #[test]
    fn injected_death_degrades_to_survivors() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        // Kill the GPU worker (slot 1) after 3 batches.
        cfg.fault_plan = FaultPlan::none().die_after(1, 3);
        let sink = TraceSink::virtual_time(1 << 14);
        let r = SimEngine::new(cfg).unwrap().run(
            &data,
            &Observers {
                trace: sink.clone(),
                ..Observers::default()
            },
        );
        let gpu = &r.workers[1];
        assert_eq!(gpu.kind, WorkerKind::Gpu);
        assert!(gpu.retired.as_deref().unwrap().contains("injected death"));
        assert_eq!(gpu.batches, 3, "worker kept working after its death");
        // The CPU survivor kept training and the run still converged.
        assert!(r.workers[0].retired.is_none());
        assert!(r.workers[0].batches > 3);
        assert!(r.final_loss() < r.initial_loss());
        assert!(r.aborted.is_none());
        let trace = sink.drain();
        let events = trace.events_sorted();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerFault { .. }) && e.worker == 1));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::WorkerRetired { .. }) && e.worker == 1));
        let counters: std::collections::HashMap<String, f64> =
            trace.counters.iter().cloned().collect();
        assert_eq!(counters.get("engine.faults"), Some(&1.0));
    }

    #[test]
    fn all_workers_dead_marks_run_aborted() {
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.05);
        cfg.fault_plan = FaultPlan::none().die_after(0, 1).die_after(1, 1);
        let r = run(cfg, &data);
        assert!(r.aborted.as_deref().unwrap().contains("all workers"));
        for w in &r.workers[..2] {
            assert!(w.retired.is_some());
            assert_eq!(w.batches, 1);
        }
    }

    #[test]
    fn fault_free_run_emits_no_fault_events() {
        let data = tiny_dataset();
        let cfg = tiny_config(AlgorithmKind::AdaptiveHogbatch, 0.03);
        let sink = TraceSink::virtual_time(1 << 14);
        let r = SimEngine::new(cfg).unwrap().run(
            &data,
            &Observers {
                trace: sink.clone(),
                ..Observers::default()
            },
        );
        assert!(r.aborted.is_none());
        assert_eq!(r.requeued_batches, 0);
        assert!(r.workers.iter().all(|w| w.retired.is_none()));
        assert!(!sink.drain().events_sorted().iter().any(|e| matches!(
            e.kind,
            EventKind::WorkerFault { .. }
                | EventKind::WorkerRetired { .. }
                | EventKind::BatchRequeued { .. }
        )));
    }

    #[test]
    fn multi_gpu_workers_supported() {
        // The paper's future work: scale to multi-GPU.
        let data = tiny_dataset();
        let mut cfg = tiny_config(AlgorithmKind::CpuGpuHogbatch, 0.02);
        let g = cfg.gpus[0].clone();
        cfg.gpus.push(g);
        let r = run(cfg, &data);
        let gpu_workers = r
            .workers
            .iter()
            .filter(|w| w.kind == WorkerKind::Gpu && w.batches > 0)
            .count();
        assert_eq!(gpu_workers, 2);
        assert!(r.final_loss() < r.initial_loss());
    }
}
