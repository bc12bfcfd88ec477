//! Behaviour oracle for the deterministic engines.
//!
//! Small dense runs of the virtual-clock simulator (Adaptive Hogbatch and
//! CPU+GPU Hogbatch) and of the parameter server are pinned against a
//! committed golden file, so a refactor of the coordinator cannot move
//! the schedule or the math unnoticed:
//!
//! - per-worker updates, batches, examples and final batch size match
//!   exactly;
//! - the drained virtual-time trace matches as an ordered digest of
//!   `(t bits, worker, event kind)` (simulator runs);
//! - curve times and epochs match exactly, losses and accuracies to 1e-5
//!   relative — the float bits depend on the host SIMD level, the
//!   schedule does not.
//!
//! Regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-core --test engine_oracle`.

use hetero_core::{
    AdaptiveParams, AlgorithmKind, FaultPlan, LrScaling, NetworkModel, Observers, PsEngine,
    PsEngineConfig, SimEngine, SimEngineConfig, TrainConfig, TrainResult,
};
use hetero_data::{DenseDataset, SynthConfig};
use hetero_nn::MlpSpec;
use hetero_sim::{CpuModel, GpuModel};
use hetero_trace::{Trace, TraceSink};
use serde::{Deserialize, Serialize};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/engine_oracle.json"
);

/// Relative tolerance on loss/accuracy values.
const FLOAT_RTOL: f64 = 1e-5;

#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    runs: Vec<RunRecord>,
}

#[derive(Debug, Serialize, Deserialize)]
struct RunRecord {
    name: String,
    epochs: f64,
    workers: Vec<WorkerRecord>,
    curve: Vec<PointRecord>,
    /// `None` for engines run without a caller trace.
    trace: Option<TraceRecord>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WorkerRecord {
    kind: String,
    updates: f64,
    batches: u64,
    examples: u64,
    final_batch: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct PointRecord {
    time: f64,
    epochs: f64,
    loss: f64,
    accuracy: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct TraceRecord {
    events: usize,
    /// FNV-1a over `(t bits, worker, kind name)` in timestamp order.
    digest: String,
}

fn hardware() -> (CpuModel, GpuModel) {
    (
        CpuModel {
            name: "oracle-cpu".into(),
            threads: 4,
            hw_threads: 4,
            flops_small: 1e9,
            flops_large: 8e9,
            batch_half: 8.0,
            dispatch_overhead: 20e-6,
            memory: 1 << 30,
        },
        GpuModel {
            name: "oracle-gpu".into(),
            peak_flops: 1e12,
            occupancy_half_batch: 64.0,
            launch_overhead: 20e-6,
            transfer_latency: 5e-6,
            transfer_bandwidth: 12e9,
            memory: 1 << 30,
        },
    )
}

fn train(algorithm: AlgorithmKind) -> TrainConfig {
    TrainConfig {
        init: hetero_nn::InitScheme::Xavier,
        algorithm,
        lr: 0.03,
        lr_scaling: LrScaling::Sqrt {
            ref_batch: 1,
            max_lr: 0.3,
        },
        cpu_batch_per_thread: 4,
        gpu_batch: 64,
        adaptive: AdaptiveParams {
            alpha: 2.0,
            beta: 1.0,
            cpu_min_batch: 4,
            cpu_max_batch: 128,
            gpu_min_batch: 16,
            gpu_max_batch: 128,
        },
        time_budget: 0.03,
        max_epochs: None,
        grad_clip: None,
        weight_decay: 0.0,
        staleness_discount: 0.0,
        rayon_threads: 2,
        measured_beta: false,
        sparse_input: false,
        eval_interval: 0.005,
        eval_subsample: 128,
        ckpt_interval: None,
        ckpt_retain: 2,
        seed: 17,
    }
}

fn dataset() -> DenseDataset {
    let mut cfg = SynthConfig::small(600, 8, 3, 5);
    cfg.separability = 2.0;
    let mut data = cfg.generate();
    data.standardize();
    data
}

fn sim_run(algorithm: AlgorithmKind, data: &DenseDataset) -> (TrainResult, Trace) {
    let (cpu, gpu) = hardware();
    let cfg = SimEngineConfig {
        spec: MlpSpec::tiny(8, 3),
        train: train(algorithm),
        cpu,
        gpus: vec![gpu],
        tf_op_overhead: 20e-6,
        tf_multilabel_penalty: 3.0,
        fault_plan: FaultPlan::none(),
    };
    let sink = TraceSink::virtual_time(1 << 16);
    let obs = Observers {
        trace: sink.clone(),
        ..Observers::default()
    };
    let result = SimEngine::new(cfg).unwrap().run(data, &obs);
    (result, sink.drain())
}

fn ps_run(data: &DenseDataset) -> TrainResult {
    let (cpu, gpu) = hardware();
    let cfg = PsEngineConfig {
        spec: MlpSpec::tiny(8, 3),
        train: train(AlgorithmKind::CpuGpuHogbatch),
        cpu_workers: vec![cpu],
        gpu_workers: vec![gpu],
        batch: 32,
        network: NetworkModel::ten_gbe(),
        lr_compensation: 1.0,
    };
    PsEngine::new(cfg).unwrap().run(data, &Observers::default())
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn trace_record(trace: &Trace) -> TraceRecord {
    assert_eq!(trace.total_dropped(), 0, "oracle ring too small");
    let events = trace.events_sorted();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in &events {
        let kind = format!("{:?}", e.kind);
        let name = kind.split([' ', '{', '(']).next().unwrap_or_default();
        h = fnv1a(h, &e.t.to_bits().to_le_bytes());
        h = fnv1a(h, &e.worker.to_le_bytes());
        h = fnv1a(h, name.as_bytes());
    }
    TraceRecord {
        events: events.len(),
        digest: format!("{h:016x}"),
    }
}

fn record(name: &str, r: &TrainResult, trace: Option<&Trace>) -> RunRecord {
    RunRecord {
        name: name.to_string(),
        epochs: r.epochs,
        workers: r
            .workers
            .iter()
            .map(|w| WorkerRecord {
                kind: format!("{:?}", w.kind),
                updates: w.updates,
                batches: w.batches,
                examples: w.examples,
                final_batch: w.final_batch,
            })
            .collect(),
        curve: r
            .loss_curve
            .iter()
            .map(|p| PointRecord {
                time: p.time,
                epochs: p.epochs,
                loss: p.loss as f64,
                accuracy: p.accuracy as f64,
            })
            .collect(),
        trace: trace.map(trace_record),
    }
}

fn fresh() -> Golden {
    let data = dataset();
    let (adaptive, adaptive_trace) = sim_run(AlgorithmKind::AdaptiveHogbatch, &data);
    let (hogbatch, hogbatch_trace) = sim_run(AlgorithmKind::CpuGpuHogbatch, &data);
    let ps = ps_run(&data);
    Golden {
        runs: vec![
            record("sim-adaptive", &adaptive, Some(&adaptive_trace)),
            record("sim-cpu-gpu", &hogbatch, Some(&hogbatch_trace)),
            record("ps", &ps, None),
        ],
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= FLOAT_RTOL * a.abs().max(b.abs())
}

#[test]
fn deterministic_engines_match_the_golden_oracle() {
    let got = fresh();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, serde_json::to_string_pretty(&got).unwrap()).unwrap();
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    let want: Golden = serde_json::from_str(&text).expect("golden parses");
    assert_eq!(got.runs.len(), want.runs.len());
    for (g, w) in got.runs.iter().zip(&want.runs) {
        assert_eq!(g.name, w.name);
        let name = &g.name;
        assert_eq!(g.workers, w.workers, "{name}: per-worker accounting moved");
        assert_eq!(g.epochs, w.epochs, "{name}: epochs moved");
        assert_eq!(g.trace, w.trace, "{name}: virtual-time trace moved");
        assert_eq!(
            g.curve.len(),
            w.curve.len(),
            "{name}: eval point count moved"
        );
        for (i, (gp, wp)) in g.curve.iter().zip(&w.curve).enumerate() {
            assert_eq!(gp.time, wp.time, "{name}: eval {i} time moved");
            assert_eq!(gp.epochs, wp.epochs, "{name}: eval {i} epochs moved");
            assert!(
                close(gp.loss, wp.loss) && close(gp.accuracy, wp.accuracy),
                "{name}: eval {i} {gp:?} != golden {wp:?}"
            );
        }
    }
}

#[test]
fn oracle_runs_are_nontrivial() {
    // Guards the golden against a degenerate config: both devices work,
    // the curve has interior points, and the loss goes down.
    for run in fresh().runs {
        assert!(run.curve.len() >= 4, "{}: curve too short", run.name);
        assert!(
            run.curve.last().unwrap().loss < run.curve[0].loss,
            "{}: loss did not decrease",
            run.name
        );
        // The simulator appends its eval timeline as a trailing
        // pseudo-worker; the first two slots are the real devices.
        for w in &run.workers[..2] {
            assert!(w.batches > 0, "{}: a {} worker starved", run.name, w.kind);
        }
    }
}
