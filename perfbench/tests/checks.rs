//! The benchmark's own checks: a run that must fail does, a healthy run
//! passes, and the metric names agree with `BENCHMARK.json`.

use std::sync::Arc;
use std::time::Instant;

use hetero_core::{
    AlgorithmKind, FaultPlan, LrScaling, SimEngineConfig, ThreadedEngineConfig, TrainConfig,
};
use hetero_data::{DenseDataset, SynthConfig};
use hetero_metrics::MetricsHub;
use hetero_nn::MlpSpec;
use hetero_sim::GpuModel;
use hetero_trace::TraceSink;
use perfbench::report::valid_name;
use perfbench::workload::{check_identical, run, EngineConfig, Inputs, Rep};
use perfbench::{Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn dataset(seed: u64) -> Arc<DenseDataset> {
    let mut cfg = SynthConfig::small(400, 8, 2, seed);
    cfg.separability = 3.0;
    let mut d = cfg.generate();
    d.standardize();
    Arc::new(d)
}

fn train(algorithm: AlgorithmKind, epochs: usize, cap_secs: f64) -> TrainConfig {
    TrainConfig {
        algorithm,
        lr: 0.05,
        lr_scaling: LrScaling::Sqrt {
            ref_batch: 1,
            max_lr: 0.3,
        },
        gpu_batch: 64,
        max_epochs: Some(epochs),
        time_budget: cap_secs,
        eval_interval: cap_secs / 4.0,
        eval_subsample: 200,
        rayon_threads: 1,
        seed: 3,
        ..TrainConfig::default()
    }
}

fn threaded(epochs: usize, cap_secs: f64, fault_plan: FaultPlan) -> Rep {
    let engine = EngineConfig::Threaded(ThreadedEngineConfig {
        spec: MlpSpec::tiny(8, 2),
        train: train(AlgorithmKind::CpuGpuHogbatch, epochs, cap_secs),
        cpu_threads: 1,
        gpu_perf: GpuModel::v100(),
        gpu_workers: 1,
        fault_plan,
    });
    let inputs = Inputs {
        dataset: dataset(5),
        engine,
    };
    run(
        Instant::now(),
        &inputs,
        &TraceSink::disabled(),
        &MetricsHub::disabled(),
    )
}

fn sim(seed: u64) -> Rep {
    let mut t = train(AlgorithmKind::AdaptiveHogbatch, 3, 10.0);
    t.eval_interval = 0.005;
    t.adaptive.cpu_max_batch = 64;
    t.adaptive.gpu_min_batch = 16;
    t.adaptive.gpu_max_batch = 64;
    let inputs = Inputs {
        dataset: dataset(seed),
        engine: EngineConfig::Sim(SimEngineConfig::paper_hardware(MlpSpec::tiny(8, 2), t)),
    };
    run(
        Instant::now(),
        &inputs,
        &TraceSink::disabled(),
        &MetricsHub::disabled(),
    )
}

#[test]
fn healthy_run_passes() {
    let rep = threaded(8, 30.0, FaultPlan::none());
    assert_eq!(rep.verdict, Ok(()));
    assert_eq!(rep.examples(), rep.expected_examples);
}

#[test]
fn die_after_run_fails() {
    let rep = threaded(8, 30.0, FaultPlan::none().die_after(0, 3));
    let why = rep.verdict.expect_err("a retired worker fails the run");
    assert!(why.contains("retired"), "{why}");
}

#[test]
fn time_capped_run_fails() {
    let rep = threaded(1_000_000, 0.2, FaultPlan::none());
    let why = rep
        .verdict
        .expect_err("stopping short of the epochs fails the run");
    assert!(why.contains("expected"), "{why}");
}

#[test]
fn sim_bit_identity_needs_the_same_seed() {
    let (a, b) = (sim(1), sim(1));
    assert_eq!(a.verdict, Ok(()));
    assert_eq!(check_identical(&a.result, &b.result), Ok(()));
    let c = sim(2);
    assert!(check_identical(&a.result, &c.result).is_err());
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s list `key`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(entries)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks {key}");
    };
    entries
        .iter()
        .map(|e| {
            let field = |f: &str| match e.get(f) {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("{key} entry lacks {f}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    for (defs, key) in [
        (&END_TO_END[..], "end_to_end"),
        (&PER_LAYER[..], "per_layer"),
    ] {
        let printed: Vec<(String, String)> = defs
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(printed, declared(&doc, key), "{key} differs");
        for (name, _) in &printed {
            assert!(valid_name(name), "bad metric name {name}");
        }
    }
    let Some(Value::Array(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json lacks workloads");
    };
    let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    let expected: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| Value::Str(w.name().into()))
        .collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>());
}
