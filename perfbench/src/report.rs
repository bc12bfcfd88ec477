//! Metric names and units, summary statistics, the result line, and the
//! run's provenance.

use serde::Value;

/// One reported metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the trainer sees, reported by untraced runs
/// (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    m("examples_per_s", "examples/s"),
    m("final_loss", "nats"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Metrics of single layers, reported by the traced run (`--trace 1`).
/// A metric a workload does not exercise (no GPU worker, no sparse layer,
/// not the simulator) reads 0.
pub const PER_LAYER: [MetricDef; 56] = [
    // Critical-path attribution of the traced run (hetero_trace::analyze).
    m("path.startup_share", "ratio"),
    m("path.queue_share", "ratio"),
    m("path.stage_share", "ratio"),
    m("path.compute_share", "ratio"),
    m("path.transfer_share", "ratio"),
    m("path.merge_share", "ratio"),
    m("path.coordinator_share", "ratio"),
    m("path.residual_share", "ratio"),
    m("path.shutdown_share", "ratio"),
    m("path.unattributed_share", "ratio"),
    // Coordinator, controller and workers.
    m("core.dispatches", "count"),
    m("core.requeued", "count"),
    m("core.queue_wait_ms.p50", "ms"),
    m("core.queue_wait_ms.p99", "ms"),
    m("core.batch_ms.cpu.p50", "ms"),
    m("core.batch_ms.cpu.p99", "ms"),
    m("core.batch_ms.gpu.p50", "ms"),
    m("core.batch_ms.gpu.p99", "ms"),
    m("core.busy_share.cpu", "ratio"),
    m("core.busy_share.gpu", "ratio"),
    m("core.staleness.p50", "updates"),
    m("core.staleness.p99", "updates"),
    m("core.cpu_update_share", "ratio"),
    m("core.controller_ns", "ns"),
    m("core.replay_coverage", "ratio"),
    // Message queue.
    m("mq.roundtrip_us", "us"),
    m("mq.messages", "count"),
    // Batch staging.
    m("data.stage_us", "us"),
    // Network math at the CPU lane's batch, and the GPU delta merge.
    m("nn.snapshot_us", "us"),
    m("nn.forward_us", "us"),
    m("nn.loss_us", "us"),
    m("nn.backward_us", "us"),
    m("nn.activation_us", "us"),
    m("nn.apply_us", "us"),
    m("nn.merge_us", "us"),
    m("nn.merge_wait_ms.p99", "ms"),
    m("nn.merge_retries_per_merge", "ratio"),
    // Kernels, summed over the net's layers at the dominant worker's batch.
    m("tensor.nt_gflops", "GFLOP/s"),
    m("tensor.nn_gflops", "GFLOP/s"),
    m("tensor.tn_gflops", "GFLOP/s"),
    m("tensor.spmm_gflops", "GFLOP/s"),
    m("tensor.spmm_tn_gflops", "GFLOP/s"),
    m("tensor.bench_math_ratio", "ratio"),
    // Software GPU.
    m("gpu.h2d_ms.p50", "ms"),
    m("gpu.d2h_ms.p50", "ms"),
    m("gpu.refresh_ms", "ms"),
    m("gpu.train_step_ms", "ms"),
    m("gpu.download_ms", "ms"),
    m("gpu.bytes_per_batch", "bytes"),
    // Simulator.
    m("sim.batches", "count"),
    m("sim.wall_per_batch_ms", "ms"),
    m("sim.compute_share", "ratio"),
    // The trace itself.
    m("trace.events", "count"),
    m("trace.dropped", "count"),
    m("trace.lineage_complete", "bool"),
    m("trace.overhead_pct", "%"),
];

/// Whether `name` uses only the characters metric names may hold.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Values for a fixed list of metrics, filled in by name.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record `value` under `name`.
    ///
    /// # Panics
    /// When `name` is not one of the set's metrics — a name outside
    /// `BENCHMARK.json` is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .and_then(|i| self.values[i])
    }

    /// Names declared but never set.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }

    /// `(definition, value)` for every metric that was set.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter_map(|(d, v)| v.map(|v| (d, v)))
    }

    /// The `metrics` object of the result line.
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::F64(v)),
                            ("unit".into(), Value::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of the benchmark's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let v = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics.to_value()),
    ]);
    serde_json::to_string(&v).expect("serialize result line")
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The CPU model string of this host.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
