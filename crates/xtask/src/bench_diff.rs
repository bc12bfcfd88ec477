//! `cargo xtask bench-diff` — the perf regression gate.
//!
//! Compares a freshly generated bench report (`BENCH_math.json` from
//! `bench_math`, `BENCH_train.json` from `bench_train`) against the
//! committed baseline at the workspace root, metric by metric, with
//! per-metric noise thresholds. Exit status is the contract:
//!
//! * `0` — every matched row is within threshold of its baseline,
//! * `1` — at least one metric regressed beyond its threshold (or a
//!   baseline row disappeared from the fresh run),
//! * `2` — usage / IO / parse error.
//!
//! Every invocation appends one JSON line to
//! `results/bench_diff_history.jsonl` so regressions and recoveries stay
//! visible in-repo over time. Rows present only in the fresh report are
//! reported but never fail the gate — new benchmarks should not need a
//! baseline update in the same commit to keep CI green.
//!
//! Thresholds are deliberately loose by default: CI boxes are noisy, and a
//! gate that cries wolf gets deleted. `--threshold <pct>` overrides all
//! per-metric defaults when an experiment needs a tighter (or looser) gate.

use std::path::{Path, PathBuf};

use serde_json::Value;

/// Which direction is good for a metric.
#[derive(Clone, Copy, PartialEq)]
enum Better {
    Higher,
    Lower,
}

/// A metric the gate watches: JSON field name, direction, and the default
/// allowed degradation (percent) before it counts as a regression.
struct Metric {
    field: &'static str,
    better: Better,
    default_threshold_pct: f64,
}

/// GEMM throughput in GFLOP/s; `parallel` wobbles more than single-thread
/// SIMD on shared runners, so it gets extra headroom.
const MATH_METRICS: &[Metric] = &[
    Metric {
        field: "simd_gflops",
        better: Better::Higher,
        default_threshold_pct: 30.0,
    },
    Metric {
        field: "parallel_gflops",
        better: Better::Higher,
        default_threshold_pct: 40.0,
    },
];

/// Engine throughput and convergence quality. `final_loss` is tighter: a
/// correctness bug shows up there long before throughput moves.
const TRAIN_METRICS: &[Metric] = &[
    Metric {
        field: "updates_per_sec",
        better: Better::Higher,
        default_threshold_pct: 35.0,
    },
    Metric {
        field: "final_loss",
        better: Better::Lower,
        default_threshold_pct: 25.0,
    },
];

/// Phase fields of a train row's `phase_profile` object, in report order.
/// Names (minus `_secs`) are what `--explain` prints.
const PHASE_FIELDS: &[&str] = &[
    "startup_secs",
    "queue_secs",
    "stage_secs",
    "compute_secs",
    "transfer_secs",
    "merge_secs",
    "coordinator_secs",
    "residual_secs",
    "shutdown_secs",
];

/// Growth a phase's per-update cost must show before `--explain` blames it.
const EXPLAIN_MIN_GROWTH_PCT: f64 = 10.0;

/// One suite the gate knows how to diff.
struct Suite {
    name: &'static str,
    baseline_file: &'static str,
    /// JSON field holding the row array.
    rows_field: &'static str,
    /// Fields concatenated into the row identity key.
    key_fields: &'static [&'static str],
    metrics: &'static [Metric],
}

const SUITES: &[Suite] = &[
    Suite {
        name: "math",
        baseline_file: "BENCH_math.json",
        rows_field: "gemm",
        key_fields: &["kernel", "batch", "m", "k", "n"],
        metrics: MATH_METRICS,
    },
    Suite {
        name: "train",
        baseline_file: "BENCH_train.json",
        rows_field: "rows",
        key_fields: &["engine", "algorithm", "dataset", "measured_beta_enabled"],
        metrics: TRAIN_METRICS,
    },
];

/// Outcome of one (row, metric) comparison.
struct Delta {
    key: String,
    field: &'static str,
    baseline: f64,
    fresh: f64,
    /// Signed change in percent; positive always means "got worse".
    worse_pct: f64,
    threshold_pct: f64,
    regressed: bool,
}

/// Entry point for `cargo xtask bench-diff <suite> --fresh <file> [...]`.
/// Returns the process exit code.
pub fn run(args: &[String], root: &Path) -> i32 {
    let usage = "usage: cargo xtask bench-diff <math|train> --fresh <file> \
                 [--baseline <file>] [--threshold <pct>] [--explain] \
                 [--history <file>|--no-history]";
    let Some(suite_name) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    let Some(suite) = SUITES.iter().find(|s| s.name == suite_name.as_str()) else {
        eprintln!("bench-diff: unknown suite `{suite_name}`\n{usage}");
        return 2;
    };

    let mut baseline_path = root.join(suite.baseline_file);
    let mut fresh_path: Option<PathBuf> = None;
    let mut threshold_override: Option<f64> = None;
    let mut explain_flag = false;
    let mut history_path = Some(root.join("results/bench_diff_history.jsonl"));
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--baseline" => match it.next() {
                Some(v) => baseline_path = PathBuf::from(v),
                None => return usage_err(usage, "--baseline needs a file"),
            },
            "--fresh" => match it.next() {
                Some(v) => fresh_path = Some(PathBuf::from(v)),
                None => return usage_err(usage, "--fresh needs a file"),
            },
            "--threshold" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(pct)) if pct >= 0.0 => threshold_override = Some(pct),
                _ => return usage_err(usage, "--threshold needs a non-negative percent"),
            },
            "--history" => match it.next() {
                Some(v) => history_path = Some(PathBuf::from(v)),
                None => return usage_err(usage, "--history needs a file"),
            },
            "--no-history" => history_path = None,
            "--explain" => explain_flag = true,
            other => return usage_err(usage, &format!("unknown flag `{other}`")),
        }
    }
    let Some(fresh_path) = fresh_path else {
        return usage_err(usage, "--fresh is required (run the bench first)");
    };

    let baseline = match load_rows(&baseline_path, suite) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench-diff: baseline {}: {e}", baseline_path.display());
            return 2;
        }
    };
    let fresh = match load_rows(&fresh_path, suite) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench-diff: fresh {}: {e}", fresh_path.display());
            return 2;
        }
    };

    let (deltas, missing, new_rows) = diff(suite, &baseline, &fresh, threshold_override);

    for d in &deltas {
        let verdict = if d.regressed { "REGRESSED" } else { "ok" };
        println!(
            "{:9} {:<58} {:>16} {:>12.4} -> {:>12.4} ({:+6.1}%, allow {:.0}%)",
            verdict, d.key, d.field, d.baseline, d.fresh, d.worse_pct, d.threshold_pct
        );
    }
    for key in &missing {
        println!("MISSING   {key} (baseline row absent from fresh run)");
    }
    for key in &new_rows {
        println!("new       {key} (no baseline yet; not gated)");
    }
    if explain_flag {
        for line in explain(&baseline, &fresh) {
            println!("{line}");
        }
    }

    let regressions = deltas.iter().filter(|d| d.regressed).count() + missing.len();
    let verdict = if regressions == 0 { "pass" } else { "fail" };
    println!(
        "bench-diff {}: {} row(s), {} regression(s), {} missing, {} new -> {}",
        suite.name,
        deltas.len(),
        regressions - missing.len(),
        missing.len(),
        new_rows.len(),
        verdict
    );

    if let Some(history) = history_path {
        if let Err(e) = append_history(&history, suite, &deltas, &missing, verdict) {
            // History is bookkeeping, not the gate; warn and keep the verdict.
            eprintln!("bench-diff: could not append {}: {e}", history.display());
        }
    }

    if regressions == 0 {
        0
    } else {
        1
    }
}

fn usage_err(usage: &str, msg: &str) -> i32 {
    eprintln!("bench-diff: {msg}\n{usage}");
    2
}

/// Parse a report file into `(identity key, row)` pairs in file order.
fn load_rows(path: &Path, suite: &Suite) -> Result<Vec<(String, Value)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{e:?}"))?;
    let Some(Value::Array(rows)) = doc.get(suite.rows_field) else {
        return Err(format!("no `{}` array", suite.rows_field));
    };
    Ok(rows
        .iter()
        .map(|row| (row_key(row, suite.key_fields), row.clone()))
        .collect())
}

/// Identity of a row: its key fields joined with `/`.
fn row_key(row: &Value, fields: &[&str]) -> String {
    fields
        .iter()
        .map(|f| match row.get(f) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::U64(n)) => n.to_string(),
            Some(Value::I64(n)) => n.to_string(),
            Some(Value::F64(x)) => x.to_string(),
            Some(Value::Bool(b)) => b.to_string(),
            _ => "?".into(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Compare every baseline row against the fresh run. Returns the per-metric
/// deltas, the keys of baseline rows missing from the fresh report, and the
/// keys of fresh rows with no baseline.
fn diff(
    suite: &Suite,
    baseline: &[(String, Value)],
    fresh: &[(String, Value)],
    threshold_override: Option<f64>,
) -> (Vec<Delta>, Vec<String>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (key, base_row) in baseline {
        let Some((_, fresh_row)) = fresh.iter().find(|(k, _)| k == key) else {
            missing.push(key.clone());
            continue;
        };
        for m in suite.metrics {
            let (Some(b), Some(f)) = (
                base_row.get(m.field).and_then(as_f64),
                fresh_row.get(m.field).and_then(as_f64),
            ) else {
                continue;
            };
            // Degenerate baselines (zero or non-finite) cannot anchor a
            // relative comparison; skip rather than divide by zero.
            if !b.is_finite() || !f.is_finite() || b == 0.0 {
                continue;
            }
            let worse_pct = match m.better {
                Better::Higher => (b - f) / b * 100.0,
                Better::Lower => (f - b) / b.abs() * 100.0,
            };
            let threshold_pct = threshold_override.unwrap_or(m.default_threshold_pct);
            deltas.push(Delta {
                key: key.clone(),
                field: m.field,
                baseline: b,
                fresh: f,
                worse_pct,
                threshold_pct,
                regressed: worse_pct > threshold_pct,
            });
        }
    }
    let new_rows = fresh
        .iter()
        .filter(|(k, _)| !baseline.iter().any(|(bk, _)| bk == k))
        .map(|(k, _)| k.clone())
        .collect();
    (deltas, missing, new_rows)
}

/// Human-readable seconds: engineering units keep per-update costs legible.
fn fmt_secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.1}µs", v * 1e6)
    }
}

/// `--explain`: for every row present on both sides with a `phase_profile`,
/// diff the per-phase critical-path attribution and name the dominant
/// regressed phase(s). Costs are normalized per update when both rows carry
/// `total_updates`, so a longer run does not read as a regression; ranking
/// is by absolute per-update cost increase, and a phase must grow by more
/// than [`EXPLAIN_MIN_GROWTH_PCT`] to be blamed at all.
fn explain(baseline: &[(String, Value)], fresh: &[(String, Value)]) -> Vec<String> {
    let mut out = Vec::new();
    let mut profiled = 0usize;
    for (key, base_row) in baseline {
        let Some((_, fresh_row)) = fresh.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let (Some(bp), Some(fp)) = (
            base_row
                .get("phase_profile")
                .filter(|v| !matches!(v, Value::Null)),
            fresh_row
                .get("phase_profile")
                .filter(|v| !matches!(v, Value::Null)),
        ) else {
            continue;
        };
        profiled += 1;
        let updates_of = |row: &Value| {
            row.get("total_updates")
                .and_then(as_f64)
                .filter(|u| *u > 0.0)
        };
        // Per-update normalization only when both sides can be normalized —
        // mixing a normalized side with a raw one would be nonsense.
        let (bu, fu) = match (updates_of(base_row), updates_of(fresh_row)) {
            (Some(b), Some(f)) => (b, f),
            _ => (1.0, 1.0),
        };
        struct PhaseDelta {
            name: &'static str,
            base: f64,
            fresh: f64,
            growth_pct: f64,
        }
        let mut regressed: Vec<PhaseDelta> = Vec::new();
        for field in PHASE_FIELDS {
            let (Some(b), Some(f)) = (
                bp.get(field).and_then(as_f64),
                fp.get(field).and_then(as_f64),
            ) else {
                continue;
            };
            let (b, f) = (b / bu, f / fu);
            if !b.is_finite() || !f.is_finite() || f <= b {
                continue;
            }
            let growth_pct = if b > 1e-12 {
                (f - b) / b * 100.0
            } else {
                f64::INFINITY
            };
            if growth_pct > EXPLAIN_MIN_GROWTH_PCT {
                regressed.push(PhaseDelta {
                    name: field.trim_end_matches("_secs"),
                    base: b,
                    fresh: f,
                    growth_pct,
                });
            }
        }
        // Biggest absolute per-update cost increase wins the blame.
        regressed.sort_by(|a, b| (b.fresh - b.base).total_cmp(&(a.fresh - a.base)));
        match regressed.split_first() {
            None => out.push(format!(
                "explain   {key}: no phase regressed beyond {EXPLAIN_MIN_GROWTH_PCT:.0}%"
            )),
            Some((top, rest)) => {
                out.push(format!(
                    "explain   {key}: dominant regressed phase: {} ({:+.1}% per-update cost, {} -> {})",
                    top.name,
                    top.growth_pct,
                    fmt_secs(top.base),
                    fmt_secs(top.fresh)
                ));
                for p in rest {
                    out.push(format!(
                        "explain   {key}: also regressed: {} ({:+.1}%)",
                        p.name, p.growth_pct
                    ));
                }
            }
        }
    }
    if profiled == 0 {
        out.push(
            "explain: no matched rows carry a phase_profile on both sides \
             (re-run the bench and/or refresh the baseline)"
                .to_string(),
        );
    }
    out
}

/// Append one JSONL record summarizing this gate run.
fn append_history(
    path: &Path,
    suite: &Suite,
    deltas: &[Delta],
    missing: &[String],
    verdict: &str,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let worst = deltas
        .iter()
        .max_by(|a, b| a.worse_pct.total_cmp(&b.worse_pct));
    let regressed: Vec<Value> = deltas
        .iter()
        .filter(|d| d.regressed)
        .map(|d| {
            Value::Object(vec![
                ("key".into(), Value::Str(d.key.clone())),
                ("metric".into(), Value::Str(d.field.to_string())),
                ("worse_pct".into(), Value::F64(d.worse_pct)),
            ])
        })
        .collect();
    let record = Value::Object(vec![
        ("unix_secs".into(), Value::U64(unix_secs)),
        ("suite".into(), Value::Str(suite.name.to_string())),
        ("verdict".into(), Value::Str(verdict.to_string())),
        ("rows".into(), Value::U64(deltas.len() as u64)),
        (
            "worst_key".into(),
            worst.map_or(Value::Null, |d| Value::Str(d.key.clone())),
        ),
        (
            "worst_metric".into(),
            worst.map_or(Value::Null, |d| Value::Str(d.field.to_string())),
        ),
        (
            "worst_pct".into(),
            worst.map_or(Value::Null, |d| Value::F64(d.worse_pct)),
        ),
        ("regressions".into(), Value::Array(regressed)),
        (
            "missing".into(),
            Value::Array(missing.iter().map(|k| Value::Str(k.clone())).collect()),
        ),
    ]);
    let line =
        serde_json::to_string(&record).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(json: &str, suite: &Suite) -> Vec<(String, Value)> {
        let doc: Value = serde_json::from_str(json).unwrap();
        let Some(Value::Array(rows)) = doc.get(suite.rows_field) else {
            panic!("bad fixture");
        };
        rows.iter()
            .map(|r| (row_key(r, suite.key_fields), r.clone()))
            .collect()
    }

    fn math_suite() -> &'static Suite {
        SUITES.iter().find(|s| s.name == "math").unwrap()
    }

    fn train_suite() -> &'static Suite {
        SUITES.iter().find(|s| s.name == "train").unwrap()
    }

    const MATH_BASE: &str = r#"{"gemm":[
        {"kernel":"nn","batch":16,"m":16,"k":512,"n":512,
         "simd_gflops":50.0,"parallel_gflops":40.0}]}"#;

    #[test]
    fn parity_passes() {
        let suite = math_suite();
        let base = rows(MATH_BASE, suite);
        let (deltas, missing, new_rows) = diff(suite, &base, &base, None);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| !d.regressed && d.worse_pct == 0.0));
        assert!(missing.is_empty() && new_rows.is_empty());
    }

    #[test]
    fn throughput_drop_beyond_threshold_regresses() {
        let suite = math_suite();
        let base = rows(MATH_BASE, suite);
        // simd 50 -> 30 is a 40% drop, past the 30% default; parallel
        // 40 -> 30 is 25%, inside its 40% allowance.
        let fresh = rows(
            r#"{"gemm":[
                {"kernel":"nn","batch":16,"m":16,"k":512,"n":512,
                 "simd_gflops":30.0,"parallel_gflops":30.0}]}"#,
            suite,
        );
        let (deltas, _, _) = diff(suite, &base, &fresh, None);
        let simd = deltas.iter().find(|d| d.field == "simd_gflops").unwrap();
        let par = deltas
            .iter()
            .find(|d| d.field == "parallel_gflops")
            .unwrap();
        assert!(simd.regressed);
        assert!(!par.regressed);
    }

    #[test]
    fn loss_is_lower_better() {
        let suite = train_suite();
        let base = rows(
            r#"{"rows":[{"engine":"sim","algorithm":"A","dataset":"w8a",
                "measured_beta_enabled":true,"updates_per_sec":1000,"final_loss":0.5}]}"#,
            suite,
        );
        // Loss halved: an improvement, never a regression.
        let better = rows(
            r#"{"rows":[{"engine":"sim","algorithm":"A","dataset":"w8a",
                "measured_beta_enabled":true,"updates_per_sec":1000,"final_loss":0.25}]}"#,
            suite,
        );
        let (deltas, _, _) = diff(suite, &base, &better, None);
        assert!(deltas.iter().all(|d| !d.regressed));
        // Loss doubled: 100% worse, past the 25% default.
        let worse = rows(
            r#"{"rows":[{"engine":"sim","algorithm":"A","dataset":"w8a",
                "measured_beta_enabled":true,"updates_per_sec":1000,"final_loss":1.0}]}"#,
            suite,
        );
        let (deltas, _, _) = diff(suite, &base, &worse, None);
        assert!(deltas
            .iter()
            .any(|d| d.field == "final_loss" && d.regressed));
    }

    #[test]
    fn missing_row_fails_new_row_does_not() {
        let suite = math_suite();
        let base = rows(MATH_BASE, suite);
        let fresh = rows(
            r#"{"gemm":[
                {"kernel":"nt","batch":16,"m":16,"k":512,"n":512,
                 "simd_gflops":50.0,"parallel_gflops":40.0}]}"#,
            suite,
        );
        let (deltas, missing, new_rows) = diff(suite, &base, &fresh, None);
        assert!(deltas.is_empty());
        assert_eq!(missing, vec!["nn/16/16/512/512".to_string()]);
        assert_eq!(new_rows, vec!["nt/16/16/512/512".to_string()]);
    }

    #[test]
    fn threshold_override_applies_to_all_metrics() {
        let suite = math_suite();
        let base = rows(MATH_BASE, suite);
        let fresh = rows(
            r#"{"gemm":[
                {"kernel":"nn","batch":16,"m":16,"k":512,"n":512,
                 "simd_gflops":48.0,"parallel_gflops":38.0}]}"#,
            suite,
        );
        // ~4-5% drops: fine at defaults, fatal at --threshold 1.
        let (deltas, _, _) = diff(suite, &base, &fresh, Some(1.0));
        assert!(deltas.iter().all(|d| d.regressed));
        let (deltas, _, _) = diff(suite, &base, &fresh, None);
        assert!(deltas.iter().all(|d| !d.regressed));
    }

    /// Train-row fixture with a phase profile; `compute`/`transfer` secs and
    /// the update count are the knobs the explain tests turn.
    fn profiled_row(updates: f64, compute: f64, transfer: f64) -> String {
        format!(
            r#"{{"rows":[{{"engine":"threaded","algorithm":"A","dataset":"w8a",
                "measured_beta_enabled":true,"updates_per_sec":1000,"final_loss":0.5,
                "total_updates":{updates},
                "phase_profile":{{"startup_secs":0.01,"queue_secs":0.02,"stage_secs":0.03,
                 "compute_secs":{compute},"transfer_secs":{transfer},"merge_secs":0.04,
                 "coordinator_secs":0.01,"residual_secs":0.0,"shutdown_secs":0.01}}}}]}}"#
        )
    }

    #[test]
    fn explain_names_the_dominant_regressed_phase() {
        let suite = train_suite();
        let base = rows(&profiled_row(1000.0, 0.5, 0.1), suite);
        // Compute doubled, transfer up 50%: both named, compute dominant.
        let fresh = rows(&profiled_row(1000.0, 1.0, 0.15), suite);
        let lines = explain(&base, &fresh);
        assert!(
            lines[0].contains("dominant regressed phase: compute") && lines[0].contains("+100.0%"),
            "{lines:?}"
        );
        assert!(lines[1].contains("also regressed: transfer"), "{lines:?}");
    }

    #[test]
    fn explain_normalizes_per_update() {
        let suite = train_suite();
        let base = rows(&profiled_row(1000.0, 0.5, 0.1), suite);
        // Twice the updates at twice the phase cost: per-update parity,
        // nothing to blame.
        let fresh = rows(&profiled_row(2000.0, 1.0, 0.2), suite);
        let lines = explain(&base, &fresh);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("no phase regressed"), "{lines:?}");
    }

    #[test]
    fn explain_reports_missing_profiles() {
        let suite = train_suite();
        let bare = rows(
            r#"{"rows":[{"engine":"sim","algorithm":"A","dataset":"w8a",
                "measured_beta_enabled":true,"updates_per_sec":1000,"final_loss":0.5}]}"#,
            suite,
        );
        let lines = explain(&bare, &bare);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("no matched rows carry a phase_profile"));
    }

    #[test]
    fn committed_baselines_parse_and_self_diff_clean() {
        let root = crate::workspace_root();
        for suite in SUITES {
            let path = root.join(suite.baseline_file);
            let rows = load_rows(&path, suite).expect("committed baseline parses");
            assert!(!rows.is_empty(), "{} has rows", suite.baseline_file);
            let (deltas, missing, new_rows) = diff(suite, &rows, &rows, None);
            assert!(!deltas.is_empty());
            assert!(deltas.iter().all(|d| !d.regressed));
            assert!(missing.is_empty() && new_rows.is_empty());
        }
    }
}
