//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload's fixed-work run until `--seconds` have passed
//! and reports medians. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` one more run is traced and the
//! line carries the per-layer metrics. Human-readable detail goes to
//! stderr.

use std::process::{Command, ExitCode};
use std::time::Instant;

use hetero_metrics::MetricsHub;
use hetero_trace::TraceSink;
use perfbench::replay::Spans;
use perfbench::report::{self, median, Metrics};
use perfbench::workload::{self, Rep};
use perfbench::{layer_metrics, Workload, END_TO_END};
use serde::Value;

/// Fewest untraced runs per invocation, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// No new run starts after this many seconds, so the process ends well
/// inside its 180 s limit.
const LAST_START_SECS: f64 = 120.0;

/// Per-shard ring capacity of the traced run: far above the events any
/// workload emits, so the traced run drops nothing (rings grow lazily).
const RING_CAPACITY: usize = 1 << 22;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn log_rep(i: usize, rep: &Rep) {
    eprintln!(
        "run {i}: {:.1} examples/s over {:.3} s, set-up {:.3} s, loss {:.4} -> {:.4}, {}",
        rep.examples_per_s(),
        rep.clock_s,
        rep.setup_s,
        rep.result.initial_loss(),
        rep.final_loss(),
        match &rep.verdict {
            Ok(()) => "ok".to_string(),
            Err(why) => format!("FAILED: {why}"),
        }
    );
}

/// Simulator runs of one invocation must repeat its first run's loss
/// curve bit for bit, traced or not. Returns whether `rep` did.
fn check_repeat(w: Workload, first: Option<&Rep>, rep: &mut Rep) -> bool {
    if let (Workload::SimAdaptive, Some(first), Ok(())) = (w, first, &rep.verdict) {
        if let Err(e) = workload::check_identical(&first.result, &rep.result) {
            rep.verdict = Err(format!("same-seed sim runs differ: {e}"));
            return false;
        }
    }
    true
}

/// A warm-up run, then untraced runs until `seconds` have passed (at
/// least [`MIN_REPS`]). The warm-up is checked like every run but left out
/// of the medians: it pays the process's one-time costs (page faults,
/// first thread spawns).
///
/// Also returns the peak resident memory after the warm-up (one run's
/// peak, before later runs' allocator arenas pile up on it) and whether
/// every run repeated the first where it must.
fn untraced_reps(w: Workload, seed: u64, seconds: f64, start: Instant) -> (Vec<Rep>, f64, bool) {
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = 0.0;
    let mut repeated = true;
    loop {
        let mut rep = w.rep(seed, reps.len());
        repeated &= check_repeat(w, reps.first(), &mut rep);
        log_rep(reps.len(), &rep);
        reps.push(rep);
        if reps.len() == 1 {
            peak_rss = report::peak_rss_mib().expect("VmHWM in /proc/self/status");
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && reps.len() > MIN_REPS) || elapsed >= LAST_START_SECS {
            return (reps, peak_rss, repeated);
        }
    }
}

/// Host and run shape behind the numbers, printed before the result.
fn provenance(w: Workload, args: &Args, rep: &Rep) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A pool size of 0 means one thread per host core.
    let pool = match rep.engine.train().rayon_threads {
        0 => nproc,
        n => n,
    };
    let s = |v: String| Value::Str(v);
    Value::Object(vec![
        ("workload".into(), s(w.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("cpu_model".into(), s(report::cpu_model())),
        (
            "simd_level".into(),
            s(format!("{:?}", hetero_tensor::simd::active_level())),
        ),
        ("gemm_pool".into(), Value::U64(pool as u64)),
        ("lanes".into(), Value::U64(rep.engine.lanes() as u64)),
        (
            "gpu_workers".into(),
            Value::U64(rep.engine.gpu_workers() as u64),
        ),
        (
            "git_sha".into(),
            s(hetero_flight::read_git_sha().unwrap_or_else(|| "unknown".into())),
        ),
        ("seconds".into(), Value::F64(args.seconds)),
    ])
}

/// The measured runs (the warm-up left out) that passed their checks, or
/// all of them when none did, so the result still reports what happened.
fn measured(reps: &[Rep]) -> Vec<&Rep> {
    let ok: Vec<&Rep> = reps[1..].iter().filter(|r| r.verdict.is_ok()).collect();
    if ok.is_empty() {
        reps[1..].iter().collect()
    } else {
        ok
    }
}

/// Median of `f` over `reps`.
fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn end_to_end(reps: &[Rep], peak_rss: f64) -> Metrics {
    let runs = measured(reps);
    let mut m = Metrics::new(&END_TO_END);
    m.set("examples_per_s", med(&runs, Rep::examples_per_s));
    // Pooled over the runs: each run's late evals are noisy samples of
    // the level training reached.
    let late: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.late_losses.iter().copied())
        .collect();
    m.set("final_loss", median(&late));
    m.set("setup_s", med(&runs, |r| r.setup_s));
    m.set("peak_rss_mb", peak_rss);
    m
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let start = Instant::now();
    let (mut reps, peak_rss, mut repeated) = untraced_reps(w, args.seed, args.seconds, start);
    let prov = provenance(w, args, &reps[0]);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(vec![("provenance".into(), prov)]))
            .expect("serialize provenance")
    );
    let metrics = if args.trace {
        let runs = measured(&reps);
        let baseline_clock = med(&runs, |r| r.clock_s);
        let baseline_rate = med(&runs, Rep::examples_per_s);
        let sink = match w {
            Workload::SimAdaptive => TraceSink::virtual_time(RING_CAPACITY),
            _ => TraceSink::wall(RING_CAPACITY),
        };
        let hub = MetricsHub::new();
        let t = Instant::now();
        let inputs = w.inputs(args.seed, reps.len());
        let mut traced = workload::run(t, &inputs, &sink, &hub);
        repeated &= check_repeat(w, reps.first(), &mut traced);
        eprint!("traced ");
        log_rep(reps.len(), &traced);
        let trace = sink.drain();
        let mut spans = Spans::default();
        let m = layer_metrics(
            &inputs,
            &traced,
            &trace,
            &hub,
            baseline_clock,
            baseline_rate,
            &mut spans,
        );
        eprint!("{}", spans.summary());
        reps.push(traced);
        m
    } else {
        end_to_end(&reps, peak_rss)
    };
    let failed = reps.iter().filter(|r| r.verdict.is_err()).count() as u64;
    let attempted = reps.len() as u64;
    for (d, v) in metrics.iter() {
        eprintln!("{:<32} {:>16.6} {}", d.name, v, d.unit);
    }
    eprintln!(
        "{}: {failed} of {attempted} runs failed ({:.1}%), {:.1} s",
        w.name(),
        failed as f64 / attempted as f64 * 100.0,
        start.elapsed().as_secs_f64()
    );
    let missing = metrics.missing();
    if !missing.is_empty() {
        eprintln!("metrics not measured: {missing:?}");
    }
    // A run that fails its checks is a failed operation: counted, and left
    // out of the medians. The outputs are incorrect when the simulator did
    // not repeat itself, or when no run passed, so nothing was measured.
    let correct = repeated && failed < attempted && missing.is_empty();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Every workload in turn, each in its own process so peak memory is the
/// workload's own.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in Workload::ALL {
        eprintln!("== {}", w.name());
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        println!("{} {last}", w.name());
        ok &= out.status.success() && last.starts_with("{\"correct\":true");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match Workload::from_name(&args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("perfbench: unknown workload {}", args.workload);
            ExitCode::from(2)
        }
    }
}
