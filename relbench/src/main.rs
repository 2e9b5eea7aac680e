//! `relbench`: the end-to-end and per-layer benchmark of the
//! relaxed-programs verifier.
//!
//! ```text
//! relbench --workload <cold_corpus|edit_loop|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with nothing but
//! the op itself timed, and reports their times at the reference host
//! speed (see `host`); with `--trace 1` it measures the per-layer
//! metrics with a replay of each op through the layers (see `layers`).
//! Every op's verdicts are checked against the hand-written table in
//! `corpus`; a wrong verdict aborts the run with exit code 1. The last
//! line of standard output is one JSON object with the results. See
//! `README.md` next to `Cargo.toml` for the workloads and metrics.

mod corpus;
mod drive;
mod gen;
mod host;
mod layers;
mod oracle;
mod workloads;

use drive::{closed_loop, median, open_loop, quantile, serial_loop, Outcome, Run};
use host::HostSpeed;
use layers::{Layers, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Cold, EditLoop, ServiceMix};

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 5;

/// `edit_loop`: peak memory is read after this many ops. Every op grows
/// the store and the session's caches, so a peak read at the end of the
/// window would measure how many ops the host's speed allowed.
const EDIT_RSS_OPS: usize = 5_000;

/// Per workload, the latency limit goodput counts against.
fn latency_limit_ms(workload: &str) -> f64 {
    match workload {
        "cold_corpus" => 1_000.0,
        "edit_loop" => 50.0,
        _ => 250.0,
    }
}

/// `service_mix`: the offered rate of the open-loop phase, and the
/// share of the run it takes (the closed-loop saturation window gets
/// the rest). 40 requests/s stays below a quarter of the saturation
/// throughput even when the host runs slow (about 170/s on 2 cores), so
/// latency measures service time rather than how close the host is to
/// saturation. Three quarters of the run go to the open loop: its p50
/// and p95 spread more from run to run than the saturation throughput.
const SERVICE_RATE: f64 = 40.0;
const SERVICE_OPEN_SHARE: f64 = 0.75;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold_corpus", "edit_loop", "service_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// A run's result: the JSON object's fields.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("relbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".relbench_work").join(format!("{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".relbench_work");
    match result {
        Ok(result) => {
            print_result(&result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("relbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &std::path::Path) -> Result<Report, String> {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let window = Duration::from_secs_f64(args.seconds);
    let mut dirs = 0usize;
    let mut fresh_dir = || -> Result<PathBuf, String> {
        dirs += 1;
        let dir = work.join(format!("setup-{dirs}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    };
    let host = HostSpeed::default();
    match (args.workload.as_str(), args.trace) {
        ("cold_corpus", false) => {
            let (setup_s, cold) = timed_setups(Cold::setup)?;
            let run = serial_loop(window, &host, || cold.op())?;
            Ok(end_to_end(
                &args.workload,
                setup_s,
                &run,
                &run,
                &[],
                &host,
                peak_rss_mb(),
            ))
        }
        ("edit_loop", false) => {
            let (setup_s, mut edit) = timed_setups(|| EditLoop::setup(&fresh_dir()?, args.seed))?;
            let (mut ops, mut rss_at_ops) = (0, None);
            let run = serial_loop(window, &host, || {
                let outcome = edit.op();
                ops += 1;
                if ops == EDIT_RSS_OPS {
                    rss_at_ops = Some(peak_rss_mb());
                }
                outcome
            })?;
            print_shares(
                "edit",
                &[("new_goal", edit.new_edits), ("revert", edit.reverts)],
            );
            let peak_rss = rss_at_ops.unwrap_or_else(|| {
                println!("warning: fewer than {EDIT_RSS_OPS} ops; peak_rss_mb read at the end");
                peak_rss_mb()
            });
            println!("peak_rss_mb read after {EDIT_RSS_OPS} ops");
            Ok(end_to_end(
                &args.workload,
                setup_s,
                &run,
                &run,
                &[],
                &host,
                peak_rss,
            ))
        }
        ("service_mix", false) => {
            let mut setups = Vec::with_capacity(SETUPS);
            let mut service = None;
            for _ in 0..SETUPS {
                if let Some(previous) = service.take() {
                    ServiceMix::shutdown(previous)?;
                }
                let dir = fresh_dir()?;
                let started = Instant::now();
                service = Some(ServiceMix::setup(&dir, args.seed)?);
                setups.push(started.elapsed().as_secs_f64());
            }
            let service = service.expect("set up at least once");
            let open = open_loop(
                window.mul_f64(SERVICE_OPEN_SHARE),
                SERVICE_RATE,
                workloads::workers(),
                Duration::from_secs(10),
                &host,
                |_| service.op(&service.next_request()),
            )?;
            let saturation = closed_loop(
                window.mul_f64(1.0 - SERVICE_OPEN_SHARE),
                workloads::workers(),
                &host,
                || service.op(&service.next_request()),
            )?;
            let kinds = service.kinds.lock().expect("kinds").clone();
            print_shares("request", &kinds);
            println!(
                "open loop: offered {SERVICE_RATE} req/s over {} connections; generator lag p95 {:.3} ms; backlog at end {}",
                workloads::workers(),
                quantile(&open.gen_lag_ms, 0.95),
                open.backlog_end
            );
            service.shutdown()?;
            Ok(end_to_end(
                &args.workload,
                median(&setups),
                &open,
                &saturation,
                &[&saturation],
                &host,
                peak_rss_mb(),
            ))
        }
        (workload, true) => traced(workload, args.seed, window, &host, &mut fresh_dir),
        _ => unreachable!("workloads are checked in parse_args"),
    }
}

/// Sets the workload up `SETUPS` times, keeping the last; returns the
/// median set-up time.
fn timed_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((median(&times), kept.expect("set up at least once")))
}

/// The end-to-end metrics: latency and goodput from `latency_run`,
/// throughput from `throughput_run`, both at the reference host speed;
/// `also` adds more ops to the attempted and failed counts.
fn end_to_end(
    workload: &str,
    setup_s: f64,
    latency_run: &Run,
    throughput_run: &Run,
    also: &[&Run],
    host: &HostSpeed,
    peak_rss: f64,
) -> Report {
    let mut attempted = latency_run.attempted;
    let mut failed = latency_run.failed;
    for run in also {
        attempted += run.attempted;
        failed += run.failed;
    }
    let limit = latency_limit_ms(workload);
    println!(
        "wall clock: throughput_ops_s {:.4} 1/s, latency_p50_ms {:.4} ms, latency_p95_ms {:.4} ms, goodput_ops_s {:.4} 1/s",
        throughput_run.throughput(),
        quantile(&latency_run.latencies_ms, 0.50),
        quantile(&latency_run.latencies_ms, 0.95),
        latency_run.goodput(limit)
    );
    let (kernel_ms, samples) = host.kernel_ms();
    let index = host.index();
    println!(
        "host speed: kernel median {kernel_ms:.4} ms over {samples} samples, reference {} ms: index {index:.4}; times below are wall clock / index",
        host::REFERENCE_MS
    );
    let latency_run = &latency_run.at_reference(index);
    let throughput_run = &throughput_run.at_reference(index);
    let n = latency_run.completed();
    let beyond_p95 = n - (0.95 * n as f64).ceil() as usize;
    println!("latency samples {n} ({beyond_p95} beyond p95); goodput limit {limit} ref_ms");
    let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|q| {
            format!(
                "p{}={:.3}",
                q * 100.0,
                quantile(&latency_run.latencies_ms, *q)
            )
        })
        .collect();
    println!("latency ref_ms: {}", deciles.join(" "));
    if beyond_p95 < 10 {
        println!("warning: fewer than 10 samples beyond p95; lengthen the run");
    }
    println!(
        "failed_share {:.6} ({failed} of {attempted} ops)",
        failed as f64 / attempted.max(1) as f64
    );
    Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_ops_s", throughput_run.throughput(), "1/ref_s"),
            (
                "latency_p50_ms",
                quantile(&latency_run.latencies_ms, 0.50),
                "ref_ms",
            ),
            (
                "latency_p95_ms",
                quantile(&latency_run.latencies_ms, 0.95),
                "ref_ms",
            ),
            ("goodput_ops_s", latency_run.goodput(limit), "1/ref_s"),
            (
                "success_share",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "share",
            ),
            ("peak_rss_mb", peak_rss, "MB"),
        ],
    }
}

/// The traced run: an untraced closed-loop window, then the same seed
/// traced on a fresh set-up, each half the run. The difference in
/// throughput is the tracing overhead.
fn traced(
    workload: &str,
    seed: u64,
    window: Duration,
    host: &HostSpeed,
    fresh_dir: &mut dyn FnMut() -> Result<PathBuf, String>,
) -> Result<Report, String> {
    let half = window / 2;
    let mut layers = Layers::default();
    let mut extra = layers::OpTrace::default();
    // Ops run outside the two compared windows, counted in the result.
    let mut other = Run::default();
    let (untraced, traced) = match workload {
        "cold_corpus" => {
            let mut cold = Cold::setup()?;
            let untraced = serial_loop(half, host, || cold.op())?;
            let traced = traced_closed(half, host, &mut layers, || cold.traced_op())?;
            layers.check_deterministic()?;
            println!(
                "determinism: {} counters repeat exactly across {} traced ops",
                layers::DETERMINISTIC.len(),
                layers.ops.len()
            );
            (untraced, traced)
        }
        "edit_loop" => {
            let mut edit = EditLoop::setup(&fresh_dir()?, seed)?;
            let untraced = serial_loop(half, host, || edit.op())?;
            let mut edit = EditLoop::setup(&fresh_dir()?, seed)?;
            let traced = traced_closed(half, host, &mut layers, || edit.traced_op())?;
            print_shares(
                "edit",
                &[("new_goal", edit.new_edits), ("revert", edit.reverts)],
            );
            (untraced, traced)
        }
        _ => {
            let service = ServiceMix::setup(&fresh_dir()?, seed)?;
            let open = open_loop(
                half / 2,
                SERVICE_RATE,
                workloads::workers(),
                Duration::from_secs(10),
                host,
                |_| service.op(&service.next_request()),
            )?;
            extra
                .values
                .insert("harness.gen_lag_p95_ms", quantile(&open.gen_lag_ms, 0.95));
            extra
                .values
                .insert("harness.backlog_end", open.backlog_end as f64);
            other = open;
            let untraced = serial_loop(half / 2, host, || service.op(&service.next_request()))?;
            service.shutdown()?;
            let mut service = ServiceMix::setup(&fresh_dir()?, seed)?;
            let traced = traced_closed(half, host, &mut layers, || service.traced_op())?;
            service.counters(&mut extra)?;
            let hits = *service.resident_hits.lock().expect("hits");
            extra.values.insert(
                "service.resident_hit_share",
                hits as f64 / traced.completed().max(1) as f64,
            );
            print_shares("request", &service.kinds.lock().expect("kinds").clone());
            service.shutdown()?;
            (untraced, traced)
        }
    };
    extra.values.insert(
        "harness.trace_overhead_share",
        1.0 - traced.throughput() / untraced.throughput(),
    );
    println!(
        "tracing overhead: traced {:.3} ops/s vs untraced {:.3} ops/s on the same seed",
        traced.throughput(),
        untraced.throughput()
    );
    layers::print_self_times(&layers);
    println!(
        "smt.solve_ms is {:.1}% of the op ({} traced ops)",
        100.0 * layers.median("smt.solve_ms") / layers.median("api.corpus_ms"),
        layers.ops.len()
    );
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = extra
                .values
                .get(name)
                .copied()
                .unwrap_or_else(|| layers.median(name));
            (*name, if value.is_nan() { 0.0 } else { value }, *unit)
        })
        .collect();
    Ok(Report {
        attempted: untraced.attempted + traced.attempted + other.attempted,
        failed: untraced.failed + traced.failed + other.failed,
        metrics,
    })
}

/// One closed-loop window of traced ops, collecting their traces.
fn traced_closed(
    window: Duration,
    host: &HostSpeed,
    layers: &mut Layers,
    mut op: impl FnMut() -> Result<(Outcome, layers::OpTrace), String>,
) -> Result<Run, String> {
    serial_loop(window, host, || {
        let (outcome, trace) = op()?;
        layers.ops.push(trace);
        Ok(outcome)
    })
}

fn print_shares(what: &str, counts: &[(&'static str, usize)]) {
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    for (kind, n) in counts {
        println!(
            "{what} share {kind} {:.4} ({n} of {total})",
            *n as f64 / total.max(1) as f64
        );
    }
}

/// Peak resident memory of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_result(result: &Report) {
    let mut metrics = Vec::new();
    for (name, value, unit) in &result.metrics {
        println!("metric {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}
