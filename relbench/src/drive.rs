//! Load generators and the statistics they report.
//!
//! * [`closed_loop`]: each lane sends its next op only after the previous
//!   one completes.
//! * [`open_loop`]: ops fall due on a fixed schedule whether or not
//!   earlier ones completed. Latency is timed from the due time, so a
//!   stall also delays every op that fell due behind it.
//!
//! Every loop samples the host's speed between ops (see `host`).

use crate::host::HostSpeed;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How one op ended. `Err` from an op is fatal (a wrong verdict) and
/// stops the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Failed,
}

/// What a loop measured.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Per-op latency of every completed op, in completion order.
    pub latencies_ms: Vec<f64>,
    /// The latencies of the ops that succeeded.
    pub ok_latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Wall time from the first op's start (or due time) to the last
    /// op's completion.
    pub elapsed_s: f64,
    /// Open loop only: how late the generator released each op.
    pub gen_lag_ms: Vec<f64>,
    /// Open loop only: ops due but not yet started when the schedule
    /// ended.
    pub backlog_end: usize,
    /// Open loop: `elapsed_s` follows the schedule, not the work.
    pub scheduled: bool,
}

impl Run {
    pub fn completed(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Completed ops per second.
    pub fn throughput(&self) -> f64 {
        self.completed() as f64 / self.elapsed_s
    }

    /// Ops that succeeded within `limit_ms`, per second. Failed ops count
    /// as missing the limit.
    pub fn goodput(&self, limit_ms: f64) -> f64 {
        self.ok_latencies_ms
            .iter()
            .filter(|&&l| l <= limit_ms)
            .count() as f64
            / self.elapsed_s
    }

    /// The run at the reference host speed: every time the work took is
    /// divided by `index` (see `host`). An open loop's elapsed time is
    /// its schedule and stays.
    pub fn at_reference(&self, index: f64) -> Run {
        let scale = |ms: &Vec<f64>| ms.iter().map(|l| l / index).collect();
        Run {
            latencies_ms: scale(&self.latencies_ms),
            ok_latencies_ms: scale(&self.ok_latencies_ms),
            elapsed_s: if self.scheduled {
                self.elapsed_s
            } else {
                self.elapsed_s / index
            },
            ..self.clone()
        }
    }
}

/// The `q`-quantile (nearest rank) of `values`; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Per-op results a loop collects from its lanes.
#[derive(Default)]
struct Sink {
    latencies_ms: Vec<f64>,
    ok_latencies_ms: Vec<f64>,
    failed: usize,
    attempted: usize,
    last_done: Option<Instant>,
    fatal: Option<String>,
}

impl Sink {
    fn record(&mut self, started: Instant, result: Result<Outcome, String>) {
        let done = Instant::now();
        self.attempted += 1;
        match result {
            Ok(outcome) => {
                let ms = done.duration_since(started).as_secs_f64() * 1e3;
                self.latencies_ms.push(ms);
                if outcome == Outcome::Ok {
                    self.ok_latencies_ms.push(ms);
                } else {
                    self.failed += 1;
                }
            }
            Err(e) => {
                self.fatal.get_or_insert(e);
            }
        }
        self.last_done = Some(done);
    }
}

/// A loop's result: the run, or the first fatal error.
pub type Driven = Result<Run, String>;

/// Runs `lanes` closed-loop clients for `window`.
pub fn closed_loop<F>(window: Duration, lanes: usize, host: &HostSpeed, op: F) -> Driven
where
    F: Fn() -> Result<Outcome, String> + Sync,
{
    let sink = Mutex::new(Sink::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            let (sink, op) = (&sink, &op);
            scope.spawn(move || loop {
                if start.elapsed() >= window || sink.lock().expect("sink").fatal.is_some() {
                    break;
                }
                let started = Instant::now();
                let result = op();
                sink.lock().expect("sink").record(started, result);
                host.sample_if_due();
            });
        }
    });
    finish(sink.into_inner().expect("sink"), start, Vec::new(), 0)
}

/// [`closed_loop`] with one lane, on the calling thread.
pub fn serial_loop(
    window: Duration,
    host: &HostSpeed,
    mut op: impl FnMut() -> Result<Outcome, String>,
) -> Driven {
    let mut sink = Sink::default();
    let start = Instant::now();
    while start.elapsed() < window && sink.fatal.is_none() {
        let started = Instant::now();
        let result = op();
        sink.record(started, result);
        host.sample_if_due();
    }
    finish(sink, start, Vec::new(), 0)
}

/// Runs an open loop: op `i` falls due at `i / rate` seconds, for
/// `window`, and `lanes` workers take due ops in order. Ops still queued
/// `drain` after the schedule ends are counted as failed. The generator
/// samples the host's speed while it waits for the next due time.
pub fn open_loop<F>(
    window: Duration,
    rate: f64,
    lanes: usize,
    drain: Duration,
    host: &HostSpeed,
    op: F,
) -> Driven
where
    F: Fn(usize) -> Result<Outcome, String> + Sync,
{
    struct Queue {
        due: VecDeque<(usize, Instant)>,
        closed: bool,
    }
    let queue = Mutex::new(Queue {
        due: VecDeque::new(),
        closed: false,
    });
    let ready = Condvar::new();
    let sink = Mutex::new(Sink::default());
    let start = Instant::now();
    let deadline = start + window + drain;
    let mut gen_lag_ms = Vec::new();
    let mut backlog_end = 0;
    let mut abandoned = 0;
    std::thread::scope(|scope| {
        for _ in 0..lanes {
            let (queue, ready, sink, op) = (&queue, &ready, &sink, &op);
            scope.spawn(move || loop {
                let (i, due) = {
                    let mut q = queue.lock().expect("queue");
                    loop {
                        if let Some(item) = q.due.pop_front() {
                            break item;
                        }
                        if q.closed {
                            return;
                        }
                        q = ready.wait(q).expect("queue");
                    }
                };
                let result = op(i);
                let fatal = {
                    let mut sink = sink.lock().expect("sink");
                    sink.record(due, result);
                    sink.fatal.is_some()
                };
                if fatal || Instant::now() >= deadline {
                    return;
                }
            });
        }
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut i = 0usize;
        loop {
            let due = start + interval * u32::try_from(i).expect("op count fits u32");
            if due >= start + window || sink.lock().expect("sink").fatal.is_some() {
                break;
            }
            if due > Instant::now() + SAMPLE_SLACK {
                host.sample_if_due();
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            queue.lock().expect("queue").due.push_back((i, due));
            gen_lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            ready.notify_one();
            i += 1;
        }
        backlog_end = queue.lock().expect("queue").due.len();
        // Let the lanes drain what is queued, up to the drain deadline.
        while Instant::now() < deadline && !queue.lock().expect("queue").due.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut q = queue.lock().expect("queue");
        abandoned = q.due.len();
        q.due.clear();
        q.closed = true;
        drop(q);
        ready.notify_all();
    });
    let mut sink = sink.into_inner().expect("sink");
    sink.attempted += abandoned;
    sink.failed += abandoned;
    let mut run = finish(sink, start, gen_lag_ms, backlog_end)?;
    run.scheduled = true;
    Ok(run)
}

/// The open-loop generator samples the host only with at least this much
/// time before the next due op, so sampling never delays one.
const SAMPLE_SLACK: Duration = Duration::from_millis(3);

fn finish(sink: Sink, start: Instant, gen_lag_ms: Vec<f64>, backlog_end: usize) -> Driven {
    if let Some(fatal) = sink.fatal {
        return Err(fatal);
    }
    let elapsed_s = sink
        .last_done
        .map_or(0.0, |done| done.duration_since(start).as_secs_f64());
    Ok(Run {
        latencies_ms: sink.latencies_ms,
        ok_latencies_ms: sink.ok_latencies_ms,
        attempted: sink.attempted,
        failed: sink.failed,
        elapsed_s,
        gen_lag_ms,
        backlog_end,
        scheduled: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that stalls once: the ops that fell due during the stall
    /// must show it in their latency, not just the op that stalled.
    #[test]
    fn a_stalling_sink_shows_in_open_loop_latency() {
        let stall = Duration::from_millis(300);
        let run = open_loop(
            Duration::from_millis(1_000),
            100.0,
            1,
            Duration::from_secs(5),
            &HostSpeed::default(),
            |i| {
                if i == 20 {
                    std::thread::sleep(stall);
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(Outcome::Ok)
            },
        )
        .expect("no fatal op");
        assert_eq!(run.attempted, 100);
        assert_eq!(run.failed, 0);
        // The ops due in the 300 ms behind the stall waited for it.
        let delayed = run.latencies_ms.iter().filter(|&&l| l >= 100.0).count();
        assert!(delayed >= 15, "only {delayed} ops show the stall");
        assert!(quantile(&run.latencies_ms, 0.95) >= 50.0);
        assert!(run.latencies_ms.iter().cloned().fold(0.0, f64::max) >= 290.0);
    }

    #[test]
    fn a_fatal_op_stops_the_loop() {
        let count = std::sync::atomic::AtomicUsize::new(0);
        let result = closed_loop(Duration::from_secs(5), 2, &HostSpeed::default(), || {
            if count.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 3 {
                Err("wrong verdict".to_string())
            } else {
                Ok(Outcome::Ok)
            }
        });
        assert_eq!(result.err().as_deref(), Some("wrong verdict"));
    }

    #[test]
    fn at_reference_scales_work_times_but_not_a_schedule() {
        let closed = Run {
            latencies_ms: vec![2.0, 4.0],
            ok_latencies_ms: vec![2.0],
            attempted: 2,
            elapsed_s: 6.0,
            ..Run::default()
        };
        let fast = closed.at_reference(2.0);
        assert_eq!(fast.latencies_ms, vec![1.0, 2.0]);
        assert_eq!(fast.ok_latencies_ms, vec![1.0]);
        assert_eq!((fast.elapsed_s, fast.attempted), (3.0, 2));
        let open = Run {
            scheduled: true,
            ..closed
        };
        assert_eq!(open.at_reference(2.0).elapsed_s, 6.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.95), 95.0);
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(median(&values), 50.5);
    }
}
