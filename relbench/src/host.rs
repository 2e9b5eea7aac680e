//! The host-speed index: how fast the machine runs a fixed piece of work
//! right now.
//!
//! On a shared host the speed of the same binary drifts by up to 2x over
//! minutes (neighbours on the same cores), which swamps any change a
//! later commit could make. The loops in `drive` therefore run a fixed
//! kernel between ops, about every [`EVERY`], and the end-to-end times
//! are reported at the reference speed: wall time times
//! `REFERENCE_MS / median kernel time`. The kernel is the benchmark's own
//! code (hashing, allocation, sorting), so a change to the program under
//! test cannot move it. The raw wall-clock values are printed beside the
//! reported ones.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host, in milliseconds.
pub const REFERENCE_MS: f64 = 1.0;

/// How often the loops sample the kernel. At about 1 ms a sample this
/// takes about half a percent of a run.
pub const EVERY: Duration = Duration::from_millis(200);

/// Kernel timings taken during one run.
#[derive(Default)]
pub struct HostSpeed {
    samples_ms: Mutex<Vec<f64>>,
    last: Mutex<Option<Instant>>,
}

impl HostSpeed {
    /// Times the kernel once if [`EVERY`] has passed since the last
    /// sample (or none was taken yet). Safe to call from several lanes.
    pub fn sample_if_due(&self) {
        {
            let mut last = self.last.lock().expect("last sample");
            let now = Instant::now();
            if last.is_some_and(|at| now.duration_since(at) < EVERY) {
                return;
            }
            *last = Some(now);
        }
        let started = Instant::now();
        std::hint::black_box(kernel());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.lock().expect("samples").push(ms);
    }

    /// The median kernel time and the number of samples.
    pub fn kernel_ms(&self) -> (f64, usize) {
        let samples = self.samples_ms.lock().expect("samples");
        (crate::drive::median(&samples), samples.len())
    }

    /// How much slower than the reference host this run was: divide a
    /// time by it to get the time at the reference speed.
    pub fn index(&self) -> f64 {
        self.kernel_ms().0 / REFERENCE_MS
    }
}

/// A fixed mix of string formatting, hashing, allocation and sorting,
/// about 1 ms on the reference host.
fn kernel() -> u64 {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut values = Vec::with_capacity(4000);
    let mut x: u64 = 0x0139_408d_cbbf_7a44;
    for i in 0..4000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x % 100_000);
        *counts.entry(format!("k{}", x % 1500)).or_insert(0) += i;
    }
    values.sort_unstable();
    counts.values().sum::<u64>() + values[values.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_rate_limited_and_the_index_is_their_median() {
        let host = HostSpeed::default();
        host.sample_if_due();
        host.sample_if_due();
        assert_eq!(host.kernel_ms().1, 1, "a second sample within EVERY");
        std::thread::sleep(EVERY);
        host.sample_if_due();
        let (ms, n) = host.kernel_ms();
        assert_eq!(n, 2);
        assert!(ms > 0.0 && (host.index() - ms / REFERENCE_MS).abs() < 1e-12);
    }
}
