//! CPU time the machine lost to other guests.
//!
//! On a shared virtual machine the hypervisor takes the CPUs away from this
//! guest in bursts that last seconds, and a pass or a second of traffic
//! measured during one reads up to 45% slower. The guest kernel counts that
//! time as steal in `/proc/stat`. A sampler thread records the count every
//! 50 ms, so any interval of a run can be told apart as disturbed, and
//! [`keep`] drops the disturbed intervals before the figures are taken.
//! Where `/proc/stat` has no steal count, nothing is ever dropped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An interval is disturbed when other guests took more than this share of
/// the CPU time the machine wanted during it.
const STEAL_LIMIT: f64 = 0.05;

const PERIOD: Duration = Duration::from_millis(50);

/// Cumulative `(steal, busy)` CPU ticks of the whole machine. Busy time is
/// the time the guest wanted its CPUs: user, nice, system, irq, softirq and
/// steal. An idle CPU loses nothing to other guests, so steal is a share of
/// busy time, not of all time.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let field = |i: usize| ticks.get(i).copied().unwrap_or(0);
    (field(7), [0, 1, 2, 5, 6, 7].iter().map(|&i| field(i)).sum())
}

type Samples = Mutex<Vec<(Instant, u64, u64)>>;

/// Samples the machine's steal count in the background until stopped.
pub struct StealClock {
    samples: Arc<Samples>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StealClock {
    pub fn start() -> Self {
        let samples: Arc<Samples> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (steal, total) = cpu_ticks();
                    samples.lock().expect("steal samples poisoned").push((
                        Instant::now(),
                        steal,
                        total,
                    ));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Self { samples, stop, thread: Some(thread) }
    }

    /// Share of the machine's busy CPU time stolen between `a` and `b`,
    /// from the samples that bracket the interval; 0 when too few exist.
    pub fn fraction(&self, a: Instant, b: Instant) -> f64 {
        let samples = self.samples.lock().expect("steal samples poisoned");
        let before = samples.iter().rev().find(|s| s.0 <= a).or(samples.first());
        let after = samples.iter().find(|s| s.0 >= b).or(samples.last());
        match (before, after) {
            (Some(x), Some(y)) if y.2 > x.2 => (y.1 - x.1) as f64 / (y.2 - x.2) as f64,
            _ => 0.0,
        }
    }

    /// Stops the sampler and waits for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("the steal sampler panicked");
        }
    }
}

/// Which intervals to measure, given the stolen share of each: every
/// interval at or under [`STEAL_LIMIT`], and never fewer than the
/// least-stolen half, nor than `min`, so a figure always rests on half the
/// run or more.
pub fn keep(steal: &[f64], min: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let floor = steal.len().div_ceil(2).max(min);
    let mut kept = vec![false; steal.len()];
    for (rank, &i) in order.iter().enumerate() {
        kept[i] = rank < floor || steal[i] <= STEAL_LIMIT;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_drops_disturbed_intervals_but_never_more_than_half() {
        assert_eq!(keep(&[0.0, 0.01, 0.02], 0), [true, true, true]);
        assert_eq!(keep(&[0.0, 0.2, 0.01, 0.3], 0), [true, false, true, false]);
        // Everything disturbed: the least-stolen half stays.
        assert_eq!(
            keep(&[0.3, 0.1, 0.2, 0.4, 0.15, 0.5], 0),
            [false, true, true, false, true, false]
        );
        assert_eq!(keep(&[0.3, 0.1, 0.2], 0), [false, true, true]);
        // … or more, when a figure needs a minimum count.
        assert_eq!(keep(&[0.3, 0.1, 0.2, 0.4], 3), [true, true, true, false]);
        assert!(keep(&[], 0).is_empty());
    }

    #[test]
    fn fraction_reads_the_bracketing_samples() {
        let clock = StealClock::start();
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(120));
        let f = clock.fraction(a, Instant::now());
        clock.stop();
        assert!((0.0..=1.0).contains(&f));
    }
}
