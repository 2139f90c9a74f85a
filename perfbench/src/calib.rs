//! Host-speed calibration.
//!
//! The host's speed drifts: on a 2-vCPU VM whose neighbours share its
//! cores, a fixed loop runs 20–50 % slower for stretches of seconds to
//! minutes while they are busy. That drift is wider than any bound a
//! timing metric could carry, and taking each point's fastest run does
//! not remove it (whether a run catches a fast stretch is itself
//! chance). So a fixed piece of work that belongs to the benchmark, not
//! to the compiler, runs before the first timed run and after every
//! timed run, and each run's time is scaled by how fast that work ran
//! around it. Times are reported in *calibrated* milliseconds: the time
//! the run would have taken on a host that does the calibration work in
//! [`NOMINAL_MS`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one calibration takes on a host at nominal speed. A constant,
/// so calibrated times compare across processes and commits.
pub const NOMINAL_MS: f64 = 0.2;

/// Calibration samples on each side of a run that its scale is taken
/// over; their median smooths the calibration's own noise.
const HALF_WINDOW: usize = 4;

/// Calibration samples taken between timed runs, in order.
#[derive(Default)]
pub struct Clock {
    samples: Vec<f64>,
}

impl Clock {
    /// Runs the calibration work twice and records the wall time of the
    /// second. Call it before the first timed run and after every timed
    /// run, so run `j` lies between samples `j` and `j + 1`. The first
    /// repetition brings the work's code and data back into the caches
    /// the run evicted: those misses cost about the same whatever the
    /// host's speed, so timing them made the calibration slow down less
    /// than the compiler does.
    pub fn sample(&mut self) {
        black_box(work(black_box(0x9e37_79b9)));
        let start = Instant::now();
        black_box(work(black_box(0x9e37_79b9)));
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Calibrated ms of timed run `j` that took `wall`: its time scaled
    /// by the nominal over the median calibration around it.
    pub fn calibrated_ms(&self, j: usize, wall: Duration) -> f64 {
        let lo = j.saturating_sub(HALF_WINDOW);
        let hi = (j + 1 + HALF_WINDOW).min(self.samples.len() - 1);
        let mut around = self.samples[lo..=hi].to_vec();
        wall.as_secs_f64() * 1e3 * NOMINAL_MS / crate::median(&mut around)
    }

    /// The median calibration over all samples, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::median(&mut self.samples.clone())
    }
}

/// A mix close to the compiler's own: a fixed-point filter over a short
/// stream (the accuracy trials), counting into a small hash map (the
/// analyses' memo tables) and sorting (candidate ordering). The map's
/// hasher has fixed keys, so every process does the same work. Of the
/// mixes tried, this one left the least run-to-run spread in calibrated
/// times within a process; an ordered map or a pointer chase over a
/// large array tracked the host's speed worse.
fn work(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let taps: Vec<f64> = (0..16).map(|_| (next() % 1000) as f64 / 1000.0).collect();
    let stream: Vec<f64> = (0..2048)
        .map(|_| (next() % 2000) as f64 / 1000.0 - 1.0)
        .collect();
    let mut acc = 0.0;
    for w in stream.windows(taps.len()) {
        let y: f64 = w.iter().zip(&taps).map(|(a, b)| a * b).sum();
        acc += (y * 4096.0).round() / 4096.0;
    }
    let mut memo: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..4096 {
        *memo.entry(next() % 256).or_insert(0) += 1;
    }
    let mut keys: Vec<u64> = (0..4096).map(|_| next()).collect();
    keys.sort_unstable();
    acc.to_bits() ^ memo.len() as u64 ^ keys[keys.len() / 2]
}
