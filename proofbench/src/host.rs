//! Host-speed reference. The shared host this benchmark was tuned on
//! changes speed by up to 2x for minutes at a time, through other
//! tenants' load on its caches, memory and CPU share. Those changes move
//! every timing of a run together, and no estimator inside one run can
//! tell them from a slower program. So the benchmark interleaves short,
//! fixed bursts of reference work with the measured work and reports each
//! timing in seconds of a host running the burst at its reference speed,
//! the way the DIMACS challenges scaled solver times by a machine
//! benchmark. The burst is frozen code of the benchmark's own, so a
//! faster or slower program moves the reported times in full.

use std::hint::black_box;
use std::time::Instant;

/// Mean burst time, in seconds, on the tuning host (2-core 2.1 GHz Xeon)
/// at its usual speed: the unit the normalized timings are stated in.
const REFERENCE_BURST_S: f64 = 0.0038;
/// A burst follows every `BURST_EVERY_S` of measured work, so about a
/// tenth of a run goes to bursts and every pass and set-up holds many.
const BURST_EVERY_S: f64 = 0.03;

/// The reference work: small vectors built, filled and folded, as the
/// solver's per-solve vectors, clauses and watch lists are. Over 36 s
/// windows of the same solves, dividing by its mean time cut the host's
/// spread of solve time more than a dense floating-point kernel, an
/// irregular-load kernel, a hash-map kernel, the four together, an
/// integer loop, or a pointer chase through 1 MB or 32 MB (README.md).
fn burst() -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..75_000u64 {
        let v: Vec<u64> =
            (0..i % 64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ acc).collect();
        acc = acc.rotate_left(5) ^ black_box(v).iter().fold(0u64, |a, x| a.wrapping_add(*x));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The bursts of one run, in order.
#[derive(Default)]
pub struct Host {
    bursts: Vec<f64>,
    work_since_burst: f64,
}

impl Host {
    /// Notes `work_s` seconds of measured work, and runs a burst once
    /// `BURST_EVERY_S` of it has gone by since the last one.
    pub fn after_work(&mut self, work_s: f64) {
        self.work_since_burst += work_s;
        if self.work_since_burst >= BURST_EVERY_S {
            self.work_since_burst = 0.0;
            self.bursts.push(burst());
        }
    }

    /// Marks the start of a stretch of work; see [`Host::slowdown_since`].
    pub fn mark(&self) -> usize {
        self.bursts.len()
    }

    /// How much slower than its reference speed the host ran since
    /// `mark`: the mean burst time over the reference. Runs one burst
    /// first if the stretch held none.
    pub fn slowdown_since(&mut self, mark: usize) -> f64 {
        if self.bursts.len() == mark {
            self.bursts.push(burst());
        }
        let stretch = &self.bursts[mark..];
        stretch.iter().sum::<f64>() / stretch.len() as f64 / REFERENCE_BURST_S
    }
}
