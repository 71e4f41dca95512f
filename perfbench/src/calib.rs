//! Host-speed reference.
//!
//! The benchmark shares its host, whose speed drifts by tens of percent
//! over seconds. To gate on the code rather than the host, the timed loops
//! interleave short runs of a fixed reference computation (the
//! benchmark's own code, independent of the program under test) and scale
//! their times by `NOMINAL_NS / reference time`, measured in the same
//! stretch of the run. A slower host stretches both equally, so the ratio
//! stays put; a slower program stretches only the workload.

use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one reference unit, in ns: its uncontended time on
/// the 2-core Xeon VM the benchmark was tuned on. It only fixes the scale
/// of the reported times.
pub const NOMINAL_NS: f64 = 26_000.0;

const WORDS: usize = 1024;

/// The reference computation: float arithmetic with `ln`/`sqrt` and a
/// dependent walk over an 8 KiB table — the instruction mix of the density
/// kernels and node decode.
pub struct Reference {
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// A reference with its table built.
    #[must_use]
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self { table }
    }

    /// Runs one unit and returns its duration in ns. The table is walked
    /// once untimed first, so the timed walk runs from L1 whatever the
    /// workload left in the caches: the unit measures core speed, not the
    /// workload's own cache footprint.
    pub fn unit(&self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, &w| a ^ w));
        let t = Instant::now();
        let mut acc = 1.0f64;
        let mut idx = 0usize;
        for i in 0..600 {
            let w = self.table[idx];
            idx = (w as usize ^ i) % WORDS;
            let f = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64) + 0.5;
            acc += (f * acc).sqrt().ln_1p() - 0.5 * f.ln();
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64
    }
}

/// Per-sample scale factors: sample `i` is scaled by `NOMINAL_NS` over the
/// median reference time of the `2 * half + 1` samples around it.
#[must_use]
pub fn local_scales(reference_ns: &[f64], half: usize) -> Vec<f64> {
    (0..reference_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(reference_ns.len());
            NOMINAL_NS / crate::metrics::median(&reference_ns[lo..hi])
        })
        .collect()
}

/// Scale factor for a stretch that could not be interleaved (one bulk
/// load, one set-up replay): from the median of reference units run right
/// after it.
#[must_use]
pub fn bracket_scale(reference: &Reference) -> f64 {
    let units: Vec<f64> = (0..25).map(|_| reference.unit()).collect();
    NOMINAL_NS / crate::metrics::median(&units)
}
