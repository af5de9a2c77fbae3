//! The timing loop behind the layer probes: tight single-thread loops
//! over fixed inputs, reported as the median batch.

use std::time::Instant;

use crate::stats::median;

/// Batches per probe; the metric is the median batch.
pub const BATCHES: usize = 21;

/// Median wall nanoseconds per call of `op`, over [`BATCHES`] batches of
/// `per_batch` calls, after one untimed batch. `op` must pass its
/// inputs and results through `std::hint::black_box`.
pub fn ns_per_call(per_batch: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..per_batch {
        op();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}
