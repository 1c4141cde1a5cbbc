//! Host-speed calibration.
//!
//! On a shared host the speed left to one process swings by tens of percent
//! within seconds and drifts over minutes, so wall-clock figures of
//! identical work differ between runs and between phases of one run. A
//! fixed kernel that does the platform's kind of work (hashing into a map
//! larger than the caches and into one that stays cached) is timed at
//! points around every timed phase: before and after each set-up,
//! convergence and snapshot capture, between the `LogStore::get` calls of a
//! materialization, and at every replay segment boundary. Each wall-clock
//! sample is scaled by [`REFERENCE_MS`] over the mean kernel time of the
//! two points around it, so it reads as if the host had run the kernel in
//! exactly [`REFERENCE_MS`] while the sample was taken. The kernel never
//! touches the platform: a change to the platform moves the scaled figures
//! in full.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time the scaled figures are quoted at, milliseconds.
pub const REFERENCE_MS: f64 = 16.0;

/// Kernel runs per calibration point; the point is their median.
const RUNS_PER_POINT: usize = 3;

/// Entries the kernel inserts into its large map, which outgrows the
/// caches.
const KEYS: u64 = 100_000;

/// Key range of the kernel's small map, which stays in cache.
const SMALL_KEYS: u64 = 4096;

/// Inserts into the small map.
const SMALL_INSERTS: u64 = 300_000;

/// The kernel's buffers. They are allocated once and reused, so that the
/// kernel's speed depends on the host and not on the state of the heap
/// the platform leaves behind.
struct Kernel {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    small: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut map = HashMap::default();
        map.reserve(KEYS as usize);
        let mut small = HashMap::default();
        small.reserve(SMALL_KEYS as usize);
        Kernel { map, small }
    }

    /// The fixed work; returns a checksum so that none of it is optimised
    /// away.
    fn run(&mut self) -> u64 {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.map.clear();
        for i in 0..KEYS {
            *self.map.entry(next() % (4 * KEYS)).or_insert(0) += i;
        }
        let mut sum = 0u64;
        for _ in 0..KEYS {
            let key = next() % (4 * KEYS);
            sum = sum.wrapping_add(self.map.get(&key).copied().unwrap_or(1));
        }
        self.small.clear();
        for i in 0..SMALL_INSERTS {
            *self.small.entry(next() % SMALL_KEYS).or_insert(0) += i;
        }
        sum.wrapping_add(self.small.len() as u64)
    }
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::new());
}

/// Kernel time at one point, milliseconds: the median of a few runs.
pub fn point() -> f64 {
    KERNEL.with(|kernel| {
        let mut kernel = kernel.borrow_mut();
        let mut runs = [0.0; RUNS_PER_POINT];
        for run in &mut runs {
            let start = Instant::now();
            black_box(kernel.run());
            *run = start.elapsed().as_secs_f64() * 1000.0;
        }
        runs.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
        runs[RUNS_PER_POINT / 2]
    })
}

/// The factor that scales a sample taken between two points with kernel
/// times `before` and `after` to reference host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_MS / (before + after)
}

/// Scale the samples taken between consecutive points: sample `i` lies
/// between `points[i]` and `points[i + 1]`.
pub fn scales(points: &[f64]) -> Vec<f64> {
    points.windows(2).map(|p| scale(p[0], p[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_by_one() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
        assert_eq!(scales(&[32.0, 32.0, 16.0]), vec![0.5, 2.0 / 3.0]);
    }

    #[test]
    fn point_times_the_kernel() {
        assert!(point() > 0.0);
    }
}
