//! Host-speed calibration for the end-to-end times.
//!
//! On a machine shared with other tenants, the simulator's speed drifts
//! with contention for caches and memory, in phases from seconds to tens
//! of minutes: the same simulation took from 175 to 400 ms on a 2-vCPU
//! Intel Xeon virtual machine while an ALU-only loop held within 10 %. A
//! median over a run cannot average out a phase that lasts the whole run.
//! So the client times a fixed routine of this package, which shares no
//! code with the program, between every two timed steps, and scales each
//! step by [`REF_MS`] over the routine's mean time around it. Steps report
//! seconds on a host where the routine takes `REF_MS`; the raw figures are
//! printed beside them.
//!
//! The routine churns small heap vectors through a fixed pool, which of the
//! routines tried tracked the simulator's slowdown best (allocation and
//! pointer-heavy access into a working set of about a megabyte).

use std::hint::black_box;
use std::time::Instant;

/// The routine's time on the reference host, in milliseconds.
pub const REF_MS: f64 = 5.0;

/// Vectors kept alive by the routine.
const POOL: usize = 1024;
/// Allocations per sample.
const STEPS: usize = 60_000;

#[derive(Debug)]
pub struct HostSpeed {
    pool: Vec<Vec<u64>>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            pool: Vec::with_capacity(POOL + 1),
        }
    }

    /// Times one run of the routine, in milliseconds. The routine is the
    /// same on every call: a fixed xorshift stream picks each vector's
    /// length and which live vector to free.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut freed = 0usize;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.pool.push(vec![x; (x % 64) as usize + 1]);
            if self.pool.len() > POOL {
                let victim = (x >> 32) as usize % self.pool.len();
                freed += self.pool.swap_remove(victim).len();
            }
        }
        black_box(freed);
        self.pool.clear();
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Scales a raw duration by the host speed around it: `before` and
/// `after` are the routine's times just before and after the step.
pub fn normalize(raw: f64, before: f64, after: f64) -> f64 {
    raw * 2.0 * REF_MS / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_by_reference_over_measured() {
        assert_eq!(normalize(1.0, REF_MS, REF_MS), 1.0);
        assert_eq!(normalize(1.0, 2.0 * REF_MS, 2.0 * REF_MS), 0.5);
        assert_eq!(normalize(3.0, REF_MS / 2.0, REF_MS * 1.5), 3.0);
    }

    #[test]
    fn the_routine_takes_time_and_keeps_no_memory() {
        let mut h = HostSpeed::new();
        assert!(h.sample() > 0.0);
        assert!(h.pool.is_empty());
    }
}
