//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed moves with its
//! neighbours' load: the same simulation can take a fifth longer for
//! tens of seconds at a time, longer than any run of this benchmark.
//! Medians within a run cannot remove that, so every time metric is
//! reported in *reference seconds*: host seconds scaled by how fast a
//! fixed calibration kernel ran right next to the timed work,
//!
//! ```text
//! reference s = host s × REFERENCE_KERNEL_S / kernel s
//! ```
//!
//! The kernel is code of this benchmark, not of the simulator, so a
//! change to the simulator moves the host seconds and leaves the kernel
//! alone: a slower program reads slower. The kernel runs in bursts at
//! both ends of a timed stretch and at the checkpoints inside it (fleet
//! cells, planner evaluations) that follow at least half a second of
//! work. A burst's figure is the median of its runs, which drops the
//! host's millisecond hiccups, and each segment of work between two
//! bursts is scaled by the mean of their figures.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// About the kernel's host seconds on the reference machine, a 2-vCPU
/// x86-64 virtual machine (Intel Xeon), when its neighbours leave it
/// at full speed. A reference second is a host second at that speed.
pub const REFERENCE_KERNEL_S: f64 = 0.008;

/// Kernel runs per burst.
const BURST: usize = 5;
/// A checkpoint after less work than this runs no burst.
const MIN_SEGMENT_S: f64 = 0.5;
/// A stretch that starts within this long of the last burst's end
/// reuses that burst.
const REUSE_S: f64 = 0.005;

/// Distinct keys the kernel's map cycles through.
const KERNEL_KEYS: u64 = 1 << 14;
/// Map operations per kernel run.
const KERNEL_OPS: u64 = 24_000;

/// The calibration kernel: hash-map churn over a few hundred KiB with a
/// sort of the live values every 512 operations. Like the simulator, it
/// is branchy, allocates, and walks hashed memory. Its work is fixed:
/// the hasher has fixed keys and the key sequence a fixed seed.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    for k in 0..KERNEL_OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % KERNEL_KEYS, k);
        if k % 3 == 0 {
            acc = acc.wrapping_add(map.remove(&((x >> 7) % KERNEL_KEYS)).unwrap_or(0));
        }
        if k % 512 == 0 {
            let mut live: Vec<u64> = map.values().copied().collect();
            live.sort_unstable();
            acc = acc.wrapping_add(live[live.len() / 2]);
        }
    }
    black_box(acc)
}

/// Median host seconds of one kernel run over a burst.
fn burst() -> f64 {
    let mut runs: Vec<f64> = (0..BURST)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[BURST / 2]
}

/// Host and reference seconds of one timed stretch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Host seconds of the work, kernel runs excluded.
    pub host_s: f64,
    /// The same work in reference seconds.
    pub ref_s: f64,
}

#[derive(Debug)]
struct State {
    /// Figure of the last burst.
    kernel_s: f64,
    /// When the last burst ended.
    burst_end: Instant,
    /// When the current segment of work began.
    since: Instant,
    total: Timed,
}

/// Times stretches of work in host and reference seconds. A meter that
/// is off runs no kernel and reports host seconds for both, so traced
/// runs time the layers without it.
#[derive(Debug)]
pub struct Meter {
    on: bool,
    state: Mutex<State>,
}

impl Meter {
    /// A meter that calibrates when `on`. It runs its first burst here,
    /// which also lets the allocator and caches settle.
    pub fn new(on: bool) -> Meter {
        let now = Instant::now();
        let m = Meter {
            on,
            state: Mutex::new(State {
                kernel_s: REFERENCE_KERNEL_S,
                burst_end: now,
                since: now,
                total: Timed::default(),
            }),
        };
        m.calibrate(&mut m.lock());
        m
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("meter lock poisoned")
    }

    /// Runs a burst and records its figure.
    fn calibrate(&self, s: &mut State) {
        if self.on {
            s.kernel_s = burst();
        }
        s.burst_end = Instant::now();
    }

    /// Closes the segment of work since the last burst, scaled by the
    /// mean of that burst's figure and a new one's.
    fn close(&self, s: &mut State) {
        let host_s = s.since.elapsed().as_secs_f64();
        let before = s.kernel_s;
        self.calibrate(s);
        s.total.host_s += host_s;
        s.total.ref_s += host_s * REFERENCE_KERNEL_S / ((before + s.kernel_s) / 2.0);
        s.since = s.burst_end;
    }

    /// Begins a stretch, with a burst unless one has just ended, and
    /// zeroes the totals.
    fn start(&self) {
        let mut s = self.lock();
        if !self.on || s.burst_end.elapsed().as_secs_f64() > REUSE_S {
            self.calibrate(&mut s);
        }
        s.since = Instant::now();
        s.total = Timed::default();
    }

    /// A point between two units of work: closes the current segment
    /// if it has run long enough to be worth a burst.
    pub fn checkpoint(&self) {
        let mut s = self.lock();
        if s.since.elapsed().as_secs_f64() >= MIN_SEGMENT_S {
            self.close(&mut s);
        }
    }

    /// Ends the stretch and returns its totals.
    fn stop(&self) -> Timed {
        let mut s = self.lock();
        self.close(&mut s);
        s.total
    }

    /// Times `f` as one stretch.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (Timed, R) {
        self.start();
        let r = f();
        (self.stop(), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn the_kernel_does_fixed_work() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_meter_that_is_off_reports_host_seconds() {
        let m = Meter::new(false);
        let (t, ()) = m.time(|| {
            sleep(Duration::from_millis(5));
            m.checkpoint();
            sleep(Duration::from_millis(5));
        });
        assert!(t.host_s >= 0.01);
        assert_eq!(t.host_s, t.ref_s);
    }

    #[test]
    fn segments_add_up_and_kernel_time_is_left_out() {
        let m = Meter::new(true);
        let t0 = Instant::now();
        let (t, ()) = m.time(|| {
            for _ in 0..2 {
                sleep(Duration::from_secs_f64(MIN_SEGMENT_S));
                m.checkpoint();
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(t.host_s >= 2.0 * MIN_SEGMENT_S);
        // Three bursts ran inside the wall interval, at the two
        // checkpoints and at the stop; the host total leaves them out.
        assert!(t.host_s < wall_s - 3.0 * BURST as f64 * 0.001);
        assert!(t.ref_s > 0.0 && t.ref_s.is_finite());
    }

    #[test]
    fn a_stretch_right_after_another_reuses_its_last_burst() {
        let m = Meter::new(true);
        m.time(|| ());
        let end = m.lock().burst_end;
        m.start();
        assert_eq!(m.lock().burst_end, end);
    }
}
