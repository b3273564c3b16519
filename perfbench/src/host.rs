//! Host-side measurement: the wall clock, a calibration workload that
//! tracks the host's speed, and peak memory.
//!
//! On a shared machine the speed of one core drifts by up to 2x over
//! seconds to minutes, invisibly to the guest (no steal time is
//! reported). Timed stretches of simulation are therefore bracketed by a
//! fixed calibration workload, independent of the simulator, and reported
//! in *calibrated seconds*: raw seconds scaled by how much slower the
//! calibration ran than its reference time. A change to the program moves
//! the timed stretches but never the calibration.

use std::time::Instant;

/// Seconds [`calibrate`] takes on the reference host (an idle
/// 2-vCPU Xeon VM). It sets the scale of calibrated seconds only.
pub const CAL_REF_S: f64 = 0.055;

/// How much more the simulator slows than [`calibrate`] when the host
/// is busy, as an exponent: a host on which the calibration runs `k`
/// times slower runs the simulator about `k^1.5` times slower. Fitted
/// on 39 runs of the three workloads on a 2-vCPU Xeon VM whose
/// calibration varied from 0.046 s to 0.074 s (per-workload fits 1.2 to
/// 1.6). With exponent 1 the calibrated `sim_rate` of ten runs per
/// workload still spread 7–13% between quartiles; with 1.5, later sets
/// of ten spread 2–7%.
pub const CAL_SENSITIVITY: f64 = 1.5;

/// Host wall clock, for host-side measurement only.
#[allow(clippy::disallowed_methods)] // host-only instrumentation scope
pub fn host_now() -> Instant {
    Instant::now()
}

/// Nanoseconds elapsed on the host clock since `since`.
pub fn host_elapsed_ns(since: Instant) -> u64 {
    host_now().duration_since(since).as_nanos() as u64
}

/// Runs the calibration workload and returns its wall seconds: a small
/// discrete-event loop — a binary heap of timestamped events, boxed
/// payloads and a ring of counters — shaped like the simulator's own hot
/// loop but sharing none of its code.
pub fn calibrate() -> f64 {
    let start = host_now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = std::collections::BinaryHeap::new();
    for i in 0..4096u64 {
        heap.push(std::cmp::Reverse((next() % 1_000_000, i)));
    }
    let mut counters = vec![0u64; 1024];
    let mut payloads: Vec<Box<[u64; 4]>> = Vec::with_capacity(64);
    for _ in 0..500_000 {
        let std::cmp::Reverse((t, id)) = heap.pop().expect("events pending");
        counters[(id % 1024) as usize] += t & 0xff;
        if payloads.len() == 64 {
            payloads.clear();
        }
        payloads.push(Box::new([t, id, t ^ id, 0]));
        heap.push(std::cmp::Reverse((t + 1 + next() % 10_000, id)));
    }
    std::hint::black_box((counters.iter().sum::<u64>(), payloads.len()));
    host_elapsed_ns(start) as f64 / 1e9
}

/// Times intervals in calibrated seconds. Each interval is scaled by the
/// mean of the calibrations just before and just after it.
pub struct CalibratedClock {
    last_cal: f64,
    /// Every calibration taken, seconds.
    pub calibrations: Vec<f64>,
}

/// Host time of one interval, or the sum of several.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Wall seconds.
    pub raw_s: f64,
    /// Wall seconds scaled to the reference host's speed.
    pub cal_s: f64,
}

impl CalibratedClock {
    /// Takes the first calibration.
    pub fn new() -> Self {
        let first = calibrate();
        CalibratedClock {
            last_cal: first,
            calibrations: vec![first],
        }
    }

    /// Runs `f` and times it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (Timing, R) {
        let start = host_now();
        let r = f();
        let raw_s = host_elapsed_ns(start) as f64 / 1e9;
        let scale = self.scale_after();
        (
            Timing {
                raw_s,
                cal_s: raw_s * scale,
            },
            r,
        )
    }

    /// Calibrates again and returns the factor that scales the host
    /// time spent since the previous calibration to the reference host.
    pub fn scale_after(&mut self) -> f64 {
        let next = calibrate();
        self.calibrations.push(next);
        let scale = (CAL_REF_S / ((self.last_cal + next) / 2.0)).powf(CAL_SENSITIVITY);
        self.last_cal = next;
        scale
    }
}

/// Times the pieces of one repetition — its separate simulation runs —
/// and recalibrates after every half second or so of them, so the
/// calibrations track the host's speed closely without costing much.
/// Without a clock it only runs the pieces.
pub struct Stopwatch<'c> {
    clock: Option<&'c mut CalibratedClock>,
    /// Raw seconds of pieces since the last calibration.
    pending_s: f64,
    total: Timing,
}

/// Raw seconds of pieces between calibrations, at least.
const RECALIBRATE_AFTER_S: f64 = 0.5;

impl<'c> Stopwatch<'c> {
    /// A stopwatch timing with `clock`.
    pub fn timing(clock: &'c mut CalibratedClock) -> Self {
        Stopwatch {
            clock: Some(clock),
            pending_s: 0.0,
            total: Timing::default(),
        }
    }

    /// A stopwatch that times nothing.
    pub fn untimed() -> Self {
        Stopwatch {
            clock: None,
            pending_s: 0.0,
            total: Timing::default(),
        }
    }

    /// Runs one piece, timing it when the stopwatch has a clock.
    pub fn piece<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.clock.is_none() {
            return f();
        }
        let start = host_now();
        let r = f();
        self.pending_s += host_elapsed_ns(start) as f64 / 1e9;
        if self.pending_s >= RECALIBRATE_AFTER_S {
            self.calibrate();
        }
        r
    }

    fn calibrate(&mut self) {
        if let Some(clock) = self.clock.as_deref_mut() {
            if self.pending_s > 0.0 {
                let scale = clock.scale_after();
                self.total.raw_s += self.pending_s;
                self.total.cal_s += self.pending_s * scale;
                self.pending_s = 0.0;
            }
        }
    }

    /// The host time of all pieces.
    pub fn finish(mut self) -> Timing {
        self.calibrate();
        self.total
    }
}

/// Peak resident set of this process, MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
