//! Small measurement helpers: quantiles, a stopwatch, peak memory and
//! the machine-speed calibration.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks (`q = 0.5` is the median). Returns `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A run-length budget: how long a measured loop keeps going.
pub struct Budget {
    start: Instant,
    length: Duration,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    pub fn spent(&self) -> bool {
        self.start.elapsed() >= self.length
    }
}

/// Runs `f` and returns its result with the wall time in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Nominal wall time of one [`Calibration::measure`]: what the reference
/// kernel took on the 2-vCPU Xeon VM the benchmark was tuned on, when
/// that machine was quiet.
pub const REFERENCE_NS: f64 = 2.0e6;

/// Words in each thread's reference buffer (256 KiB: cache-resident,
/// allocated once so a measurement takes no page faults).
const REFERENCE_WORDS: usize = 1 << 15;

/// Iterations of the reference kernel per measurement.
const REFERENCE_ITERS: u32 = 1 << 20;

/// A fixed workload that shares no code with the simulator: SplitMix64
/// hashing with dependent random reads and writes in a small buffer.
fn reference_kernel(buf: &mut [u64]) -> u64 {
    let mask = buf.len() - 1;
    let (mut x, mut acc) = (0u64, 0u64);
    for _ in 0..REFERENCE_ITERS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let j = (z as usize) & mask;
        buf[j] = buf[j].wrapping_add(z);
        acc ^= buf[j.wrapping_mul(7) & mask];
    }
    acc
}

/// Measures how fast the machine is running right now. The other
/// tenants of the VM this benchmark was tuned on slow it down by 20–45%
/// for minutes at a time; the loop runs the reference kernel next to
/// every block and rescales the block's times by
/// `REFERENCE_NS / kernel time`, which cancels most of that drift.
pub struct Calibration {
    buffers: Vec<Vec<u64>>,
}

impl Calibration {
    /// One buffer per thread the workload keeps busy.
    pub fn new(threads: usize) -> Self {
        Self {
            buffers: (0..threads.max(1))
                .map(|_| vec![1; REFERENCE_WORDS])
                .collect(),
        }
    }

    /// Runs the kernel once on each thread at the same time and returns
    /// the mean time in ns.
    pub fn measure(&mut self) -> f64 {
        let run = |buf: &mut Vec<u64>| timed(|| black_box(reference_kernel(buf))).1;
        if let [buf] = self.buffers.as_mut_slice() {
            return run(buf);
        }
        let threads = self.buffers.len() as f64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|buf| scope.spawn(move || run(buf)))
                .collect();
            let total: f64 = handles
                .into_iter()
                .map(|h| h.join().expect("the reference kernel does not panic"))
                .sum();
            total / threads
        })
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("reading /proc/self/status: {err}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }
}
