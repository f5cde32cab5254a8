//! Order statistics, process memory, seed mixing and the host-noise probe.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (sorted in place).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set size (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The flag that makes the benchmark binary run one noise probe, print
/// its milliseconds and exit.
pub const PROBE_FLAG: &str = "--noise-probe";

/// A fixed 4 MB random-access probe: one random cycle over 1M `u32`
/// slots, chased 1M steps. It is larger than L2 and smaller than the LLC,
/// so its time tracks how hard a co-tenant presses on the shared cache.
/// Diagnostic only: never a metric, never used to normalise one. Returns
/// the milliseconds of the chase, not of building the cycle.
pub fn noise_probe_ms() -> f64 {
    const SLOTS: usize = 1 << 20;
    let mut order: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        let j = (mix(0x5eed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut next = vec![0u32; SLOTS];
    for w in 0..SLOTS {
        next[order[w] as usize] = order[(w + 1) % SLOTS];
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..SLOTS {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs [`noise_probe_ms`] in a child process of this binary and waits
/// for it, so the probe's 8 MB never count in this process's
/// `peak_rss_mb`. `None` when the child fails.
pub fn noise_probe_in_child_ms() -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .arg(PROBE_FLAG)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn mix_is_deterministic_and_salted() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }
}
