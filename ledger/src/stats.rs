//! Small measurement helpers: quantiles, process memory, a fingerprint, and
//! the host drift probe.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule, or 0 for
/// an empty slice. Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even count), or
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// One field of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`), or 0 where the
/// file does not exist.
pub fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resets the peak-RSS watermark (`VmHWM`) to the current RSS, so a later
/// [`status_kib`]`("VmHWM")` reports the peak of what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Keys of the host drift probe's table.
const PROBE_KEYS: u64 = 1 << 16;
/// Lookups per probe repetition.
const PROBE_LOOKUPS: u64 = 1 << 18;
/// Repetitions whose median is the probe's value.
const PROBE_REPS: usize = 3;

/// The host drift probe `host.ref_s`: median seconds of a fixed kernel of
/// `String`-keyed `HashMap` lookups in a pseudo-random order. The kernel is the
/// benchmark's own and never changes with the program, so a shift in it is a
/// shift in the host, not in the code under test. It is reported beside the
/// metrics and never used to normalise them.
pub fn host_probe() -> f64 {
    let keys: Vec<String> = (0..PROBE_KEYS).map(|i| format!("probe-key-{i:08}")).collect();
    let table: HashMap<String, u64> = keys.iter().cloned().zip(0..).collect();
    let mut times = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        let started = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut sum = 0u64;
        for _ in 0..PROBE_LOOKUPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let key = &keys[((x >> 33) % PROBE_KEYS) as usize];
            sum = sum.wrapping_add(*table.get(black_box(key.as_str())).expect("probe key present"));
        }
        black_box(sum);
        times.push(started.elapsed().as_secs_f64());
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
