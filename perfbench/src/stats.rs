//! Latency and throughput arithmetic shared by every workload.
//!
//! Every figure the benchmark prints that is built from samples comes
//! through here, so the rules (nearest-rank percentiles, the "ten samples
//! beyond" rule, due-time latency) live in one place and are unit-tested.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `q` of all samples are at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = sorted.len();
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// How many samples lie strictly after the nearest-rank position of `q`.
fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// True when a tail percentile `q` over `n` samples rests on at least ten
/// samples beyond it — the smallest sample count a reported tail may have.
pub fn tail_is_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Median of unsorted values (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Client latency of one request, measured from when it was *due*, not
/// from when the generator got round to sending it: a generator that
/// stalls makes every request behind the stall late, and that lateness
/// belongs in the latency the client sees.
pub fn due_latency(due: Instant, replied: Instant) -> Duration {
    replied.saturating_duration_since(due)
}

/// Distribution of per-operation times in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Nearest-rank median.
    pub p50_ms: f64,
    /// Nearest-rank 90th percentile.
    pub p90_ms: f64,
    /// Nearest-rank 99th percentile.
    pub p99_ms: f64,
}

impl Latency {
    /// Percentiles of `samples_ms` (any order).
    pub fn of(samples_ms: &[f64]) -> Self {
        let mut v = samples_ms.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            p50_ms: nearest_rank(&v, 0.5),
            p90_ms: nearest_rank(&v, 0.9),
            p99_ms: nearest_rank(&v, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // Rank ceil(0.5 * 5) = 3 → the third sample, never an interpolation.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn ten_samples_beyond_p99_needs_a_thousand() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_is_supported(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_is_supported(999, 0.99));
        assert!(!tail_is_supported(100, 0.99));
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert!(tail_is_supported(20, 0.5));
    }

    #[test]
    fn a_stalled_generator_shows_up_in_latency() {
        // Requests due every 10 ms; the generator stalls 50 ms before the
        // third one and then sends the rest back to back. Each is served in
        // 1 ms after it is sent.
        let t0 = Instant::now();
        let ms = |x: u64| Duration::from_millis(x);
        let due: Vec<Instant> = (0..5).map(|i| t0 + ms(10 * i)).collect();
        let sent = [t0, t0 + ms(10), t0 + ms(70), t0 + ms(71), t0 + ms(72)];
        let latency: Vec<u64> = due
            .iter()
            .zip(sent)
            .map(|(&d, s)| due_latency(d, s + ms(1)).as_millis() as u64)
            .collect();
        assert_eq!(latency, vec![1, 1, 51, 42, 33]);
        // A reply can never precede its due time; clock skew clamps to 0.
        assert_eq!(due_latency(t0 + ms(5), t0), Duration::ZERO);
    }

    #[test]
    fn latency_summary_matches_nearest_rank() {
        let samples: Vec<f64> = (0..2000).rev().map(|i| i as f64 / 10.0).collect();
        let l = Latency::of(&samples);
        assert_eq!(l.p50_ms, 99.9);
        assert_eq!(l.p90_ms, 179.9);
        assert_eq!(l.p99_ms, 197.9);
    }
}
