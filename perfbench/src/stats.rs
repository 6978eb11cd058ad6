//! Order statistics for timing samples.

use std::time::Duration;

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Percentiles a timing may report as its tail, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: f64 = 10.0;

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Median rate over the full `window`-long windows of a phase:
/// `done` holds each operation's completion time (seconds from the
/// phase start) and the amount of work it completed. A host stall then
/// costs only the windows it falls in, not the whole phase's mean.
pub fn windowed_rate(done: &[(f64, f64)], phase_s: f64, window: f64) -> f64 {
    let windows = (phase_s / window).floor() as usize;
    if windows == 0 {
        return done.iter().map(|d| d.1).sum::<f64>() / phase_s;
    }
    let mut amount = vec![0.0; windows];
    for &(t, a) in done {
        if let Some(slot) = amount.get_mut((t / window) as usize) {
            *slot += a;
        }
    }
    let rates: Vec<f64> = amount.iter().map(|a| a / window).collect();
    median(&rates)
}

/// A timing distribution: its median and the highest percentile with
/// at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_q = TAIL_PERCENTILES
            .into_iter()
            .find(|q| n as f64 * (1.0 - q / 100.0) >= TAIL_SUPPORT)
            .unwrap_or(50.0);
        Self {
            n,
            p50: percentile(&v, 50.0),
            tail_q,
            tail: percentile(&v, tail_q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        // Ten 1 s windows of 100 units, one of which stalled to 10.
        let mut done: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.1, 10.0)).collect();
        for d in done.iter_mut().filter(|d| d.0 >= 3.0 && d.0 < 4.0) {
            d.1 = 1.0;
        }
        assert_eq!(windowed_rate(&done, 10.0, 1.0), 100.0);
        // A phase shorter than one window falls back to the mean rate.
        assert_eq!(windowed_rate(&done, 0.5, 1.0), 910.0 / 0.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.tail_q), (1000, 99.0));
        assert_eq!(Summary::of(&v[..999]).tail_q, 90.0);
        assert_eq!(Summary::of(&v[..5]).tail_q, 50.0);
    }
}
