//! Fixed-size log-linear latency histograms, one per second of the
//! timed window.
//!
//! The load generator keeps no per-request log: every latency lands in a
//! histogram whose size does not grow with the number of requests, so
//! `peak_rss_mb` measures the server rather than the benchmark's
//! bookkeeping. Buckets are powers of two split into 128 linear
//! sub-buckets, so a reported quantile (the bucket midpoint) is within
//! 0.4% of the true sample.

use std::time::{Duration, Instant};

/// Linear sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered: values up to 2^63 ns.
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Counts of nanosecond samples in log-linear buckets.
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; (OCTAVES + 1) * SUB],
            total: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// The nearest-rank `p` quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return midpoint_ns(i) / 1000.0;
            }
        }
        midpoint_ns(self.counts.len() - 1) / 1000.0
    }
}

/// Quantile over slices taken for latencies: host noise only ever adds
/// latency, so the quieter seconds show what the code itself costs.
const LATENCY_SLICE_Q: f64 = 0.1;
/// Quantile over slices taken for throughput: host noise only ever
/// takes throughput away.
const THROUGHPUT_SLICE_Q: f64 = 0.9;

/// One second of a timed window.
struct Slice {
    /// Latencies of the requests due in this second.
    latency: Hist,
    /// Answers that completed in this second, and the last of them.
    answered: u64,
    last: Option<Instant>,
}

/// A timed window cut into one-second slices. The host this runs on
/// drifts in speed over seconds to minutes, and that noise is
/// one-sided: it adds latency and takes throughput away. So a reported
/// latency percentile is a low quantile over slices of each slice's
/// percentile, and the reported throughput a high quantile over slices
/// of each slice's rate: an episode of host noise moves neither much,
/// where it would drag a figure pooled over the window along, while a
/// change in the code moves every slice.
pub struct Window {
    start: Instant,
    slices: Vec<Slice>,
}

impl Window {
    pub fn new(start: Instant, seconds: u64) -> Self {
        Window {
            start,
            slices: (0..seconds.max(1))
                .map(|_| Slice {
                    latency: Hist::new(),
                    answered: 0,
                    last: None,
                })
                .collect(),
        }
    }

    fn slice(&self, t: Instant) -> usize {
        t.saturating_duration_since(self.start).as_secs() as usize
    }

    /// Records one answer to a request that was due at `due`. Its
    /// latency counts in the slice it was due in; the answer counts
    /// toward the throughput of the slice it completed in, when that is
    /// inside the window.
    pub fn record(&mut self, due: Instant, completed: Instant) {
        let last = self.slices.len() - 1;
        let k = self.slice(due).min(last);
        self.slices[k]
            .latency
            .record(completed.saturating_duration_since(due));
        let k = self.slice(completed);
        if let Some(s) = self.slices.get_mut(k) {
            s.answered += 1;
            s.last = Some(s.last.map_or(completed, |t| t.max(completed)));
        }
    }

    /// The `p` latency percentile, in microseconds: a low quantile over
    /// slices of each slice's percentile (0 when nothing was recorded).
    pub fn latency_us(&self, p: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.latency.total > 0)
            .map(|s| s.latency.quantile_us(p))
            .collect();
        crate::trace::quantile(&per_slice, LATENCY_SLICE_Q)
    }

    /// Answered requests per second: a high quantile over slices of each
    /// slice's rate, which is its answers over the time from the
    /// previous slice's last answer (or the window's start) to its own.
    pub fn throughput(&self) -> f64 {
        let mut rates = Vec::with_capacity(self.slices.len());
        let mut prev = self.start;
        for s in &self.slices {
            if let Some(last) = s.last {
                let span = last.saturating_duration_since(prev).as_secs_f64();
                if span > 0.0 {
                    rates.push(s.answered as f64 / span);
                }
                prev = last;
            }
        }
        crate::trace::quantile(&rates, THROUGHPUT_SLICE_Q)
    }
}

fn index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = ((ns >> shift) as usize) & (SUB - 1);
    ((shift as usize + 1) << SUB_BITS) | sub
}

fn midpoint_ns(i: usize) -> f64 {
    if i < SUB {
        return i as f64 + 0.5;
    }
    let shift = (i >> SUB_BITS) - 1;
    let sub = (i & (SUB - 1)) as f64;
    let width = (1u64 << shift) as f64;
    (SUB as f64 + sub) * width + width / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_half_a_percent() {
        let mut h = Hist::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        for (p, want) in [(0.5, 500.0), (0.9, 900.0), (1.0, 1000.0)] {
            let got = h.quantile_us(p);
            assert!((got - want).abs() / want < 0.005, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn noisy_seconds_move_neither_latency_nor_throughput() {
        let start = Instant::now();
        let mut w = Window::new(start, 10);
        // Every second answers 100 requests at 100 us, except second 4:
        // a noisy one, with 50 answers at 900 us.
        for k in 0..10u64 {
            let (n, us) = if k == 4 { (50, 900) } else { (100, 100) };
            for i in 0..n {
                let due = start + Duration::from_secs(k) + Duration::from_millis(10 * i);
                w.record(due, due + Duration::from_micros(us));
            }
        }
        let p50 = w.latency_us(0.5);
        assert!((p50 - 100.0).abs() / 100.0 < 0.005, "{p50}");
        let rps = w.throughput();
        assert!((rps - 100.0).abs() < 1.5, "{rps}");
    }

    #[test]
    fn bucket_edges_are_contiguous() {
        for ns in [0u64, 1, 127, 128, 129, 255, 256, 1 << 20, (1 << 40) + 12345] {
            let mid = midpoint_ns(index(ns));
            assert!((mid - ns as f64).abs() <= (ns as f64 / 256.0).max(0.5) + 1e-9);
        }
    }
}
