//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the program; nothing inside the program is instrumented.
//! Each span has a name, a start, an end, a parent (0 for a root) and
//! the id of the request it belongs to (0 outside requests). Spans stay
//! in memory and are written out as tab-separated lines when the run
//! ends.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Some children are replays of the same request through one
//! layer, timed after the window on the same bytes; they are attributed
//! to the span they explain and subtracted from it the same way.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log; records nothing when tracing is off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records one span and returns its id (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: ns_since(self.origin, start),
            end_ns: ns_since(self.origin, end),
        });
        self.spans.len() as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1000.0)
            .collect()
    }

    /// Self times of every span called `name` that has at least one
    /// child, in microseconds.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut covered: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .filter_map(|(i, s)| {
                let children = covered.get(&(i as u32 + 1))?;
                let dur = (s.end_ns - s.start_ns) as f64;
                Some((dur - *children as f64) / 1000.0)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line under a header;
    /// times are nanoseconds since the tracer was created.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\trequest\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.parent,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let parent = t.record("wait", 0, 1, t0, t0 + Duration::from_micros(100));
        t.record("parse", parent, 1, t0, t0 + Duration::from_micros(10));
        t.record("render", parent, 1, t0, t0 + Duration::from_micros(30));
        assert_eq!(t.self_times_us("wait"), vec![60.0]);
        assert_eq!(t.durations_us("parse"), vec![10.0]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, 0, now, now), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
