//! Sample maths: percentiles, window medians and span self time.

use spcache_metrics::Samples;

/// `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| Samples::from_vec(samples.to_vec()).percentile(p))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// One timed client operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    pub kind: OpKind,
    /// Start of the op, seconds after the start of the first window
    /// (negative during warm-up).
    pub at: f64,
    /// Seconds spent inside the `Client` call.
    pub latency: f64,
    /// User bytes the op moved.
    pub bytes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Read,
    DegradedRead,
    Write,
}

/// Splits `[0, windows * window_len)` into equal windows, applies `f`
/// to the `kind` samples that *started* in each, and returns the
/// median over the windows where `f` had something to say. A single
/// disturbed window (a noisy neighbour) then moves the result far less
/// than it moves a whole-run percentile.
pub fn window_median(
    samples: &[OpSample],
    kind: OpKind,
    windows: usize,
    window_len: f64,
    f: impl Fn(&[OpSample]) -> Option<f64>,
) -> Option<f64> {
    let mut buckets: Vec<Vec<OpSample>> = vec![Vec::new(); windows];
    for s in samples.iter().filter(|s| s.kind == kind && s.at >= 0.0) {
        let w = (s.at / window_len) as usize;
        if w < windows {
            buckets[w].push(*s);
        }
    }
    let per_window: Vec<f64> = buckets.iter().filter_map(|b| f(b)).collect();
    median(&per_window)
}

pub fn latency_percentile_ms(p: f64) -> impl Fn(&[OpSample]) -> Option<f64> {
    move |w| {
        let lat: Vec<f64> = w.iter().map(|s| s.latency * 1e3).collect();
        percentile(&lat, p)
    }
}

/// Payload MB/s of client time: bytes moved per second a client spent
/// inside the call, times the number of concurrent closed-loop clients.
pub fn client_mbps(clients: usize) -> impl Fn(&[OpSample]) -> Option<f64> {
    move |w| {
        let busy: f64 = w.iter().map(|s| s.latency).sum();
        let bytes: usize = w.iter().map(|s| s.bytes).sum();
        (busy > 0.0).then(|| clients as f64 * bytes as f64 / busy / 1e6)
    }
}

/// A traced interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The client operation the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children — the replies of
/// one fan-out — are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(4.6));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn read(at: f64, latency: f64) -> OpSample {
        OpSample {
            kind: OpKind::Read,
            at,
            latency,
            bytes: 1_000_000,
        }
    }

    #[test]
    fn window_median_shrugs_off_one_disturbed_window() {
        // Five 1 s windows of 10 ms reads; window 2 is disturbed (80 ms).
        let mut samples = vec![read(-0.5, 9.0)]; // warm-up, ignored
        for w in 0..5 {
            for i in 0..10 {
                let lat = if w == 2 { 0.080 } else { 0.010 };
                samples.push(read(w as f64 + i as f64 * 0.1, lat));
            }
        }
        samples.push(read(5.0, 9.0)); // started after the last window
        samples.push(OpSample {
            kind: OpKind::Write,
            at: 1.0,
            latency: 9.0,
            bytes: 1,
        });
        let p50 = window_median(&samples, OpKind::Read, 5, 1.0, latency_percentile_ms(50.0));
        assert_eq!(p50, Some(10.0));
        let all: Vec<f64> = samples[1..51].iter().map(|s| s.latency * 1e3).collect();
        assert_eq!(
            percentile(&all, 99.0),
            Some(80.0),
            "the whole-run p99 does move"
        );
        // 10 MB per 0.1 s of client time, two clients.
        let mbps = window_median(&samples, OpKind::Read, 5, 1.0, client_mbps(2));
        assert!((mbps.unwrap() - 200.0).abs() < 1e-9);
        // No write landed in most windows: the median is over those that had one.
        let w = window_median(&samples, OpKind::Write, 5, 1.0, latency_percentile_ms(50.0));
        assert_eq!(w, Some(9000.0));
        assert_eq!(
            window_median(&samples, OpKind::DegradedRead, 5, 1.0, client_mbps(1)),
            None
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, parent, start, end| Span {
            name,
            op: 1,
            parent,
            start,
            end,
        };
        let spans = vec![
            span("read", None, 0.0, 10.0),
            span("locate", Some(0), 1.0, 3.0),
            span("fanout", Some(0), 3.0, 9.0),
            // Two overlapping replies and one that outlives its parent.
            span("reply", Some(2), 3.0, 6.0),
            span("reply", Some(2), 4.0, 7.0),
            span("reply", Some(2), 8.0, 12.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 2.0, "10 - (2 + 6)");
        assert_eq!(st[1], 2.0, "a leaf keeps its whole duration");
        assert_eq!(st[2], 1.0, "6 - ([3,7] + [8,9])");
        assert_eq!(st[5], 4.0);
    }
}
