//! A preallocated log-bucket histogram of nanosecond durations.
//!
//! Buckets grow by 1% from 100 ns to ~100 s, so a quantile is known to
//! within 1% and the generator's memory stays constant however many
//! requests a run makes (it never shows in the measured process RSS).
//! Quantiles interpolate linearly inside their bucket.

const MIN_NS: f64 = 100.0;
const GROWTH: f64 = 1.01;
/// `MIN_NS * GROWTH^BUCKETS` ≈ 100 s.
const BUCKETS: usize = 2100;

#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS + 1],
            total: 0,
        }
    }
}

/// Lower edge of bucket `i` (bucket 0 holds everything below `MIN_NS`).
fn lower_edge(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        MIN_NS * GROWTH.powi(i as i32 - 1)
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let v = ns as f64;
        let i = if v < MIN_NS {
            0
        } else {
            ((v / MIN_NS).ln() / GROWTH.ln()) as usize + 1
        };
        self.counts[i.min(BUCKETS)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 && (below + n) as f64 > rank {
                let frac = (rank - below as f64 + 0.5) / n as f64;
                let (lo, hi) = (lower_edge(i), lower_edge(i + 1));
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            below += n;
        }
        lower_edge(BUCKETS)
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_land_within_a_bucket_of_the_truth() {
        let mut h = Hist::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 1_000);
        }
        for (q, truth) in [(0.5, 5.0e6), (0.99, 9.9e6)] {
            let got = h.quantile_ns(q);
            assert!((got / truth - 1.0).abs() < 0.011, "q{q}: {got} vs {truth}");
        }
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }
}
