//! Sample statistics the benchmark reports: interpolated percentiles, the
//! tail percentile a sample can support, Python-compatible quartiles for
//! `compare`, the log-log scaling exponent of the `scale` ladder, and the
//! FNV-1a fold behind every fingerprint.

/// Linear-interpolated percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail a latency sample supports: the highest percentile of the
/// ladder that has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when the sample is too small for any
    /// higher rung).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Percentile rungs tried from the top; p50 is the floor.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Picks the highest rung of p99 / p90 / p50, up to `top`, with at least
/// ten samples above it, falling back to the median when even p50 has
/// fewer.
pub fn tail(samples: &[f64], top: f64) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let pct = TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= top)
        .find(|&p| n - (n as f64 * p / 100.0).ceil() as usize >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(&s, pct),
        n,
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). A single value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let d = sorted(values);
    let ld = d.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return [d[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when `j` was clamped up: Python extrapolates there too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `b` of a
/// power law `y = a * x^b` through the points.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "a slope needs two points");
    let lx: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ly: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let n = points.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

/// FNV-1a accumulator over 64-bit words: the fingerprint of a workload's
/// simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its IEEE bits.
    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_supported_percentile() {
        let up_to = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it.
        let t = tail(&up_to(1000), 99.0);
        assert_eq!((t.pct, t.n), (99.0, 1000));
        // A lower top rung caps it.
        assert_eq!(tail(&up_to(1000), 90.0).pct, 90.0);
        // 999 samples: p99 has only 9 beyond, so p90 is the highest.
        assert_eq!(tail(&up_to(999), 99.0).pct, 90.0);
        assert_eq!(tail(&up_to(100), 99.0).pct, 90.0);
        // 99 samples: p90 has 9 beyond; p50 has 49.
        assert_eq!(tail(&up_to(99), 99.0).pct, 50.0);
        // Too small for any rung: the median, with n reported.
        let t = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((t.pct, t.value, t.n), (50.0, 2.0, 3));
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn loglog_slope_recovers_power_law_exponent() {
        let pts: Vec<(f64, f64)> = [1296.0, 4096.0, 10000.0]
            .iter()
            .map(|&x: &f64| (x, 3.5e-4 * x.powf(1.7)))
            .collect();
        assert!((loglog_slope(&pts) - 1.7).abs() < 1e-9);
        let linear = [(1.0, 2.0), (10.0, 20.0)];
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.eat(1);
        a.eat(2);
        let mut b = Fnv::default();
        b.eat(2);
        b.eat(1);
        assert_ne!(a, b);
    }
}
