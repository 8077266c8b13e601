//! Robust summary statistics for benchmark samples.
//!
//! Wall-clock benchmark samples are contaminated by scheduler noise,
//! frequency scaling and allocator warm-up, so the end-to-end benchmark
//! (`t2hx_bench`) summarizes its set-up times with *robust* location and
//! spread estimators instead of mean/stddev:
//!
//! * **median** — the location estimate; immune to a minority of outliers,
//! * **MAD** (median absolute deviation) — the spread estimate with a 50%
//!   breakdown point,
//! * a **bootstrap 95% confidence interval of the median** — percentile
//!   method over a fixed number of resamples, driven by a seeded SplitMix64
//!   generator so the same samples always produce the same interval.
//!
//! [`Summary::to_json`] is byte-stable: parsing and re-serializing yields
//! identical bytes (object keys are sorted and `f64` formatting is Rust's
//! shortest round-trip form), which is what lets `BENCH_*.json` files be
//! diffed across PRs.

use crate::json::Json;

/// Number of bootstrap resamples behind [`Summary::of`]'s confidence
/// interval. Fixed (not configurable) so summaries are comparable across
/// runs and PRs.
pub const BOOTSTRAP_RESAMPLES: usize = 1000;

/// Fixed seed for the bootstrap resampler: the interval is a deterministic
/// function of the samples alone.
const BOOTSTRAP_SEED: u64 = 0x7258_1905_5c19_b00f;

/// Robust summary of a sample set: median/MAD plus a deterministic
/// bootstrap 95% confidence interval of the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub n: u64,
    /// Arithmetic mean (reported for context; gating uses the median).
    pub mean: f64,
    /// Sample median.
    pub median: f64,
    /// Median absolute deviation from the median (unscaled).
    pub mad: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Lower end of the bootstrap 95% CI of the median.
    pub ci_lo: f64,
    /// Upper end of the bootstrap 95% CI of the median.
    pub ci_hi: f64,
}

/// SplitMix64 step — the small, seedable generator backing the bootstrap
/// (hxobs deliberately has no RNG dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median of an already-sorted slice (mean of the middle pair when even).
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

impl Summary {
    /// Summarizes `samples` (any order, at least one, all finite).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or non-finite values — a benchmark
    /// that produced either is broken and must not emit a result.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "Summary::of on empty sample set");
        assert!(
            samples.iter().all(|v| v.is_finite()),
            "Summary::of on non-finite samples"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = median_sorted(&sorted);
        let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        let mad = median_sorted(&dev);
        let mean = sorted.iter().sum::<f64>() / n as f64;

        // Percentile-bootstrap CI of the median, deterministic by seed.
        let mut state = BOOTSTRAP_SEED ^ (n as u64).wrapping_mul(0x9e37);
        let mut boot = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
        let mut resample = vec![0.0f64; n];
        for _ in 0..BOOTSTRAP_RESAMPLES {
            for r in resample.iter_mut() {
                *r = sorted[(splitmix64(&mut state) % n as u64) as usize];
            }
            resample.sort_by(f64::total_cmp);
            boot.push(median_sorted(&resample));
        }
        boot.sort_by(f64::total_cmp);
        let pick = |q: f64| boot[(q * (BOOTSTRAP_RESAMPLES - 1) as f64).round() as usize];
        Summary {
            n: n as u64,
            mean,
            median,
            mad,
            min: sorted[0],
            max: sorted[n - 1],
            ci_lo: pick(0.025),
            ci_hi: pick(0.975),
        }
    }

    /// Serializes to a [`Json`] object (sorted keys, byte-stable).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ci_hi", Json::from(self.ci_hi)),
            ("ci_lo", Json::from(self.ci_lo)),
            ("mad", Json::from(self.mad)),
            ("max", Json::from(self.max)),
            ("mean", Json::from(self.mean)),
            ("median", Json::from(self.median)),
            ("min", Json::from(self.min)),
            ("n", Json::from(self.n)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0); // |dev| = [2,1,0,1,97] -> median 1
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 22.0);
        // The outlier moves the mean but the CI brackets the median.
        assert!(s.ci_lo <= s.median && s.median <= s.ci_hi);
    }

    #[test]
    fn even_count_median() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn single_sample_degenerates() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.median, s.mad), (7.5, 0.0));
        assert_eq!((s.ci_lo, s.ci_hi), (7.5, 7.5));
    }

    #[test]
    fn deterministic_and_order_invariant() {
        let a = Summary::of(&[3.0, 1.0, 2.0, 9.0, 5.0, 4.0]);
        let b = Summary::of(&[9.0, 5.0, 4.0, 3.0, 1.0, 2.0]);
        assert_eq!(a, b);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn json_round_trip_byte_identical() {
        let s = Summary::of(&[0.125, 3.7, 2.0, 1e9, 0.333333]);
        let text = s.to_json().to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("median").and_then(Json::as_num), Some(s.median));
        assert_eq!(back.to_string(), text);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        Summary::of(&[]);
    }
}
