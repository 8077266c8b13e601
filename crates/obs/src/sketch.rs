//! hxobs's one distribution type: mergeable log₂-bucket quantile sketches.
//!
//! A [`Sketch`] counts non-negative samples in 96 log₂ buckets (bucket `i`
//! covers `(2^(i-41), 2^(i-40)]`, so the range spans ~1e-12 … ~1e16 —
//! seconds, bytes and hop counts alike) and answers [`Sketch::quantile`]
//! queries; [`Sketch::merge`] is a bucket-wise add. Because every positive
//! sample `v` lands in the bucket whose upper bound `b` satisfies
//! `v <= b < 2v`, a quantile estimate brackets the exact sample quantile
//! within a factor of two: `exact <= estimate < 2 * exact`. That bound is
//! pinned by the proptests in `tests/sketch.rs`.
//!
//! Sketches are kept per name and [`Scope`]. Plain distributions (DES
//! message sizes, solver component sizes, route pair hops) have no scope;
//! per-epoch tails (flow completion, re-solve time, reroute latency)
//! carry their path-store epoch and, on multi-rail fabrics, their plane.
//! Each sketch exports as one `{"type":"sketch"}` JSONL line with
//! count/sum/min/max, p50/p95/p99/p999 and the non-empty buckets.

use crate::json::Json;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Number of log₂ buckets.
const BUCKETS: usize = 96;
/// Bucket `OFFSET` has upper bound `2^0 = 1`.
const OFFSET: i32 = 40;

/// The quantiles every sketch export reports, in order.
const REPORTED_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

/// Bucket of sample `v`: the smallest `i` with `v <= 2^(i-OFFSET)`,
/// clamped into range (zero and negative samples land in bucket 0).
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let l = v.log2().ceil() as i32;
    (l + OFFSET).clamp(0, BUCKETS as i32 - 1) as usize
}

/// Upper bound of bucket `i` (`2^(i-OFFSET)`).
fn bucket_bound(i: usize) -> f64 {
    ((i as i32 - OFFSET) as f64).exp2()
}

/// A mergeable log₂-bucket quantile sketch over non-negative samples.
#[derive(Debug, Clone)]
pub struct Sketch {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Sketch {
    fn default() -> Sketch {
        Sketch {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Sketch {
    /// Creates an empty sketch.
    pub fn new() -> Sketch {
        Sketch::default()
    }

    /// Records one sample (negative samples clamp into the lowest bucket).
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of `v` at once; `n == 0` records nothing.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(v)] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Folds another sketch into this one: the result is bucket-identical
    /// to a sketch that recorded both sample streams.
    pub fn merge(&mut self, other: &Sketch) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper log₂-bucket bound of the sample at rank `ceil(q * count)`
    /// (clamped to `[1, count]`), i.e. an estimate `e` of the exact
    /// q-quantile `x` with `x <= e < 2x` for positive samples. `None` when
    /// the sketch is empty. The estimate is additionally clamped into
    /// `[min, max]`, which only tightens the bracket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The standard tail report: `[p50, p95, p99, p999]`.
    pub fn tail(&self) -> Option<[f64; 4]> {
        let q = |p| self.quantile(p);
        Some([q(0.50)?, q(0.95)?, q(0.99)?, q(0.999)?])
    }

    /// The `{"type":"sketch"}` export line for this sketch under `name`
    /// at `scope`; `epoch` and `plane` fields appear only when scoped.
    fn to_json(&self, name: &str, Scope { epoch, plane }: Scope) -> Json {
        let mut fields = vec![
            ("type", Json::str("sketch")),
            ("name", Json::str(name)),
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
        ];
        if let Some(e) = epoch {
            fields.push(("epoch", Json::from(e)));
        }
        if let Some(p) = plane {
            fields.push(("plane", Json::from(u64::from(p))));
        }
        if self.count > 0 {
            fields.push(("min", Json::from(self.min)));
            fields.push(("max", Json::from(self.max)));
            for (label, q) in REPORTED_QUANTILES {
                fields.push((label, Json::from(self.quantile(q).unwrap())));
            }
            let buckets = (0..BUCKETS)
                .filter(|&i| self.buckets[i] > 0)
                .map(|i| {
                    Json::obj([
                        ("le", Json::from(bucket_bound(i))),
                        ("count", Json::from(self.buckets[i])),
                    ])
                })
                .collect();
            fields.push(("buckets", Json::Arr(buckets)));
        }
        Json::obj(fields)
    }
}

/// Where a sample was recorded: the path-store epoch and the fabric
/// plane, each `None` for call sites that do not scope by it. Sketches of
/// one name export in scope order, the unscoped one first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Scope {
    /// Path-store epoch the sample belongs to.
    pub epoch: Option<u64>,
    /// Fabric plane (NIC rail) the sample belongs to.
    pub plane: Option<u32>,
}

impl Scope {
    /// No scope: a plain distribution.
    pub const NONE: Scope = Scope {
        epoch: None,
        plane: None,
    };

    /// Path-store epoch `epoch`, no plane.
    pub const fn epoch(epoch: u64) -> Scope {
        Scope {
            epoch: Some(epoch),
            plane: None,
        }
    }
}

/// Per-`(name, scope)` sketch store behind a single mutex. Recording sites
/// run once per message, solve, flow completion or reroute, never per
/// packet, so one mostly uncontended lock is cheap; a registry hit
/// allocates nothing, and the disabled case never reaches the registry.
#[derive(Default)]
pub(crate) struct SketchRegistry {
    map: Mutex<BTreeMap<String, BTreeMap<Scope, Sketch>>>,
}

impl SketchRegistry {
    /// Records `n` samples of `value` into the sketch of `name` at
    /// `scope`, created on first use; `n == 0` creates nothing. Only a
    /// miss allocates (the name and the bucket array).
    pub(crate) fn record(&self, name: &str, scope: Scope, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let mut map = self.map.lock();
        if let Some(scopes) = map.get_mut(name) {
            scopes.entry(scope).or_default().record_n(value, n);
            return;
        }
        map.entry(name.to_string())
            .or_default()
            .entry(scope)
            .or_default()
            .record_n(value, n);
    }

    /// One export line per sketch, sorted by `(name, epoch, plane)` with
    /// the unscoped sketch of a name first (byte-stable across identical
    /// runs).
    pub(crate) fn lines(&self) -> Vec<Json> {
        let map = self.map.lock();
        map.iter()
            .flat_map(|(name, scopes)| scopes.iter().map(move |(&sc, s)| s.to_json(name, sc)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let mut s = Sketch::new();
        for v in [0.5, 1.0, 3.0, 1000.0, 0.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert!((s.sum() - 1004.5).abs() < 1e-9);
        // Zero sits in bucket 0; 3.0 in the bucket bounded by 4.0.
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_bound(bucket_of(3.0)), 4.0);
        assert_eq!(bucket_bound(bucket_of(4.0)), 4.0);
        assert_eq!(bucket_bound(bucket_of(1.0)), 1.0);
    }

    #[test]
    fn quantiles_bracket_exact_on_a_known_stream() {
        let mut s = Sketch::new();
        let mut vals: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99, 0.999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let est = s.quantile(q).unwrap();
            assert!(
                est >= exact && est <= 2.0 * exact,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = Sketch::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.tail(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn merge_equals_union_stream() {
        let (mut a, mut b, mut u) = (Sketch::new(), Sketch::new(), Sketch::new());
        for i in 0..100 {
            let v = (i as f64) * 3.7 + 0.1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        assert_eq!(a.sum().to_bits(), u.sum().to_bits());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                a.quantile(q).unwrap().to_bits(),
                u.quantile(q).unwrap().to_bits()
            );
        }
    }

    /// `(epoch, plane, count)` of every exported line for `name`.
    fn exported(r: &SketchRegistry, name: &str) -> Vec<(Option<u64>, Option<u64>, u64)> {
        let field = |j: &Json, k| j.get(k).and_then(Json::as_num).map(|v| v as u64);
        r.lines()
            .iter()
            .filter(|j| j.get("name").and_then(Json::as_str) == Some(name))
            .map(|j| {
                (
                    field(j, "epoch"),
                    field(j, "plane"),
                    field(j, "count").unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn record_n_equals_n_records() {
        let (mut a, mut b) = (Sketch::new(), Sketch::new());
        a.record_n(3.0, 4);
        a.record_n(9.0, 0);
        for _ in 0..4 {
            b.record(3.0);
        }
        assert_eq!((a.count(), a.sum(), a.max()), (b.count(), b.sum(), b.max()));
        assert_eq!(a.tail(), b.tail());
    }

    #[test]
    fn registry_separates_planes() {
        let r = SketchRegistry::default();
        let at = |plane| Scope {
            epoch: Some(1),
            plane,
        };
        r.record("flow.completion_us", at(None), 10.0, 1);
        r.record("flow.completion_us", at(Some(0)), 100.0, 1);
        r.record("flow.completion_us", at(Some(1)), 200.0, 1);
        r.record("flow.completion_us", at(Some(1)), 300.0, 1);
        // Plane-scoped lines carry a plane field, unplaned ones do not.
        assert_eq!(
            exported(&r, "flow.completion_us"),
            vec![
                (Some(1), None, 1),
                (Some(1), Some(0), 1),
                (Some(1), Some(1), 2)
            ]
        );
    }

    #[test]
    fn registry_keys_by_name_and_scope() {
        let r = SketchRegistry::default();
        r.record("flow.completion_us", Scope::epoch(2), 1000.0, 1);
        r.record("flow.completion_us", Scope::epoch(1), 10.0, 1);
        r.record("flow.completion_us", Scope::epoch(1), 20.0, 1);
        r.record("flow.completion_us", Scope::NONE, 5.0, 1);
        r.record("resolve_us", Scope::epoch(1), 5.0, 1);
        r.record("route.pair_hops", Scope::NONE, 2.0, 3);
        r.record("route.pair_hops", Scope::NONE, 3.0, 1);
        r.record("route.pair_hops", Scope::epoch(1), 3.0, 0);
        assert_eq!(
            exported(&r, "flow.completion_us"),
            vec![(None, None, 1), (Some(1), None, 2), (Some(2), None, 1)]
        );
        assert_eq!(exported(&r, "route.pair_hops"), vec![(None, None, 4)]);
        assert!(exported(&r, "absent").is_empty());
        // Every line carries the tail and buckets that sum to its count.
        let lines = r.lines();
        assert_eq!(lines.len(), 5);
        for j in &lines {
            assert_eq!(j.get("type").unwrap().as_str(), Some("sketch"));
            assert!(j.get("p999").is_some());
            let total: f64 = j
                .get("buckets")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|b| b.get("count").and_then(Json::as_num).unwrap())
                .sum();
            assert_eq!(Some(total), j.get("count").and_then(Json::as_num));
        }
    }
}
