//! Baseline discovery, noise-aware gating and trajectory reports.
//!
//! The gate is deliberately two-condition: a kernel is flagged only when
//! (a) the bootstrap 95% confidence intervals of the two medians do not
//! overlap, *and* (b) the median moved by more than the relative
//! threshold. CI separation alone fires on tiny-but-real constant shifts
//! (a new branch in a 2 µs kernel); a median threshold alone fires on
//! noisy machines where the intervals are wide. Requiring both keeps the
//! gate quiet under same-distribution noise and loud under genuine 2x
//! cliffs — exactly the property `tests/perf.rs` pins with synthetic
//! samples.

use super::{fmt_ns, BenchFile, KernelRecord};
use std::path::{Path, PathBuf};

/// Default relative median-shift threshold (percent) below which a CI
/// separation is still reported as noise.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Gating parameters.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Minimum relative median shift (percent) for a flag.
    pub threshold_pct: f64,
}

impl Default for Gate {
    fn default() -> Gate {
        Gate {
            threshold_pct: DEFAULT_THRESHOLD_PCT,
        }
    }
}

/// Per-kernel comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Slower: CIs separated upward and the median rose past the threshold.
    Regression,
    /// Faster: CIs separated downward and the median fell past the threshold.
    Improvement,
    /// Within noise (CIs overlap, or the shift is under the threshold).
    Ok,
    /// Present in both files but measured at different scales/units —
    /// never compared (e.g. a quick run against a full baseline).
    Incomparable,
    /// Only in the new file (kernel added since the baseline).
    New,
    /// Only in the baseline (kernel removed since).
    Removed,
}

impl Verdict {
    /// Fixed-width report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improved",
            Verdict::Ok => "ok",
            Verdict::Incomparable => "incomparable",
            Verdict::New => "new",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of a trajectory comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Kernel name.
    pub name: String,
    /// The verdict for this kernel.
    pub verdict: Verdict,
    /// Baseline record, if the kernel existed there.
    pub old: Option<KernelRecord>,
    /// New record, if the kernel still exists.
    pub new: Option<KernelRecord>,
    /// Relative median change in percent (`new/old - 1`), when comparable.
    pub change_pct: Option<f64>,
}

/// Compares two trajectory points kernel-by-kernel under `gate`. Rows come
/// back sorted by name; kernels unique to either side are reported as
/// [`Verdict::New`] / [`Verdict::Removed`].
pub fn compare(old: &BenchFile, new: &BenchFile, gate: &Gate) -> Vec<Delta> {
    let mut names: Vec<&str> = old
        .kernels
        .iter()
        .chain(&new.kernels)
        .map(|k| k.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let o = old.kernel(name).cloned();
            let n = new.kernel(name).cloned();
            let (verdict, change_pct) = match (&o, &n) {
                (None, Some(_)) => (Verdict::New, None),
                (Some(_), None) => (Verdict::Removed, None),
                (Some(o), Some(n)) => {
                    if o.scale != n.scale || o.unit != n.unit {
                        (Verdict::Incomparable, None)
                    } else {
                        let change = (n.stats.median / o.stats.median - 1.0) * 100.0;
                        let th = gate.threshold_pct;
                        let v = if n.stats.ci_lo > o.stats.ci_hi && change > th {
                            Verdict::Regression
                        } else if n.stats.ci_hi < o.stats.ci_lo && change < -th {
                            Verdict::Improvement
                        } else {
                            Verdict::Ok
                        };
                        (v, Some(change))
                    }
                }
                (None, None) => unreachable!("name came from one of the files"),
            };
            Delta {
                name: name.to_string(),
                verdict,
                old: o,
                new: n,
                change_pct,
            }
        })
        .collect()
}

/// Renders the comparison table plus a one-line summary.
pub fn render(deltas: &[Delta], gate: &Gate) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>8}  verdict\n",
        "kernel", "old median", "new median", "change"
    ));
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    for d in deltas {
        let old_m = d
            .old
            .as_ref()
            .map_or("-".to_string(), |k| fmt_ns(k.stats.median));
        let new_m = d
            .new
            .as_ref()
            .map_or("-".to_string(), |k| fmt_ns(k.stats.median));
        let change = d
            .change_pct
            .map_or("-".to_string(), |c| format!("{c:+.1}%"));
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>8}  {}\n",
            d.name,
            old_m,
            new_m,
            change,
            d.verdict.label()
        ));
        match d.verdict {
            Verdict::Regression => regressions += 1,
            Verdict::Improvement => improvements += 1,
            _ => {}
        }
    }
    out.push_str(&format!(
        "\n{regressions} regression(s), {improvements} improvement(s) \
         (gate: CIs separate AND |median shift| > {:.0}%)\n",
        gate.threshold_pct
    ));
    out
}

/// True when any row is a [`Verdict::Regression`].
pub fn has_regression(deltas: &[Delta]) -> bool {
    deltas.iter().any(|d| d.verdict == Verdict::Regression)
}

/// Finds the baseline trajectory point in `dir`: the highest-numbered
/// `BENCH_<k>.json` with `k <= pr`, excluding `exclude` (the file this run
/// just wrote). Returns `None` when the trajectory is empty — the first
/// point has nothing to diff against.
pub fn find_baseline(dir: &Path, pr: u64, exclude: Option<&Path>) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let Some(k) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("BENCH_"))
            .and_then(|n| n.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if k > pr || exclude.is_some_and(|e| same_file(e, &path)) {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| k > *b) {
            best = Some((k, path));
        }
    }
    best.map(|(_, p)| p)
}

/// Path equality robust to `./BENCH_5.json` vs `BENCH_5.json` spellings.
fn same_file(a: &Path, b: &Path) -> bool {
    match (a.canonicalize(), b.canonicalize()) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => a == b,
    }
}
