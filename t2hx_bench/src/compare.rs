//! `t2hx_bench compare <setA> <setB>`: the verdict of two sets of runs on
//! every (workload, end-to-end metric) pair, under the bounds the
//! benchmark fixes.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::NAMES;
use hxobs::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Metric values per workload, one map per run.
type Set = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Collects every `<workload>.json` result file under `dir`, recursively.
fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", d.display()))?.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let Some(w) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".json"))
            else {
                continue;
            };
            if !NAMES.contains(&w) {
                continue;
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                return Err(format!("{}: no metrics object", path.display()));
            };
            let run = metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
                .collect();
            set.entry(w.to_string()).or_default().push(run);
        }
    }
    Ok(set)
}

/// Verdict of one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound of each other.
    Same,
    /// B's median is better than A's by more than the bound.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's quartile spread is wider than the bound.
    Unresolved,
}

/// One side's median, quartiles and spread (IQR over the median).
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let [q1, median, q3] = quartiles(values);
        Side {
            q1,
            median,
            q3,
            n: values.len(),
        }
    }

    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Judges B against A under metric `m`'s bound; also returns the change
/// in percent.
pub fn judge(m: &EndToEnd, a: &Side, b: &Side) -> (Verdict, f64) {
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let v = if a.spread() > m.bound || b.spread() > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if worse_by < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (v, change * 100.0)
}

/// Five significant digits, in scientific notation below 0.1.
fn num(v: f64) -> String {
    if v == 0.0 || v.abs() >= 0.1 {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints the comparison table; returns whether any pair is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    if sa.is_empty() || sb.is_empty() {
        return Err(format!(
            "no result files: {} holds {} workloads, {} holds {}",
            a.display(),
            sa.len(),
            b.display(),
            sb.len()
        ));
    }
    println!(
        "{:<8} {:<12} {:>4} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "n", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut any_worse = false;
    for w in NAMES {
        let (Some(ra), Some(rb)) = (sa.get(w), sb.get(w)) else {
            continue;
        };
        for m in END_TO_END {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(m.name).copied()).collect()
            };
            let (va, vb) = (pick(ra), pick(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a, b) = (Side::of(&va), Side::of(&vb));
            let (v, change) = judge(m, &a, &b);
            any_worse |= v == Verdict::Worse;
            let fmt = |s: &Side| format!("{} [{}, {}]", num(s.median), num(s.q1), num(s.q3));
            println!(
                "{w:<8} {:<12} {:>4} {:>34} {:>34} {:>+7.2}%  {}",
                m.name,
                format!("{}/{}", a.n, b.n),
                fmt(&a),
                fmt(&b),
                change,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let lat = metric("op_p50_ms");
        let tput = metric("ops_per_s");
        let a = Side::of(&[100.0, 101.0, 99.0, 100.0]);
        let slower = Side::of(&[130.0, 131.0, 129.0, 130.0]);
        assert_eq!(judge(lat, &a, &slower).0, Verdict::Worse);
        assert_eq!(judge(tput, &a, &slower).0, Verdict::Better);
        let near = Side::of(&[104.0, 105.0, 103.0, 104.0]);
        assert_eq!(judge(lat, &a, &near).0, Verdict::Same);
        let noisy = Side::of(&[40.0, 160.0, 100.0, 100.0]);
        assert_eq!(judge(lat, &a, &noisy).0, Verdict::Unresolved);
    }
}
