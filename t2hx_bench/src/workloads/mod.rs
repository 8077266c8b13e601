//! The five workloads. Each stresses a different layer; a change that
//! helps one should leave the others where they were.

mod bringup;
mod churn;
mod paper;
mod scale;
mod serve;

use crate::harness::{Finish, Harness};

/// Workload names, in run order.
pub const NAMES: [&str; 5] = ["bringup", "churn", "serve", "paper", "scale"];

/// PathDb build threads: one, so that the process's memory high-water
/// mark and its timings do not depend on how threads get scheduled.
const PATHDB_THREADS: usize = 1;

/// The default seed (`0x7258`), the one the pinned fingerprints hold for.
pub const DEFAULT_SEED: u64 = 0x7258;

/// Fingerprints of the full-size workloads at [`DEFAULT_SEED`]. A change
/// that only makes the libraries faster leaves every one of them as is.
const PINNED: [(&str, u64); 5] = [
    ("bringup", 0xd241_ddf2_0877_c6fa),
    ("churn", 0x75a9_3de2_dee5_926f),
    ("serve", 0x62b0_bb90_0226_6029),
    ("paper", 0xb675_4c8a_27ff_d4d3),
    ("scale", 0x807d_f330_1dec_8371),
];

/// The pinned fingerprint of a full-size workload at `seed`, if any.
pub fn pinned(name: &str, seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED)
        .then(|| PINNED.iter().find(|p| p.0 == name).map(|p| p.1))
        .flatten()
}

/// Runs workload `name` under the harness.
pub fn run(name: &str, h: &mut Harness) -> Finish {
    match name {
        "bringup" => bringup::run(h),
        "churn" => churn::run(h),
        "serve" => serve::run(h),
        "paper" => paper::run(h),
        "scale" => scale::run(h),
        other => unreachable!("unknown workload {other:?} passed argument checks"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Plan, Size};

    fn mini(name: &str, trace: bool) -> (Finish, bool) {
        let mut h = Harness::new(Plan {
            seed: DEFAULT_SEED,
            seconds: 0.02,
            trace,
            size: Size::Mini,
        });
        let fin = run(name, &mut h);
        let rec = h.record(name, &fin, None);
        (fin, rec.correct)
    }

    #[test]
    fn every_workload_smoke_runs_with_stable_fingerprints() {
        for name in NAMES {
            let (a, ok_a) = mini(name, false);
            let (b, ok_b) = mini(name, true);
            assert!(ok_a && ok_b, "{name}: {:?} / {:?}", a.checks, b.checks);
            assert_eq!(a.failed + b.failed, 0, "{name} failed operations");
            assert_ne!(a.fingerprint, 0, "{name} reached no checkpoint");
            assert_eq!(a.fingerprint, b.fingerprint, "{name} fingerprint drifted");
        }
    }
}
