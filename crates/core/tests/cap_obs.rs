//! The day-scale allocation stream's `cap.*` sketches keep policies and
//! rail counts apart: a quick `capacity_scale`-shaped run (every policy,
//! two seeds, one and two rails) exports one `cap.wait_s` line per
//! policy and rail count, the seeds of a cell folded into it.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global `hxobs` sink.

use hxcap::POLICY_KINDS;
use hxcore::{run_capacity_scale, ScaleConfig, System};
use hxobs::{Json, ObsRecorder};
use hxroute::engines::{Dfsssp, RoutingEngine};
use hxtopo::hyperx::HyperXConfig;
use std::sync::Arc;

/// The quick 6x4 T=2 plane, `rails` times.
fn quick_system(rails: usize) -> System {
    let topo = Arc::new(HyperXConfig::new(vec![6, 4], 2).build());
    let planes = (0..rails).map(|_| {
        (
            topo.clone(),
            Box::new(Dfsssp::default()) as Box<dyn RoutingEngine>,
        )
    });
    System::route(planes).unwrap()
}

#[test]
fn a_quick_run_exports_one_wait_line_per_policy_and_rail_count() {
    let rec = Arc::new(ObsRecorder::new());
    hxobs::install(rec.clone());
    let cfg = ScaleConfig::quick();
    let mut jobs = Vec::new();
    for rails in [1, 2] {
        let sys = quick_system(rails);
        for policy in POLICY_KINDS {
            let finished: u64 = (0..2)
                .map(|s| run_capacity_scale(&sys, policy, &cfg, 0xCA9 + s).jobs_finished)
                .sum();
            jobs.push((format!("cap.wait_s.{}.r{rails}", policy.name()), finished));
        }
    }
    hxobs::uninstall();

    let waits: Vec<(String, u64)> = rec
        .metrics_jsonl()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|j| {
            let name = j.get("name").and_then(Json::as_str).unwrap();
            name.starts_with("cap.wait_s")
        })
        .map(|j| {
            assert!(j.get("epoch").is_none() && j.get("plane").is_none());
            let name = j.get("name").and_then(Json::as_str).unwrap().to_string();
            (name, j.get("count").and_then(Json::as_num).unwrap() as u64)
        })
        .collect();
    // One sample per started job, and every job of the stream starts.
    jobs.sort();
    assert_eq!(waits, jobs);
}
