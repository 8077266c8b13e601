//! No sample is lost on the way to the metrics export: under an installed
//! obs sink, one sweep exports exactly one `route.pair_hops` sketch that
//! holds every routed pair of the sweep's hop histogram.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global `hxobs` sink.

use hxobs::{Json, ObsRecorder};
use hxroute::engines::Dfsssp;
use hxroute::SubnetManager;
use hxtopo::hyperx::HyperXConfig;
use std::sync::Arc;

#[test]
fn a_sweep_exports_every_pair_hop_sample() {
    let rec = Arc::new(ObsRecorder::new());
    hxobs::install(rec.clone());
    let topo = HyperXConfig::new(vec![4, 4], 2).build();
    let mut sm = SubnetManager::new(topo, Box::new(Dfsssp::default()));
    let report = sm.sweep().unwrap();
    hxobs::uninstall();

    let lines: Vec<Json> = rec
        .metrics_jsonl()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("route.pair_hops"))
        .collect();
    assert_eq!(lines.len(), 1, "one unscoped sketch per name");
    let line = &lines[0];
    let num = |k: &str| line.get(k).and_then(Json::as_num).unwrap();
    assert_eq!(line.get("type").and_then(Json::as_str), Some("sketch"));
    assert!(line.get("epoch").is_none());
    let hist = &report.paths.hist;
    assert_eq!(num("count"), hist.iter().sum::<usize>() as f64);
    let hop_sum: usize = hist.iter().enumerate().map(|(h, &n)| h * n).sum();
    assert_eq!(num("sum"), hop_sum as f64);
    let max_hops = hist.iter().rposition(|&n| n > 0).unwrap();
    assert_eq!(num("max"), max_hops as f64);
}
